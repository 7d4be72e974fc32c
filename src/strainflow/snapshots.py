"""The file formats: the snapshot format and the one CSV row writer.

Snapshot layout::

    strainflow snapshot 1
    kind = velocity            # or strain
    n = 32
    time = 0.125
    viscosity = 1.0
    components = 3
    ---
    <components * n^3 little-endian float64 values>

Each component array is written x-fastest (the [ix, iy, iz] indexing
used everywhere, flattened in Fortran order), one component after the
other.  velocity stores (u1, u2, u3); strain stores the five independent
entries (m11, m22, m12, m13, m23).  Floats in the header are printed
with repr, so save/load round-trips are bit-exact.

write_rows writes every CSV (diagnostics, toy trajectory, toy sweep):
floats as %.17g, which reads back bit-exact, None as nan, strings as is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import ConfigError

MAGIC = "strainflow snapshot 1"
_COMPONENTS = {"velocity": 3, "strain": 5}


@dataclass
class Snapshot:
    kind: str
    n: int
    time: float
    viscosity: float
    data: np.ndarray  # (components, n, n, n) float64 physical fields


def _check_header_values(path, time: float, viscosity: float) -> None:
    # save and load share this rule, so every file saved can be loaded
    if not math.isfinite(time):
        raise ConfigError(f"{path}: time must be finite, got {time}")
    if not (math.isfinite(viscosity) and viscosity > 0):
        raise ConfigError(f"{path}: viscosity must be positive and finite, got {viscosity}")


def save_snapshot(path, kind: str, time: float, viscosity: float, data) -> None:
    data = np.asarray(data, dtype="<f8")
    _check_header_values(path, time, viscosity)
    if kind not in _COMPONENTS:
        raise ConfigError(f"unknown snapshot kind {kind!r}")
    if data.ndim != 4 or data.shape[0] != _COMPONENTS[kind]:
        raise ConfigError(
            f"{kind} snapshot needs shape ({_COMPONENTS[kind]}, n, n, n), got {data.shape}")
    n = data.shape[1]
    if data.shape[1:] != (n, n, n):
        raise ConfigError(f"snapshot grid must be cubic, got {data.shape[1:]}")
    header = (f"{MAGIC}\n"
              f"kind = {kind}\n"
              f"n = {n}\n"
              f"time = {time!r}\n"
              f"viscosity = {viscosity!r}\n"
              f"components = {data.shape[0]}\n"
              f"---\n")
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        for comp in data:
            fh.write(comp.T.tobytes())  # x fastest


def load_snapshot(path) -> Snapshot:
    """Read a snapshot; a malformed file, a time that is not finite or a
    viscosity that is not positive and finite is a ConfigError naming it."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read snapshot {path}: {exc}") from exc
    marker = b"---\n"
    split = blob.find(marker)
    if split < 0:
        raise ConfigError(f"{path}: missing header terminator")
    try:
        header_text = blob[:split].decode("ascii")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: malformed header") from exc
    lines = [ln for ln in header_text.splitlines() if ln.strip()]
    if not lines or lines[0].strip() != MAGIC:
        raise ConfigError(f"{path}: not a strainflow snapshot")
    fields = {}
    for line in lines[1:]:
        if "=" not in line:
            raise ConfigError(f"{path}: malformed header line {line!r}")
        key, _, value = line.partition("=")
        fields[key.strip()] = value.strip()
    try:
        kind = fields["kind"]
        n = int(fields["n"])
        time = float(fields["time"])
        viscosity = float(fields["viscosity"])
        components = int(fields["components"])
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"{path}: malformed header ({exc})") from exc
    if kind not in _COMPONENTS or components != _COMPONENTS[kind]:
        raise ConfigError(f"{path}: inconsistent kind/components")
    _check_header_values(path, time, viscosity)
    payload = blob[split + len(marker):]
    expected = components * n ** 3 * 8
    if len(payload) != expected:
        raise ConfigError(
            f"{path}: payload has {len(payload)} bytes, expected {expected}")
    data = np.frombuffer(payload, "<f8").reshape(components, n, n, n)
    data = data.transpose(0, 3, 2, 1).copy(order="K")  # writable, x fastest in memory
    return Snapshot(kind, n, time, viscosity, data)


def write_rows(path, header, rows) -> None:
    """Write the header line and one line per row, in the format above."""
    lines = (",".join(v if isinstance(v, str) else "nan" if v is None else "%.17g" % v
                      for v in row) for row in (header, *rows))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def load_velocity(path, n: int | None = None) -> Snapshot:
    """Load a velocity snapshot; another kind, or a grid other than n when
    n is given, is a ConfigError that names the path."""
    snap = load_snapshot(path)
    if snap.kind != "velocity":
        raise ConfigError(f"{path}: expected a velocity snapshot, got {snap.kind}")
    if n is not None and snap.n != n:
        raise ConfigError(f"{path}: snapshot grid {snap.n} != expected grid {n}")
    return snap
