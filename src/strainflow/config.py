"""Run configuration: flat key = value files, env overrides, CLI overrides.

Precedence (lowest to highest): built-in defaults, config file, process
environment (STRAINFLOW_<KEY>), explicit CLI --key value flags.
Config files hold one `key = value` per line, no key twice; `#` starts a
comment.  COMMAND_SETTINGS names the settings each command reads.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

from . import diagnostics, initial_data
from .exceptions import ConfigError, InvalidInputError
from .solver import SolverConfig

ENV_PREFIX = "STRAINFLOW_"


@dataclass
class RunConfig(SolverConfig):
    """A simulate run: SolverConfig plus initial data, diagnostics, outputs."""

    initial_data: str = "taylor_green"
    seed: int = 1
    max_wavenumber: int | None = None
    amplitude: float = 1.0
    q_list: tuple = diagnostics.DEFAULT_Q_LIST
    csv: str = "diagnostics.csv"
    snapshot_dir: str | None = None
    snapshot_every: int = 0

    def __post_init__(self):
        super().__post_init__()
        if self.snapshot_every < 0:
            raise ConfigError("snapshot_every must be >= 0")
        if self.snapshot_every % self.record_every:
            # snapshots are written from record steps only
            raise ConfigError(f"snapshot_every={self.snapshot_every} is not a multiple "
                              f"of record_every={self.record_every}")
        if self.snapshot_every and self.snapshot_dir is None:
            raise ConfigError("snapshot_every needs snapshot_dir")
        initial_data.check_name(self.initial_data)
        initial_data.check_seed(self.seed)
        if not math.isfinite(self.amplitude):
            raise ConfigError(f"amplitude must be finite, got {self.amplitude}")
        for q in self.q_list:
            diagnostics.check_q(q)


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError("expected a boolean")


def _parse_dt(text: str):
    return None if text.strip().lower() == "auto" else float(text)  # None: the CFL step


def _parse_q(text: str) -> float:
    lowered = text.strip().lower()
    if lowered in ("inf", "infinity", "qinf"):
        return math.inf
    return float(lowered)


def _parse_q_list(text: str) -> tuple:
    return tuple(_parse_q(part) for part in text.split(",") if part.strip())


def _optional(parse):
    """parse, with an empty value or `none` read as None."""
    return lambda text: None if text.strip().lower() in ("", "none") else parse(text)


_PARSERS = {
    "n": int,
    "viscosity": float,
    "dt": _parse_dt,
    "t_end": float,
    "dealias": _parse_bool,
    "record_every": int,
    "initial_data": str,
    "seed": int,
    "max_wavenumber": _optional(int),
    "amplitude": float,
    "force": str,
    "q_list": _parse_q_list,
    "csv": str,
    "snapshot_dir": _optional(str),
    "snapshot_every": int,
}

# The settings each command reads; any other setting given to it is rejected.
COMMAND_SETTINGS = {
    "simulate": tuple(_PARSERS),
    "diagnose": ("q_list", "csv"),
    "toy-ode": (),
    "verify": (),
}


def parse_config_file(path) -> dict:
    """Parse a flat key = value file (no key twice) into raw string settings."""
    raw = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    for lineno, line in enumerate(lines, start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ConfigError(f"{path}:{lineno}: expected key = value, got {line.strip()!r}")
        key, _, value = text.partition("=")
        key = key.strip()
        if key not in _PARSERS:
            raise ConfigError(f"{path}:{lineno}: unknown setting {key!r}")
        if key in raw:
            raise ConfigError(f"{path}:{lineno}: repeated setting {key!r}")
        raw[key] = value.strip()
    return raw


def env_overrides(environ=None) -> dict:
    """Settings taken from STRAINFLOW_<KEY> environment variables; a
    STRAINFLOW_ variable that names no setting is rejected, as an unknown
    key in a config file is."""
    environ = os.environ if environ is None else environ
    raw = {}
    for name, value in environ.items():
        if name.startswith(ENV_PREFIX):
            key = name[len(ENV_PREFIX):].lower()
            if key not in _PARSERS or name != ENV_PREFIX + key.upper():
                raise ConfigError(f"unknown setting {name}")
            raw[key] = value
    return raw


def build_config(config_path=None, cli_overrides=None, environ=None,
                 keys=None) -> RunConfig:
    """Assemble a RunConfig from file, environment, and CLI layers.

    keys, if given, are the only settings the caller reads (a row of
    COMMAND_SETTINGS): a file or environment setting outside them is
    rejected rather than ignored, and so is an initial-data setting that
    the initial data does not read.  Every value goes through _PARSERS.
    """
    raw = {}
    if config_path is not None:
        raw.update(parse_config_file(config_path))
    env = env_overrides(environ)
    if keys is not None:
        unread = [f"{key} (config file)" for key in raw if key not in keys]
        unread += [ENV_PREFIX + key.upper() for key in env if key not in keys]
        if unread:
            raise ConfigError(f"settings this command does not read: {', '.join(unread)}")
    raw.update(env)
    if cli_overrides:
        for key, value in cli_overrides.items():
            if key not in _PARSERS:
                raise ConfigError(f"unknown setting {key!r}")
            if value is not None:
                raw[key] = value
    settings = {}
    for key, value in raw.items():
        try:
            settings[key] = _PARSERS[key](str(value))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad value for {key}: {value!r} ({exc})") from exc
    try:
        run_config = RunConfig(**settings)
    except InvalidInputError as exc:
        raise ConfigError(str(exc)) from exc
    read = initial_data.check_name(run_config.initial_data)
    unread = [key for key in ("seed", "max_wavenumber", "amplitude")
              if key in settings and key not in read]
    if unread:
        raise ConfigError(f"{', '.join(unread)}: not read by "
                          f"initial_data = {run_config.initial_data}")
    return run_config
