"""The benchmark's span tracer still finds every name it wraps.

perfbench/tracing.py wraps each of its sites through owner.__dict__[attr],
so a name that src/ renames or deletes breaks every traced benchmark run
with a KeyError.  The module is loaded from its file and only read.
The spans also show that a record still analyses its strain once, and
that a step's pruned transforms still go through spectral._fft_module.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

from strainflow import diagnostics, initial_data, snapshots, solver, spectral

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_a_short_run(tmp_path, grid8):
    tracing = load_tracing()
    config = solver.SolverConfig(n=8, dt=1e-3, t_end=0.01, record_every=5)
    path = tmp_path / "final.snap"
    with tracing.installed(tracing.Tracer()) as tracer:
        result, records = diagnostics.run_with_diagnostics(
            config, initial_data.taylor_green(grid8), grid=grid8)
        final = result.final_state
        snapshots.save_snapshot(path, "velocity", final.t, config.viscosity,
                                grid8.ifft(final.u_hat))
        snapshots.load_snapshot(path)
    assert len(records) == 3
    names = {span[0] for span in tracer.spans}
    assert {tracing.STEP, tracing.RECORD, "diagnostics.finalize",
            "spectral.rfftn", "spectral.irfftn", "spectral.sym_gradient",
            "spectral.vorticity", "sym3.eigenvalues", "sym3.det",
            "snapshots.save_snapshot", "snapshots.load_snapshot",
            "initial_data.taylor_green"} <= names
    # one strain analysis per record: counts.sym3_det_calls_per_record is 1
    spans = tracer.spans
    under = [[] for _ in spans]
    for i, span in enumerate(spans):
        parent = span[3]
        while parent >= 0:
            under[parent].append(span[0])
            parent = spans[parent][3]
    records = [i for i, span in enumerate(spans) if span[0] == tracing.RECORD]
    assert len(records) == 3
    for i in records:
        assert under[i].count("sym3.det") == 1
        assert under[i].count("sym3.eigenvalues") == 1
    # a stage's transforms are split into c2c over (x, y) and a real
    # transform along z, all four through the module the tracer swaps
    steps = [i for i, span in enumerate(spans) if span[0] == tracing.STEP]
    assert len(steps) == 10
    for i in steps:
        for name in ("spectral.fftn", "spectral.ifftn", "spectral.rfftn", "spectral.irfftn"):
            assert under[i].count(name) == 4, name
    # the tracer wraps expand_half through spectral.__dict__
    assert "expand_half" in vars(spectral)
    assert any(owner is spectral and attr == "expand_half"
               for owner, attr, _, _ in tracing._SITES)


CHILD = """
import importlib.util, sys
from strainflow import diagnostics, initial_data, solver, spectral
from strainflow.spectral import Grid

spec = importlib.util.spec_from_file_location("perfbench_tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
assert "scipy.fft" not in sys.modules
original = spectral._fft_module
grid = Grid(8)
config = solver.SolverConfig(n=8, dt=1e-3, t_end=0.002, record_every=1)
with tracing.installed(tracing.Tracer()) as tracer:
    import scipy.fft
    for name in tracing.FFT_NAMES:
        assert getattr(spectral._fft_module, name).__wrapped__ is getattr(scipy.fft, name)
    diagnostics.run_with_diagnostics(config, initial_data.taylor_green(grid), grid=grid)
names = {span[0] for span in tracer.spans}
assert {"spectral." + name for name in tracing.FFT_NAMES} <= names, names
assert spectral._fft_module is original
print("ok", file=sys.stderr)
"""


def test_tracer_installed_before_the_first_transform():
    # in a fresh process scipy.fft is first loaded when the tracer reads
    # the four transforms it wraps
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(spectral.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", CHILD, str(TRACING)], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0 and proc.stderr.endswith("ok\n"), proc.stderr
