"""The benchmark's workloads: inputs from a seed, one timed pass, output checks.

Each workload is set up (``setup``, repeated to time set-up), then runs
identical passes (``run_pass``), calling ``mark()`` each time the caller
would see a result complete.  ``output`` reads back what a pass produced,
outside the timed region, and ``check`` returns (units checked, units
failed).  The passes make the same calls as ``strainflow simulate``,
``strainflow diagnose`` and ``strainflow toy-ode --sweep``.
"""

from __future__ import annotations

import os
import statistics
import time
from pathlib import Path

import numpy as np

from strainflow import diagnostics, initial_data, snapshots, solver, toy_ode
from strainflow.spectral import Grid

# The diagnostics CSV contract (README, "File formats"), fixed here rather
# than read from the program so that a change to it fails the check.
CSV_COLUMNS = ("t", "E", "diss_H1", "det_int", "tr3_int", "vortex_stretch",
               "lam2p_Linf", "lam2p_L2", "lam2p_L32", "crit_int_qinf",
               "crit_int_q2", "budget_resid", "vs_ident_resid", "gcon_margin",
               "cubic_margin", "force_term")
BUDGET = CSV_COLUMNS.index("budget_resid")
VS_IDENT = CSV_COLUMNS.index("vs_ident_resid")
BUDGET_RESID_MAX = 1e-5
VS_IDENT_RESID_MAX = 1e-10

REFERENCE_CSV = Path(__file__).resolve().parent / "reference" / "tg32_simulate.csv"
# A translated run differs from the reference only by rounding (at most
# ~1e-12 of a column's largest magnitude at this commit); each value must
# lie within this share of its column's largest reference magnitude.  The
# two residual columns are rounding noise themselves and are held to their
# bounds instead.
REFERENCE_TOL = 1e-9
COMPARED = [c for c in range(len(CSV_COLUMNS)) if c not in (BUDGET, VS_IDENT)]

FLOAT_BYTES = 8
COMPLEX_BYTES = 16


def parse_csv(text):
    lines = text.rstrip("\n").split("\n")
    return tuple(lines[0].split(",")), [[float(v) for v in ln.split(",")] for ln in lines[1:]]


def _contract_ok(header, rows, expected_rows):
    return (header == CSV_COLUMNS and len(rows) == expected_rows
            and all(len(row) == len(CSV_COLUMNS) for row in rows))


def translate(grid, u_hat, shift):
    """Move a spectral field by whole grid cells along each axis."""
    phase = np.exp(-2j * np.pi / grid.n
                   * (grid.kx * shift[0] + grid.ky * shift[1] + grid.kz * shift[2]))
    return u_hat * phase


def python_speed_probe():
    """Mean CPU seconds of three runs of a fixed pure-Python float loop.

    It calls no strainflow code, so no program change moves it.  On the
    shared host where the bounds were set, pure-Python CPU time moved by
    up to 25% from one run to the next, with the vCPU placement and
    neighbours, and this probe moved with it.
    """
    times = []
    for _ in range(3):
        start = time.process_time()
        x, y = 0.1, 0.7
        for _ in range(40000):
            x, y = y + 1e-3 * x * (1.0 - y), x - 5e-4 * y * y
        times.append(time.process_time() - start)
    return statistics.mean(times)


class Tg32Simulate:
    """Taylor-Green at n=32, nu=1, dt=1e-3: 100 RK4 steps per pass, a
    diagnostics record and a velocity snapshot every 10 steps, the CSV
    and a final snapshot at the end.

    The seed translates the flow by whole grid cells.  Every CSV column is
    translation-invariant, so one stored reference checks every seed.
    """

    name = "tg32_simulate"
    n = 32
    dt = 1e-3
    t_end = 0.1
    record_every = 10
    unit = "step"
    units_per_pass = 100
    gap_from_start = False  # record 0 precedes the first step and opens no gap
    speed_probe = None  # measured steadier unscaled; see README

    def __init__(self, seed, work_dir):
        self.shift = tuple(int(s) for s in np.random.default_rng(seed).integers(0, self.n, 3))
        self.csv = os.path.join(work_dir, "tg32.csv")
        self.snap_dir = os.path.join(work_dir, "tg32_snapshots")

    def setup(self):
        self.grid = Grid(self.n)
        u_hat = initial_data.generate_initial(self.grid, "taylor_green")
        self.u0 = translate(self.grid, u_hat, self.shift)
        os.makedirs(self.snap_dir, exist_ok=True)

    def _save(self, state, name):
        snapshots.save_snapshot(os.path.join(self.snap_dir, name), "velocity", state.t,
                                1.0, self.grid.ifft(state.u_hat))

    def run_pass(self, mark):
        config = solver.SolverConfig(n=self.n, viscosity=1.0, dt=self.dt, t_end=self.t_end,
                                     record_every=self.record_every, force="none")
        force = solver.make_force(self.grid, config.force)
        collector = diagnostics.RecordCollector(self.grid, force=force,
                                                viscosity=config.viscosity)

        def on_record(state):
            collector(state)
            self._save(state, f"state_{state.step_count:08d}.snap")
            mark()

        result = solver.run(config, self.u0, grid=self.grid, on_record=on_record)
        diagnostics.write_csv(collector.finalize(), self.csv)
        self._save(result.final_state, "state_final.snap")

    def output(self):
        return Path(self.csv).read_bytes()

    def check(self, output):
        header, rows = parse_csv(output.decode("ascii"))
        _, reference = parse_csv(REFERENCE_CSV.read_text(encoding="ascii"))
        expected = len(reference)
        if not _contract_ok(header, rows, expected):
            return expected, expected
        scale = {c: max(abs(ref[c]) for ref in reference) for c in COMPARED}
        failed = 0
        for row, ref in zip(rows, reference):
            close = all(abs(row[c] - ref[c]) <= REFERENCE_TOL * scale[c] for c in COMPARED)
            failed += not (close and abs(row[BUDGET]) < BUDGET_RESID_MAX
                           and abs(row[VS_IDENT]) < VS_IDENT_RESID_MAX)
        return expected, failed

    def working_set_bytes(self):
        full = 3 * self.n ** 3 * COMPLEX_BYTES
        return {"state_full_spectrum": full,
                "state_half_spectrum": 3 * self.n ** 2 * (self.n // 2 + 1) * COMPLEX_BYTES,
                "velocity_physical": 3 * self.n ** 3 * FLOAT_BYTES}


class Rdf64Diagnose:
    """Diagnostics at n=64 over velocity snapshots of seeded
    random_div_free fields written during set-up: each pass loads,
    forward-transforms and records every snapshot, then writes the CSV."""

    name = "rdf64_diagnose"
    n = 64
    snapshots_per_pass = 10
    unit = "record"
    units_per_pass = snapshots_per_pass
    gap_from_start = True  # every record is one load plus one record
    speed_probe = None

    def __init__(self, seed, work_dir):
        rng = np.random.default_rng(seed)
        self.field_seeds = [int(s) for s in rng.integers(0, 2 ** 31, self.snapshots_per_pass)]
        self.paths = [os.path.join(work_dir, f"rdf64_{i:02d}.snap")
                      for i in range(self.snapshots_per_pass)]
        self.csv = os.path.join(work_dir, "rdf64.csv")

    def setup(self):
        self.grid = Grid(self.n)
        for index, (seed, path) in enumerate(zip(self.field_seeds, self.paths)):
            u_hat = initial_data.generate_initial(self.grid, "random_div_free", seed=seed)
            snapshots.save_snapshot(path, "velocity", 0.01 * index, 1.0, self.grid.ifft(u_hat))

    def run_pass(self, mark):
        collector = diagnostics.RecordCollector(self.grid, viscosity=1.0)
        for index, path in enumerate(self.paths):
            snap = snapshots.load_snapshot(path)
            u_hat = self.grid.fft(snap.data)
            u_hat[:, 0, 0, 0] = 0.0
            collector(solver.SolverState(u_hat, snap.time, index))
            mark()
        diagnostics.write_csv(collector.finalize(), self.csv)

    def output(self):
        return Path(self.csv).read_bytes()

    def check(self, output):
        header, rows = parse_csv(output.decode("ascii"))
        expected = self.snapshots_per_pass
        if not _contract_ok(header, rows, expected):
            return expected, expected
        failed = sum(not (abs(row[VS_IDENT]) < VS_IDENT_RESID_MAX and row[0] == 0.01 * i)
                     for i, row in enumerate(rows))
        return expected, failed

    def working_set_bytes(self):
        return {"velocity_spectral": 3 * self.n ** 3 * COMPLEX_BYTES,
                "strain_spectral": 5 * self.n ** 3 * COMPLEX_BYTES,
                "strain_physical": 5 * self.n ** 3 * FLOAT_BYTES,
                "snapshot_payload": 3 * self.n ** 3 * FLOAT_BYTES}


def _jittered(rng, lo, hi, count):
    """count nodes spanning [lo, hi]; interior nodes move by up to 40% of the spacing."""
    nodes = np.linspace(lo, hi, count)
    nodes[1:-1] += rng.uniform(-0.4, 0.4, count - 2) * (nodes[1] - nodes[0])
    return nodes


class ToySweep:
    """toy_ode.phase_sweep over a seeded-jittered grid: 6 lambda3_0 values
    in criterion 11's [0.1, 10] by 10 r_0 values in its [0.51, 2], plus the
    r_0 = 1/2 decay line, then the sweep CSV."""

    name = "toy_sweep"
    lambda3_nodes = (0.1, 10.0, 6)
    r_nodes = (0.51, 2.0, 10)
    r_decay = 0.5
    unit = "cell"
    units_per_pass = lambda3_nodes[2] * (r_nodes[2] + 1)
    gap_from_start = True  # the caller sees one result per sweep
    speed_probe = staticmethod(python_speed_probe)
    probe_reference_s = 0.0045  # the probe's typical reading where the bounds were set

    def __init__(self, seed, work_dir):
        self.seed = seed
        self.csv = os.path.join(work_dir, "toy_sweep.csv")

    def setup(self):
        rng = np.random.default_rng(self.seed)
        self.lambda3 = _jittered(rng, *self.lambda3_nodes)
        self.r = np.concatenate([[self.r_decay], _jittered(rng, *self.r_nodes)])

    def run_pass(self, mark):
        self.cells = toy_ode.phase_sweep(self.lambda3, self.r)
        toy_ode.write_sweep_csv(self.cells, self.csv)
        mark()

    def output(self):
        return tuple(self.cells)

    def check(self, output):
        failed = 0
        for cell in output:
            if cell.r_0 == self.r_decay:
                ok = cell.outcome == "decayed"
            else:
                bound = toy_ode.blowup_time_bound(cell.lambda3_0, cell.r_0)
                ok = (cell.outcome == "blew_up" and abs(cell.r_terminal - 2.0) < 1e-3
                      and (bound is None or cell.t_est <= bound * (1.0 + 1e-6)))
            failed += not ok
        return self.units_per_pass, failed + self.units_per_pass - len(output)

    def working_set_bytes(self):
        return {"sweep_cells": self.units_per_pass * 5 * FLOAT_BYTES}


WORKLOADS = {w.name: w for w in (Tg32Simulate, Rdf64Diagnose, ToySweep)}


def write_reference(work_dir):
    """Regenerate the stored Taylor-Green reference (untranslated flow)."""
    workload = Tg32Simulate(0, work_dir)
    workload.shift = (0, 0, 0)
    workload.setup()
    workload.run_pass(lambda: None)
    REFERENCE_CSV.parent.mkdir(exist_ok=True)
    REFERENCE_CSV.write_bytes(workload.output())
