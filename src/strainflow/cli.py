"""Command-line entry points: simulate, diagnose, toy-ode, verify.

Exit codes: 0 success, 1 usage/config error, 2 numerical failure,
3 verification failure.
"""

from __future__ import annotations

import argparse
import math
import os
import shutil
import sys

import numpy as np

from . import config as config_mod
from . import (diagnostics, initial_data, snapshots, solver, spectral, sym3, toy_ode,
               verify)
from .exceptions import ConfigError, NumericalFailureError, StrainflowError
from .spectral import Grid

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_VERIFY = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems map to exit code 1
        raise ConfigError(message)


def _add_config_flags(parser, command):
    parser.add_argument("--config", metavar="PATH", help="key = value config file")
    for key in config_mod.COMMAND_SETTINGS[command]:
        parser.add_argument("--" + key.replace("_", "-"), dest=f"cfg_{key}",
                            metavar="VALUE", help=f"override the {key} setting")


def _snapshot_due(run_config, state) -> bool:
    return bool(run_config.snapshot_every) and state.step_count % run_config.snapshot_every == 0


def _prepare_outputs(run_config) -> list:
    """Check, before any field is made, that the CSV can go where the run
    config names it, and create the snapshot directory.  Returns the
    directories this created, the deepest first."""
    csv_dir = os.path.dirname(run_config.csv) or os.curdir
    if not os.path.isdir(csv_dir):
        raise ConfigError(f"csv: no directory {csv_dir!r} to write {run_config.csv!r} in")
    made = []
    if run_config.snapshot_dir is not None:
        path = os.path.abspath(run_config.snapshot_dir)
        while not os.path.exists(path):
            made.append(path)
            path = os.path.dirname(path)
        try:
            os.makedirs(run_config.snapshot_dir, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"snapshot_dir: cannot create {run_config.snapshot_dir!r}: "
                              f"{exc.strerror}") from exc
    return made


def _write_snapshots(grid, state, run_config, final=False):
    if run_config.snapshot_dir is None:
        return
    step_path = os.path.join(run_config.snapshot_dir, f"state_{state.step_count:08d}.snap")
    path = os.path.join(run_config.snapshot_dir, "state_final.snap") if final else step_path
    if final and _snapshot_due(run_config, state):
        # the final state is always recorded, so on_record has just written it
        shutil.copyfile(step_path, path)
    else:
        snapshots.save_snapshot(path, "velocity", state.t, run_config.viscosity,
                                grid.ifft(state.u_hat))


def cmd_simulate(args, run_config) -> int:
    made = _prepare_outputs(run_config)
    try:
        return _simulate(run_config)
    finally:  # a run that stopped before its first snapshot leaves no directory it made
        for path in made:
            try:
                os.rmdir(path)
            except OSError:  # it holds a snapshot
                break


def _simulate(run_config) -> int:
    grid = Grid(run_config.n)
    u0 = initial_data.generate_initial(
        grid, run_config.initial_data, seed=run_config.seed,
        max_wavenumber=run_config.max_wavenumber, amplitude=run_config.amplitude)
    force = solver.make_force(grid, run_config.force)
    collector = diagnostics.RecordCollector(grid, q_list=run_config.q_list,
                                            force=force,
                                            viscosity=run_config.viscosity)

    def on_record(state):
        collector(state)
        if _snapshot_due(run_config, state):
            _write_snapshots(grid, state, run_config)

    try:
        result = solver.run(run_config, u0, grid=grid, on_record=on_record, force=force)
    except NumericalFailureError as exc:
        records = collector.finalize()
        if records:
            diagnostics.write_csv(records, run_config.csv)
        print(f"numerical failure: {exc}", file=sys.stderr)  # names the last stable time
        return EXIT_NUMERICAL
    records = collector.finalize()
    diagnostics.write_csv(records, run_config.csv)
    _write_snapshots(grid, result.final_state, run_config, final=True)
    print(f"simulated to t={result.final_state.t:.9g} "
          f"({result.final_state.step_count} steps, {len(records)} records) "
          f"-> {run_config.csv}")
    return EXIT_OK


def cmd_diagnose(args, run_config) -> int:
    # every header is checked before the first record; the fields are then
    # loaded again one at a time, so memory does not grow with their number
    headers = []  # (time, viscosity, path)
    n = None
    for path in args.snapshots:
        snap = snapshots.load_velocity(path, n)
        n = snap.n
        headers.append((snap.time, snap.viscosity, path))
        del snap  # its field, before the next is loaded
    viscosity = headers[0][1]
    for _, other, path in headers:
        if other != viscosity:
            raise ConfigError(f"{path}: mixed viscosities {other} vs {viscosity}")
    headers.sort(key=lambda header: header[0])
    for (time, _, path), (later, _, later_path) in zip(headers, headers[1:]):
        if later == time:  # the series columns need distinct times
            raise ConfigError(f"{path} and {later_path} hold the same time {time!r}")
    grid = Grid(n)
    collector = diagnostics.RecordCollector(grid, q_list=run_config.q_list,
                                            viscosity=viscosity)
    for index, (time, _, path) in enumerate(headers):
        with np.errstate(over="ignore", invalid="ignore"):  # rejected below
            u_hat = spectral.velocity_half(grid, snapshots.load_velocity(path, n).data)
        if solver._too_large(grid, u_hat):  # the rule run applies to its records
            raise ConfigError(f"{path}: velocity is too large: {solver._TOO_LARGE}")
        collector(solver.SolverState(u_hat, time, index))
    records = collector.finalize()
    diagnostics.write_csv(records, run_config.csv)
    print(f"diagnosed {len(records)} snapshots -> {run_config.csv}")
    return EXIT_OK


# argparse types of the toy-ode flags: a bad value is a usage error (exit 1)
def _finite_floats(text, count: int, what: str, above: float = -math.inf):
    try:
        values = [float(part) for part in text.split(",")]
    except ValueError:
        values = []
    if len(values) != count or not all(math.isfinite(v) and v > above for v in values):
        raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
    return values


def _positive_float(text) -> float:
    return _finite_floats(text, 1, "a positive finite number", above=0.0)[0]


def _parse_matrix(text) -> sym3.TraceFreeSym3:
    return sym3.TraceFreeSym3(*_finite_floats(text, 5, "five finite m11,m22,m12,m13,m23"))


def _parse_range(text):
    lo, hi, count = _finite_floats(text, 3, "finite min,max,count")
    if not (count >= 1 and count == int(count)):
        raise argparse.ArgumentTypeError(f"range count must be a positive integer, got {text!r}")
    return np.linspace(lo, hi, int(count))


# the flags a run and a sweep read besides --blowup-threshold; the parser leaves them None
_TOY_RUN = {"matrix": None, "lambda3": None, "r": None, "t_end": 10.0, "trajectory_out": None}
_TOY_SWEEP = {"sweep_lambda3": np.linspace(0.1, 10.0, 20), "sweep_r": np.linspace(0.51, 2.0, 20),
              "sweep_t_end": 1e7, "sweep_out": "toy_sweep.csv"}


def cmd_toy_ode(args, run_config) -> int:
    read, unread = (_TOY_SWEEP, [*_TOY_RUN]) if args.sweep else (_TOY_RUN, [*_TOY_SWEEP])
    mode = "--sweep" if args.sweep else "--matrix" if args.matrix is not None else "--lambda3 --r"
    if mode == "--matrix":
        unread += ["lambda3", "r"]
    given = ["--" + name.replace("_", "-") for name in unread if getattr(args, name) is not None]
    if given:
        raise ConfigError(f"{', '.join(given)}: not read by toy-ode {mode}")
    vars(args).update({name: value for name, value in read.items() if getattr(args, name) is None})
    if args.sweep:
        cells = toy_ode.phase_sweep(args.sweep_lambda3, args.sweep_r,
                                    t_end=args.sweep_t_end,
                                    blowup_threshold=args.blowup_threshold)
        toy_ode.write_sweep_csv(cells, args.sweep_out)
        blown = [c for c in cells if c.outcome == "blew_up"]
        print(f"sweep: {len(blown)}/{len(cells)} cells blew up -> {args.sweep_out}")
        if blown:
            print(f"blown-up cells: terminal r in [{min(c.r_terminal for c in blown):.12g}, "
                  f"{max(c.r_terminal for c in blown):.12g}], T_est in "
                  f"[{min(c.t_est for c in blown):.12g}, {max(c.t_est for c in blown):.12g}]")
        return EXIT_OK
    if args.matrix is not None:
        result = toy_ode.integrate_matrix(args.matrix, t_end=args.t_end,
                                          blowup_threshold=args.blowup_threshold)
    elif args.lambda3 is not None and args.r is not None:
        result = toy_ode.integrate_reduced(args.lambda3, args.r, t_end=args.t_end,
                                           blowup_threshold=args.blowup_threshold)
    else:
        raise ConfigError("toy-ode needs --matrix or both --lambda3 and --r")
    if args.trajectory_out:
        toy_ode.write_trajectory_csv(result.trajectory, args.trajectory_out)
    if result.outcome == "blew_up":
        # the closed-form bound of a reduced start, from its r clamped into [1/2, 2]
        bound = (None if args.matrix is not None else
                 toy_ode.blowup_time_bound(args.lambda3, result.trajectory.r[0]))
        print(f"blew_up: T_est = {result.t_est:.12g} ("
              + ("" if bound is None else f"bound {bound:.12g}, ")
              + f"terminal r = {result.trajectory.r[-1]:.9g})")
    else:
        print(f"{result.outcome}: lambda3({result.trajectory.t[-1]:.6g}) = "
              f"{result.trajectory.lambda3[-1]:.12g}")
    return EXIT_OK


def cmd_verify(args, run_config) -> int:
    checks = verify.run_checks(n=args.n, dt=args.dt, t_end=args.t_end)
    print(verify.format_table(checks))
    return EXIT_OK if all(c.passed for c in checks) else EXIT_VERIFY


def build_parser() -> _Parser:
    parser = _Parser(prog="strainflow",
                     description="Periodic-box flow solver and strain diagnostics")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="integrate a configured run",
                           description="Integrate and write diagnostics CSV/snapshots.")
    _add_config_flags(p_sim, "simulate")
    p_sim.set_defaults(fn=cmd_simulate)

    p_diag = sub.add_parser("diagnose", help="diagnostics over snapshot files")
    _add_config_flags(p_diag, "diagnose")
    p_diag.add_argument("snapshots", nargs="+", metavar="SNAPSHOT")
    p_diag.set_defaults(fn=cmd_diagnose)

    p_toy = sub.add_parser("toy-ode", help="integrate the blow-up toy model")
    p_toy.add_argument("--lambda3", type=float, help="reduced initial lambda3 > 0")
    p_toy.add_argument("--r", type=float, help="reduced initial ratio in [1/2, 2]")
    p_toy.add_argument("--matrix", type=_parse_matrix, metavar="M11,M22,M12,M13,M23",
                       help="initial matrix entries (use --matrix=-2,1,0,0,0 "
                            "when the first entry is negative)")
    p_toy.add_argument("--t-end", type=_positive_float)
    p_toy.add_argument("--blowup-threshold", type=_positive_float,
                       default=toy_ode.DEFAULT_BLOWUP_THRESHOLD)
    p_toy.add_argument("--trajectory-out", metavar="CSV")
    p_toy.add_argument("--sweep", action="store_true", help="run an outcome sweep")
    p_toy.add_argument("--sweep-lambda3", type=_parse_range, metavar="MIN,MAX,COUNT")
    p_toy.add_argument("--sweep-r", type=_parse_range, metavar="MIN,MAX,COUNT")
    p_toy.add_argument("--sweep-t-end", type=_positive_float)
    p_toy.add_argument("--sweep-out", metavar="CSV")
    p_toy.set_defaults(fn=cmd_toy_ode)

    p_ver = sub.add_parser("verify", help="run the built-in check suite")
    p_ver.add_argument("--n", type=int, default=32)
    p_ver.add_argument("--dt", type=float, default=1e-3)
    p_ver.add_argument("--t-end", type=float, default=1.0)
    p_ver.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        keys = config_mod.COMMAND_SETTINGS[args.command]
        overrides = {key: getattr(args, f"cfg_{key}") for key in keys}
        run_config = config_mod.build_config(getattr(args, "config", None), overrides, keys=keys)
        return args.fn(args, run_config)
    except NumericalFailureError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except StrainflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
