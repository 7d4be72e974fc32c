#!/usr/bin/env python3
"""Taylor-Green reference experiment.

Integrates the n^3 Taylor-Green vortex at nu = 1, writes the diagnostics
CSV, and prints a summary of the identity residuals and inequality
margins collected along the way.

    python3 scripts/run_taylor_green.py --n 32 --t-end 1.0 --csv tg.csv
"""

import argparse

import numpy as np

from strainflow import diagnostics, initial_data, solver
from strainflow.exceptions import InvalidInputError
from strainflow.spectral import Grid


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=32)
    ap.add_argument("--dt", type=float, default=1e-3)
    ap.add_argument("--t-end", type=float, default=1.0)
    ap.add_argument("--record-every", type=int, default=10)
    ap.add_argument("--csv", default="taylor_green.csv")
    args = ap.parse_args()

    try:
        config = solver.SolverConfig(n=args.n, viscosity=1.0, dt=args.dt,
                                     t_end=args.t_end, record_every=args.record_every)
    except InvalidInputError as exc:
        ap.error(str(exc))
    grid = Grid(args.n)
    result, records = diagnostics.run_with_diagnostics(
        config, initial_data.taylor_green(grid), grid=grid)
    diagnostics.write_csv(records, args.csv)

    e_series = np.array([r.enstrophy for r in records])
    linf = [r.lambda2_norms[np.inf] for r in records]
    envelope = diagnostics.gronwall_envelope(result.times, e_series, linf)
    print(f"wrote {len(records)} records to {args.csv}")
    print(f"enstrophy: {e_series[0]:.6g} -> {e_series[-1]:.6g}")
    print(f"max |budget residual|     : {max(abs(r.budget_residual) for r in records):.3e}")
    print(f"max stretch-identity dev  : {max(r.vortex_stretch_residual for r in records):.3e}")
    print(f"min growth-ineq. margin   : {min(r.gcon_margin for r in records):.3e}")
    print(f"envelope satisfied        : {bool(np.all(e_series <= envelope * (1 + 1e-6)))}")


if __name__ == "__main__":
    main()
