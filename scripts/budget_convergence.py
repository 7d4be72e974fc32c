#!/usr/bin/env python3
"""Time-step refinement study of the enstrophy budget residual.

Runs the Taylor-Green flow at a ladder of time steps and reports the
max budget residual at each, demonstrating the fourth-order decrease
(~16x per halving).

    python3 scripts/budget_convergence.py --n 16 --steps 4
"""

import argparse

from strainflow import diagnostics, initial_data, solver
from strainflow.exceptions import InvalidInputError
from strainflow.spectral import Grid


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=16)
    ap.add_argument("--dt0", type=float, default=4e-3, help="coarsest step")
    ap.add_argument("--steps", type=int, default=4, help="number of halvings")
    ap.add_argument("--t-end", type=float, default=0.4)
    args = ap.parse_args()

    try:  # the whole ladder is checked before the first run
        configs = [solver.SolverConfig(n=args.n, viscosity=1.0, dt=args.dt0 / 2 ** k,
                                       t_end=args.t_end, record_every=10)
                   for k in range(args.steps)]
    except InvalidInputError as exc:
        ap.error(str(exc))
    # the residual needs 5 records, 4 intervals of 10 steps, at the coarsest step
    if configs and round(args.t_end / (10 * args.dt0)) < 4:
        ap.error(f"--t-end {args.t_end} gives fewer than 5 records at --dt0 {args.dt0}; "
                 "use at least 40 * dt0")
    grid = Grid(args.n)
    u0 = initial_data.taylor_green(grid)
    previous = None
    print(f"{'dt':>10}  {'max |residual|':>15}  {'ratio':>7}")
    for config in configs:
        _, records = diagnostics.run_with_diagnostics(config, u0, grid=grid)
        residual = max(abs(r.budget_residual) for r in records)
        ratio = f"{previous / residual:7.2f}" if previous else "      -"
        print(f"{config.dt:10.2e}  {residual:15.3e}  {ratio}")
        previous = residual


if __name__ == "__main__":
    main()
