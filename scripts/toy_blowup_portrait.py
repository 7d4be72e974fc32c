#!/usr/bin/env python3
"""Phase portrait of the matrix blow-up toy model.

Sweeps reduced initial conditions (lambda3, r), classifies each cell,
and writes the outcome map; optionally dumps one full trajectory for
plotting 1/lambda3 against time.

    python3 scripts/toy_blowup_portrait.py --cells 20 --out sweep.csv
    python3 scripts/toy_blowup_portrait.py --trajectory 1.0 0.7 --out traj.csv
"""

import argparse

import numpy as np

from strainflow import toy_ode
from strainflow.exceptions import InvalidInputError


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--cells", type=int, default=20, help="grid cells per axis")
    ap.add_argument("--lambda3-range", nargs=2, type=float, default=(0.1, 10.0))
    ap.add_argument("--r-range", nargs=2, type=float, default=(0.51, 2.0))
    ap.add_argument("--trajectory", nargs=2, type=float, metavar=("LAMBDA3", "R"),
                    help="integrate a single reduced trajectory instead")
    ap.add_argument("--out", default="toy_sweep.csv")
    args = ap.parse_args()

    if args.trajectory:
        lam3, r = args.trajectory
        try:
            res = toy_ode.integrate_reduced(lam3, r, t_end=1e7)
        except InvalidInputError as exc:
            ap.error(str(exc))
        toy_ode.write_trajectory_csv(res.trajectory, args.out)
        print(f"outcome: {res.outcome}", end="")
        if res.outcome == "blew_up":
            bound = toy_ode.blowup_time_bound(lam3, r)
            print(f", T_est = {res.t_est:.9g}"
                  + (f" (bound {bound:.9g})" if bound else ""))
        else:
            print()
        print(f"{res.trajectory.t.size} samples -> {args.out}")
        return

    try:
        cells = toy_ode.phase_sweep(
            np.linspace(*args.lambda3_range, args.cells),
            np.linspace(*args.r_range, args.cells))
    except InvalidInputError as exc:
        ap.error(str(exc))
    toy_ode.write_sweep_csv(cells, args.out)
    blown = [c for c in cells if c.outcome == "blew_up"]
    print(f"{len(blown)}/{len(cells)} cells blew up -> {args.out}")
    if blown:
        print(f"terminal ratio span: "
              f"[{min(c.r_terminal for c in blown):.12g}, "
              f"{max(c.r_terminal for c in blown):.12g}]")
        print(f"blow-up times span:  "
              f"[{min(c.t_est for c in blown):.4g}, "
              f"{max(c.t_est for c in blown):.4g}]")


if __name__ == "__main__":
    main()
