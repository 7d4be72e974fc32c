#!/usr/bin/env python3
"""SHA-256 digest of the outputs of a fixed set of strainflow commands.

Runs each command below, with the package of this checkout's src/, in a
temporary directory, then prints `sha256  relative/path` for every file
produced (standard output of each command included), sorted by path.
It takes no flags and writes nothing in the checkout.  Run it in two
checkouts and diff the listings to check that a change keeps every
output byte:

    python3 scripts/output_digest.py > digest.txt
"""

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# (name, arguments); each command's standard output goes to stdout/<name>.txt
COMMANDS = [
    ("tg16", ["simulate", "--n", "16", "--t-end", "0.1", "--csv", "tg16.csv",
              "--snapshot-dir", "tg16_snaps", "--snapshot-every", "20"]),
    ("rdf16_forced", ["simulate", "--n", "16", "--t-end", "0.1",
                      "--initial-data", "random_div_free", "--seed", "3",
                      "--amplitude", "2.5", "--force", "expr:sin(2*y);cos(3*z)*t;sin(x)",
                      "--csv", "rdf16_forced.csv", "--snapshot-dir", "rdf16_forced_snaps",
                      "--snapshot-every", "20"]),
    ("shear16", ["simulate", "--n", "16", "--t-end", "0.1", "--initial-data", "shear",
                 "--amplitude", "0.7", "--csv", "shear16.csv"]),
    ("file16", ["simulate", "--n", "16", "--t-end", "0.1",
                "--initial-data", "file:tg16_snaps/state_final.snap", "--csv", "file16.csv"]),
    ("diagnose_tg16", ["diagnose", "--csv", "diagnose_tg16.csv", "tg16_snaps/state_0*"]),
    # n = 24 is not a power of two: there a 1/n^3 split over the passes of an
    # inverse transform, rather than applied once after the last, moves bits
    ("rdf24", ["simulate", "--n", "24", "--t-end", "0.1",
               "--initial-data", "random_div_free", "--seed", "5", "--amplitude", "3",
               "--csv", "rdf24.csv", "--snapshot-dir", "rdf24_snaps",
               "--snapshot-every", "20"]),
    ("diagnose_rdf24", ["diagnose", "--csv", "diagnose_rdf24.csv", "rdf24_snaps/state_0*"]),
    ("toy_sweep", ["toy-ode", "--sweep", "--sweep-out", "toy_sweep.csv"]),
    ("toy_reduced", ["toy-ode", "--lambda3", "1", "--r", "0.7",
                     "--trajectory-out", "toy_reduced.csv"]),
    # r0 = 1.5 is above the growth zero (1 + sqrt 3)/2, so the bound is printed
    ("toy_bound", ["toy-ode", "--lambda3", "1", "--r", "1.5",
                   "--trajectory-out", "toy_bound.csv"]),
    # r near 1/2 runs the reduced loop longest (T ~ 147); r = 1/2 decays
    ("toy_slow", ["toy-ode", "--lambda3", "1", "--r", "0.50001", "--t-end", "1000",
                  "--trajectory-out", "toy_slow.csv"]),
    ("toy_decay", ["toy-ode", "--lambda3", "1", "--r", "0.5", "--t-end", "1e7",
                   "--trajectory-out", "toy_decay.csv"]),
    ("toy_matrix", ["toy-ode", "--matrix=-1.3,0.4,0.7,-0.2,0.5", "--t-end", "50",
                    "--trajectory-out", "toy_matrix.csv"]),
    # eigenvalues (-2, 1, 1): theta comes from the atan2 branch at every step
    ("toy_degenerate", ["toy-ode", "--matrix=-2,1,0,0,0", "--t-end", "5",
                        "--trajectory-out", "toy_degenerate.csv"]),
    ("verify8", ["verify", "--n", "8", "--t-end", "0.1"]),
]


def run_all(work: Path) -> None:
    env = {k: v for k, v in os.environ.items() if not k.startswith("STRAINFLOW_")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    (work / "stdout").mkdir()
    for name, args in COMMANDS:
        # a trailing * is a file glob, expanded here in sorted order
        args = [p for a in args for p in (sorted(q.relative_to(work).as_posix()
                                                 for q in work.glob(a))
                                          if a.endswith("*") else [a])]
        proc = subprocess.run([sys.executable, "-m", "strainflow.cli", *args], cwd=work,
                              env=env, capture_output=True, text=True)
        (work / "stdout" / f"{name}.txt").write_text(proc.stdout)
        if proc.returncode != 0:
            sys.exit(f"{name} exited {proc.returncode}: {proc.stderr.strip()}")


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="strainflow-digest-") as tmp:
        work = Path(tmp)
        run_all(work)
        for path in sorted(p for p in work.rglob("*") if p.is_file()):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            print(f"{digest}  {path.relative_to(work).as_posix()}")


if __name__ == "__main__":
    main()
