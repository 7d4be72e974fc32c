#!/usr/bin/env python3
"""Run every benchmark workload and keep its result in BENCH_<label>.json.

    python3 scripts/bench.py --label pr6 --seed 9701

For each workload in BENCHMARK.json the unchanged benchmark command
(`python3 perfbench/run.py`) runs twice from the root of the checkout
this script sits in, for the benchmark's run_seconds: once with
--trace 0 (end-to-end metrics) and once with --trace 1 (per-layer
metrics).  BENCH_<label>.json, written at that root, keeps for each run
its result line (the last line, one JSON object) and its provenance line
(machine, library versions, FFT worker count, git commit), and the
tracked files that differed from that commit when it ran.  Committed
files form the performance trajectory of the repository; to measure an
older commit, run this script from a checkout of that commit.
"""

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROVENANCE = "provenance: "


def run_workload(command, workload, seed, seconds, trace):
    """One benchmark run; returns (result, provenance) as parsed JSON."""
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{' '.join(argv)} exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    provenance = [line[len(PROVENANCE):] for line in lines if line.startswith(PROVENANCE)]
    if not lines or len(provenance) != 1:
        raise SystemExit(f"{' '.join(argv)} printed no result and provenance line")
    return json.loads(lines[-1]), json.loads(provenance[0])


def uncommitted_changes():
    """`git status --porcelain` lines of the tracked files that differ from
    HEAD, or None where git cannot tell."""
    try:
        proc = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                              cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.splitlines() if proc.returncode == 0 else None


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--label", required=True, help="names the output BENCH_<label>.json")
    ap.add_argument("--seed", type=int, required=True, help="workload seed of every run")
    args = ap.parse_args(argv)
    if not re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9._-]*", args.label):
        ap.error(f"label {args.label!r} must be letters, digits, '.', '_' or '-'")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    command = [sys.executable if word == "python3" else word for word in spec["command"]]
    changes = uncommitted_changes()
    runs = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            result, provenance = run_workload(command, workload, args.seed,
                                              spec["run_seconds"], trace)
            runs.append({"workload": workload, "trace": trace,
                         "result": result, "provenance": provenance})
            print(f"{workload} --trace {trace}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}")
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps({"label": args.label, "seed": args.seed,
                               "command": spec["command"],
                               "seconds": spec["run_seconds"],
                               "uncommitted_changes": changes,
                               "runs": runs},
                              indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
