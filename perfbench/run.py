"""strainflow benchmark: one workload, closed-loop timed passes, checked outputs.

Run from the repository root:

    python3 perfbench/run.py --workload tg32_simulate --seed 1 --seconds 20 --trace 0

Workloads: tg32_simulate, rdf64_diagnose, toy_sweep (see README.md next to
this file).  With --trace 0 the run prints the end-to-end metrics; with
--trace 1 it runs untraced passes for half of --seconds and traced passes
for the other half, checks that both produce the same bytes, and prints
the per-layer metrics.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.

    python3 perfbench/run.py --write-reference

rewrites reference/tg32_simulate.csv from the current program.
"""

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
TAIL_PERCENTILE = 75.0
TAIL_BEYOND = 10


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    if not args.write_reference and args.workload is None:
        parser.error("--workload is required")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def tail(samples):
    """Nearest-rank TAIL_PERCENTILE of the samples, as (level, value).

    The level is fixed so that runs compare like with like; at the
    benchmark's run length every workload has at least TAIL_BEYOND
    samples above it.  Shorter runs fall back to the median.
    """
    xs = sorted(samples)
    rank = math.ceil(TAIL_PERCENTILE / 100.0 * len(xs))
    if len(xs) - rank >= TAIL_BEYOND:
        return TAIL_PERCENTILE, xs[rank - 1]
    return 50.0, statistics.median(xs)


def set_up(workload_cls, seed, work_dir, tracer=None):
    """Set the workload up SETUP_REPEATS times; returns the last one and
    the CPU time of each set-up."""
    durations = []
    for _ in range(SETUP_REPEATS):
        start = time.process_time()
        with tracer.span("bench.setup") if tracer else contextlib.nullcontext():
            workload = workload_cls(seed, work_dir)
            workload.setup()
        durations.append(time.process_time() - start)
    return workload, durations


@dataclass
class Passes:
    cpu: list  # CPU seconds per pass, scaled by the workload's speed probe if it has one
    raw_cpu: list  # CPU seconds per pass as measured
    wall: list  # wall seconds per pass
    gaps: list  # CPU seconds between results the caller saw, scaled like cpu
    outputs: list


def run_passes(workload, seconds, tracer=None):
    """Closed loop, one caller: start each pass when the previous one ends,
    until `seconds` of wall time have passed (at least one pass).

    A workload with a speed probe has each pass's times multiplied by
    probe_reference_s over the mean of the probes on either side of the
    pass.  A pass's output is read after its timers stop.
    """
    runs = Passes([], [], [], [], [])
    probe = workload.speed_probe
    before = probe() if probe else None
    begin = time.perf_counter()
    while not runs.cpu or time.perf_counter() - begin < seconds:
        marks = []
        wall_start, start = time.perf_counter(), time.process_time()
        with tracer.span("bench.pass") if tracer else contextlib.nullcontext():
            workload.run_pass(lambda: marks.append(time.process_time()))
        cpu = time.process_time() - start
        runs.wall.append(time.perf_counter() - wall_start)
        scale = 1.0
        if probe:
            after = probe()
            scale = workload.probe_reference_s / statistics.mean((before, after))
            before = after
        runs.raw_cpu.append(cpu)
        runs.cpu.append(scale * cpu)
        points = [start] + marks if workload.gap_from_start else marks
        runs.gaps.extend(scale * (b - a) for a, b in zip(points, points[1:]))
        runs.outputs.append(workload.output())
    return runs


def check_outputs(workload, outputs):
    """Units checked and failed.  Passes repeat identical work on identical
    inputs, so a pass whose output differs from the first pass's by a
    single bit fails all of its units."""
    attempted = failed = 0
    for output in outputs:
        checked, bad = workload.check(output)
        attempted += checked
        failed += checked if output != outputs[0] else bad
    return attempted, failed


def peak_rss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def _read(path):
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def _cpu_model():
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.partition(":")[2].strip()
    return platform.processor() or None


def _cache_bytes(level):
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        if _read(index / "level") == str(level) and _read(index / "type") != "Instruction":
            size = _read(index / "size") or ""
            scale = {"K": 1024, "M": 1024 ** 2}.get(size[-1:], 1)
            return int(size.rstrip("KM")) * scale if size.rstrip("KM").isdigit() else None
    return None


def _git_commit():
    head = _read(ROOT / ".git" / "HEAD")
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    loose = _read(ROOT / ".git" / ref)
    if loose:
        return loose
    for line in (_read(ROOT / ".git" / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def provenance(workload):
    import numpy
    import scipy
    from strainflow import spectral
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "l2_bytes": _cache_bytes(2),
        "l3_bytes": _cache_bytes(3),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "fft_workers": getattr(spectral, "_FFT_WORKERS", None),
        "git_commit": _git_commit(),
        "working_set_bytes": workload.working_set_bytes(),
    }


def untraced_run(workload_cls, args, import_s, work_dir):
    workload, setup_times = set_up(workload_cls, args.seed, work_dir)
    runs = run_passes(workload, args.seconds)
    attempted, failed = check_outputs(workload, runs.outputs)
    level, tail_s = tail(runs.gaps)
    units = workload.units_per_pass * len(runs.cpu)
    metrics = {
        "setup_s": (import_s + statistics.median(setup_times), "s"),
        "run_cpu_s": (statistics.median(runs.cpu), "s"),
        "units_per_cpu_s": (units / sum(runs.cpu), "1/s"),
        "gap_cpu_ms_p50": (1e3 * statistics.median(runs.gaps), "ms"),
        "gap_cpu_ms_tail": (1e3 * tail_s, "ms"),
        "peak_rss_mb": (peak_rss_mib(), "MiB"),
    }
    detail = {
        "unit": workload.unit, "units_per_pass": workload.units_per_pass,
        "passes": len(runs.cpu), "gap_samples": len(runs.gaps),
        "gap_tail_percentile": level, "failed_frac": failed / attempted,
        "import_cpu_s": import_s, "setup_cpu_s": setup_times,
        "run_raw_cpu_s_median": statistics.median(runs.raw_cpu),
        "run_wall_s_median": statistics.median(runs.wall),
        "units_per_wall_s": units / sum(runs.wall),
        "pass_cpu_s": runs.cpu, "gap_cpu_s": runs.gaps,
    }
    return workload, attempted, failed, metrics, detail


def traced_run(workload_cls, args, import_s, work_dir):
    import tracing
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        workload, _ = set_up(workload_cls, args.seed, work_dir, tracer)
    untraced = run_passes(workload, args.seconds / 2)
    with tracing.installed(tracer):
        traced = run_passes(workload, args.seconds / 2, tracer)
    identical = all(output == untraced.outputs[0] for output in traced.outputs)
    attempted, failed = check_outputs(workload, untraced.outputs + traced.outputs)
    layer = tracing.layer_metrics(tracer.spans)
    layer["trace.overhead_frac"] = (statistics.median(traced.cpu)
                                    / statistics.median(untraced.cpu) - 1.0)
    units = {name: unit for name, unit, _ in tracing.LAYER_METRICS}
    metrics = {name: (value, units[name]) for name, value in layer.items()}
    detail = {
        "untraced_passes": len(untraced.cpu), "traced_passes": len(traced.cpu),
        "untraced_run_cpu_s": statistics.median(untraced.cpu),
        "traced_run_cpu_s": statistics.median(traced.cpu),
        "traced_outputs_bit_identical": identical, "spans": len(tracer.spans),
        "failed_frac": failed / attempted,
    }
    return workload, attempted, failed, metrics, detail


def main(argv=None):
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "strainflow" / "__init__.py").is_file():
        print(f"error: no strainflow package under {src}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads
    import_s = time.process_time()  # CPU time since the process started

    if args.write_reference:
        with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as work_dir:
            workloads.write_reference(work_dir)
        print(f"wrote {workloads.REFERENCE_CSV}")
        return 0
    workload_cls = workloads.WORKLOADS.get(args.workload)
    if workload_cls is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    run = traced_run if args.trace else untraced_run
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as work_dir:
        workload, attempted, failed, metrics, detail = run(workload_cls, args, import_s,
                                                           work_dir)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:>15} {name:<48} {value:>16.6g} {unit}")
    print("detail: " + json.dumps(detail))
    print("provenance: " + json.dumps(provenance(workload)))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
