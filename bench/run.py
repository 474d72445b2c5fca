#!/usr/bin/env python3
"""Run the omegalab benchmark.

One workload, as the benchmark contract calls it:

    python3 bench/run.py --workload pipeline --seed 1 --seconds 20 --trace 0

prints every end-to-end metric (``--trace 0``) or every per-layer metric
(``--trace 1``) as ``name value unit`` lines, then one JSON line with the
keys correct, attempted, failed and metrics.  Without ``--workload`` every
workload runs, each in its own interpreter.  Each run also writes a record
(seed, commit, Python version, nproc, sample counts, failures) to
``.bench_out/``; a traced run writes its spans beside it.

End-to-end times are scaled to a reference machine speed measured in the
same process (see calibrate.py); the record keeps the raw wall times too.

Exit status: 0 when every output checked correct, 1 when some did not (the
result is still printed), 2 when the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_RUNS = 3
SETUP_CALIBRATION_S = 0.25  # kernel samples just before and after each set-up
SUBPROCESS_TIMEOUT_S = 170
END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_s": "s",
                    "op_tail_s": "s", "peak_rss_mb": "MB"}

sys.path.insert(0, str(BENCH))

from calibrate import REF_NOMINAL_S, Calibrator  # noqa: E402
from tracing import Tracer, per_layer_metrics  # noqa: E402
from workloads import DEFAULT_SEED, GOLDEN, WORKLOADS, golden_digests  # noqa: E402


class BenchError(Exception):
    pass


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    return {"commit": git_commit(), "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "machine": platform.machine()}


def percentile(values: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    ordered = sorted(values)
    k = max(0, math.ceil(pct / 100 * len(ordered)) - 1)
    return ordered[k], len(ordered) - k - 1


def timed_loop(wl, cal: Calibrator, seconds: float = math.inf,
               max_ops: int | None = None, tracer: Tracer | None = None,
               corrupt: bool = False):
    """Closed loop, one client: ops 0, 1, ... until `seconds` of op time or
    `max_ops` ops are done.  Returns the op latencies, their (start, end)
    times, the latencies scaled to the reference machine speed, and the
    failed checks.

    Only `run` is timed.  Each output is checked right after its op and then
    dropped, so kept outputs do not add to the run's memory; a traced loop
    pauses the tracer while it checks.  The calibration kernel runs between
    ops, outside the timed region.
    """
    cal.sample()
    latencies, spans, failures = [], [], []
    measured = 0.0
    i = 0
    while measured < seconds and (max_ops is None or i < max_ops):
        inp = wl.make_input(i)
        if tracer is not None:
            tracer.op = i
        t0 = perf_counter()
        try:
            raw = wl.run(inp)
            error = None
        except Exception as e:  # an unexpected exception is a failed op
            error = f"{type(e).__name__}: {e}"
        t1 = perf_counter()
        latencies.append(t1 - t0)
        spans.append((t0, t1))
        measured += latencies[-1]
        if error is None:
            if tracer is not None:
                tracer.paused = True
            try:
                out = wl.collect(inp, raw)
                if corrupt and i == 0:
                    out = wl.corrupt(out)
                error = wl.check(i, inp, out)
            except Exception as e:  # so is an output the check chokes on
                error = f"check raised {type(e).__name__}: {e}"
            finally:
                if tracer is not None:
                    tracer.paused = False
        if error is not None:
            failures.append(f"op {i}: {error}")
        cal.maybe_sample()
        i += 1
    cal.sample()
    scaled = [lat * cal.factor(t0, t1) for lat, (t0, t1) in zip(latencies, spans)]
    return latencies, spans, scaled, failures


def timing_metrics(setups: list[float], latencies: list[float],
                   tail_pct: float) -> dict[str, float]:
    return {"setup_s": statistics.median(setups),
            "ops_per_s": len(latencies) / sum(latencies),
            "op_p50_s": statistics.median(latencies),
            "op_tail_s": percentile(latencies, tail_pct)[0]}


def measure_setup(args, cal: Calibrator) -> tuple[float, float]:
    """Wall time of a fresh interpreter that sets the workload up and exits,
    raw and scaled by calibration samples taken just before and after it."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        cmd.append("--tiny")
    cal.sample_for(SETUP_CALIBRATION_S)
    started = perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, stdin=subprocess.DEVNULL,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True, timeout=SUBPROCESS_TIMEOUT_S)
    ended = perf_counter()
    cal.sample_for(SETUP_CALIBRATION_S)
    if proc.returncode != 0:
        raise BenchError(f"set-up run failed: {proc.stderr.strip()[-500:]}")
    elapsed = ended - started
    return elapsed, elapsed * cal.factor(started, ended)


def run_workload(args) -> int:
    wl = WORKLOADS[args.workload](args.seed, args.tiny)
    # before set-up, so that its array is resident all run and peak RSS
    # can leave it out exactly
    cal = Calibrator()
    import_s = wl.setup()
    info = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "tiny": args.tiny, **environment()}
    if args.trace:
        lat_a, _, _, failures = timed_loop(wl, cal, args.seconds / 2,
                                           corrupt=args.corrupt)
        tracer = Tracer()
        wl.traced, wl.tracer = True, tracer
        tracer.install()
        try:
            lat_b, _, _, failed_b = timed_loop(wl, cal, max_ops=len(lat_a),
                                               tracer=tracer)
        finally:
            tracer.uninstall()
            wl.traced = False
        latencies = lat_a + lat_b
        failures += failed_b
        metrics = per_layer_metrics(
            tracer, len(lat_b), sum(lat_b), import_s,
            statistics.median(lat_a), statistics.median(lat_b))
        metrics["machine.kernel_s"] = (cal.median_s(), "s")
        spans_path = OUT_DIR / f"{wl.name}-seed{args.seed}-trace1.spans.jsonl"
        tracer.write_spans(spans_path)
        info.update(spans_file=spans_path.name, spans_stored=len(tracer.spans))
    else:
        latencies, spans, scaled, failures = timed_loop(
            wl, cal, args.seconds, corrupt=args.corrupt)
        peak_rss_mb = wl.peak_rss_mb(exclude_mb=cal.table_mb())
        setups = [measure_setup(args, cal)
                  for _ in range(1 if args.tiny else SETUP_RUNS)]
        values = timing_metrics([s for _, s in setups], scaled, wl.tail_pct)
        values["peak_rss_mb"] = peak_rss_mb
        metrics = {name: (values[name], unit)
                   for name, unit in END_TO_END_UNITS.items()}
        wall = timing_metrics([w for w, _ in setups], latencies, wl.tail_pct)
        info.update(tail_pct=wl.tail_pct,
                    tail_beyond=percentile(scaled, wl.tail_pct)[1],
                    setup_runs=setups, wall_metrics=wall,
                    kernel_s=cal.median_s(), scaled_latencies=scaled,
                    op_spans=spans, kernel_samples=list(zip(cal.times,
                                                            cal.durations)))
    extra = wl.extra_checks()
    failures += [f"{what}: {why}" for what, why in extra if why is not None]
    attempted = len(latencies) + len(extra)
    wl.finish()

    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures),
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    info.update(result, ops=len(latencies), latencies=latencies,
                failures=failures[:50])
    record_path = OUT_DIR / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(info, indent=1) + "\n")

    for name, (value, unit) in metrics.items():
        print(f"{wl.name:<10} {name:<48} {value:<14.6g} {unit}")
    if "tail_pct" in info:
        print(f"# {len(latencies)} ops; op_tail_s is p{wl.tail_pct} with "
              f"{info['tail_beyond']} samples beyond it")
        print(f"# times above are scaled to a {REF_NOMINAL_S} s calibration "
              f"kernel, which took {info['kernel_s']:.6f} s; unscaled: "
              + ", ".join(f"{k} {v:.6g}" for k, v in info["wall_metrics"].items()))
    for line in failures[:10]:
        print(f"# FAILED {line}")
    print(f"# seed {args.seed}, commit {info['commit']}, python {info['python']}, "
          f"nproc {info['nproc']}; record in {record_path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0 if not failures else 1


def run_all(args) -> int:
    """Every workload, each in a fresh interpreter; one combined record."""
    combined = {"seed": args.seed, "seconds": args.seconds, "trace": args.trace,
                **environment(), "workloads": {}}
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.tiny:
            cmd.append("--tiny")
        if args.corrupt:
            cmd.append("--corrupt")
        proc = subprocess.run(cmd, cwd=ROOT, stdin=subprocess.DEVNULL,
                              capture_output=True, text=True,
                              timeout=SUBPROCESS_TIMEOUT_S)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            raise BenchError(f"workload {name} did not run: "
                             f"{proc.stderr.strip()[-500:]}")
        print("\n".join(lines[:-1]), flush=True)
        combined["workloads"][name] = json.loads(lines[-1])
        status = max(status, proc.returncode)
    path = OUT_DIR / f"all-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(combined, indent=1) + "\n")
    print(f"# combined record in {path.relative_to(ROOT)}")
    print(json.dumps(combined["workloads"]))
    return status


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run one workload (default: all of them)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="workload seed; every op's inputs derive from it")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting per-layer metrics")
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs and one set-up run (self-test)")
    parser.add_argument("--corrupt", action="store_true",
                        help="damage the first op's output before checking "
                             "(self-test)")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--write-golden", action="store_true",
                        help="recompute the stored pipeline report digests")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "omegalab" / "__init__.py").is_file():
        print(f"bench: no omegalab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.setup_only:
            wl = WORKLOADS[args.workload](args.seed, args.tiny)
            wl.setup()
            wl.finish()
            return 0
        if args.write_golden:
            GOLDEN.write_text(json.dumps({"pipeline": golden_digests()},
                                         indent=1, sort_keys=True) + "\n")
            return 0
        OUT_DIR.mkdir(exist_ok=True)
        return run_workload(args) if args.workload else run_all(args)
    except (BenchError, ImportError, subprocess.TimeoutExpired) as e:
        print(f"bench: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
