#!/usr/bin/env python3
"""Quick self-test of the benchmark at tiny sizes (about a minute).

    python3 bench/selftest.py

For every workload it checks three things. An untraced run and a traced run
finish with every output correct and emit exactly the metric names and units
listed in BENCHMARK.json. A run with --corrupt counts the damaged output as
failed. Last, a copy of the benchmark without the engine's sources exits with
status 2 and prints no result.  Exit status 0 means every check held.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
TIMEOUT_S = 170

sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS  # noqa: E402


def run(bench_dir: Path, *args: str) -> tuple[int, list[str], str]:
    proc = subprocess.run(
        [sys.executable, str(bench_dir / "run.py"), "--tiny", "--seconds", "1",
         "--seed", "7", *args],
        cwd=bench_dir.parent, stdin=subprocess.DEVNULL, capture_output=True,
        text=True, timeout=TIMEOUT_S)
    return proc.returncode, proc.stdout.strip().splitlines(), proc.stderr


def check_run(workload: str, trace: int, spec: dict, corrupt: bool) -> list[str]:
    args = ["--workload", workload, "--trace", str(trace)]
    if corrupt:
        args.append("--corrupt")
    code, lines, stderr = run(BENCH, *args)
    label = f"{workload} trace={trace}{' corrupt' if corrupt else ''}"
    if not lines:
        return [f"{label}: no output, exit {code}: {stderr.strip()[-300:]}"]
    result = json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    if corrupt:
        if code != 1 or result["correct"] or result["failed"] < 1:
            problems.append(f"{label}: damaged output not counted "
                            f"(exit {code}, failed {result['failed']})")
        return problems
    if code != 0 or not result["correct"] or result["failed"]:
        problems.append(f"{label}: exit {code}, {result['failed']} of "
                        f"{result['attempted']} failed: {lines[-2]}")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != units:
        problems.append(f"{label}: metrics differ from BENCHMARK.json: "
                        f"missing {sorted(set(units) - set(got))}, extra "
                        f"{sorted(set(got) - set(units))}, units "
                        f"{sorted(n for n in got if n in units and got[n] != units[n])}")
    return problems


def check_bare_copy() -> list[str]:
    """Without src/ beside it the benchmark must fail and print no result."""
    bare = ROOT / ".bench_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in BENCH.iterdir():
        if path.is_file():
            shutil.copy(path, bare / "bench")
    try:
        code, lines, _ = run(bare / "bench", "--workload", "pipeline")
    finally:
        shutil.rmtree(bare)
    if code == 0 or lines:
        return [f"bare copy: exit {code}, printed {lines[-1:]}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from bench/workloads.py")
    for workload in WORKLOADS:
        found = []
        for trace, corrupt in ((0, False), (1, False), (0, True)):
            found += check_run(workload, trace, spec, corrupt)
        print(f"{workload:<10} {'ok' if not found else 'FAILED'}", flush=True)
        problems += found
    found = check_bare_copy()
    print(f"{'bare copy':<10} {'ok' if not found else 'FAILED'}")
    problems += found
    for line in problems:
        print(f"  {line}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
