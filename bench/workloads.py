"""The four benchmark workloads.

Each workload turns (workload seed, op index) into one op's inputs with the
benchmark's own random stream, so the engine only ever sees generated
inputs.  An op has four steps, of which only `run` is timed:

- `make_input(i)`: generate the inputs of op i;
- `run(inp)`: the call into the engine (or, for cli-cold, the child process);
- `collect(inp, raw)`: turn the raw result into the output that is checked;
- `check(i, inp, out)`: return None when the output is correct, else why not.

`extra_checks` adds checks that are not tied to one timed op (the stored
report digests); each counts as one more attempted op.  `corrupt` damages
the first op's output so the self-test can see a wrong output being counted.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import random
import resource
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter
from typing import Any, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN = Path(__file__).resolve().parent / "golden.json"
CLI_CHILD = Path(__file__).resolve().parent / "cli_child.py"

# tests/test_acceptance.py::ACCEPTANCE_CONFIG without its seed
ACCEPTANCE = dict(builds=4, universe=1 << 20, rows=16, cols=16, value_bound=4,
                  threshold=4, depth=4, probes=4, probe_bound=16,
                  search_bound=1 << 20, samples=200)
ACCEPTANCE_SEED = 20260816
TINY_PIPELINE = dict(builds=2, universe=1 << 12, rows=8, cols=8, value_bound=4,
                     threshold=2, depth=2, probes=2, probe_bound=4,
                     search_bound=1 << 12, samples=4)
DEFAULT_SEED = 1
GOLDEN_OPS = 2  # ops of the default seed's stream whose digests are stored

# exit statuses documented in omegalab.cli
EX_OK, EX_VIOLATION, EX_DEGRADED = 0, 1, 2
CHILD_TIMEOUT_S = 120


def import_engine() -> float:
    """Import omegalab from this checkout's src/; returns the import time."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    started = perf_counter()
    import omegalab.cli  # noqa: F401  (imports every layer)
    elapsed = perf_counter() - started
    import omegalab
    if Path(omegalab.__file__).resolve().parent != SRC / "omegalab":
        raise ImportError(f"omegalab imported from {omegalab.__file__}, "
                          f"not from {SRC}")
    return elapsed


def canonical_report(report) -> bytes:
    from omegalab.jsonio import canonical_dumps
    return canonical_dumps(report.to_json_obj()).encode()


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Workload:
    name = ""
    tail_pct = 90

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.tiny = tiny
        self.traced = False
        self.tracer = None

    def rng(self, i: int) -> random.Random:
        return random.Random(f"{self.name}/{self.seed}/{i}")

    def warmup_inputs(self) -> list[Any]:
        return [self.make_input(-1)]

    def setup(self) -> float:
        """Import the engine and fill its lazy caches; returns import time."""
        import_s = import_engine()
        for inp in self.warmup_inputs():
            self.run(inp)
        return import_s

    def make_input(self, i: int) -> Any:
        raise NotImplementedError

    def run(self, inp: Any) -> Any:
        raise NotImplementedError

    def collect(self, inp: Any, raw: Any) -> Any:
        return raw

    def check(self, i: int, inp: Any, out: Any) -> Optional[str]:
        raise NotImplementedError

    def extra_checks(self) -> list[tuple[str, Optional[str]]]:
        return []

    def corrupt(self, out: Any) -> Any:
        raise NotImplementedError

    def peak_rss_mb(self, exclude_mb: float = 0.0) -> float:
        """This process's peak RSS, less `exclude_mb` of the benchmark's own
        memory that was resident throughout."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024 - exclude_mb

    def finish(self) -> None:
        pass


# --- pipeline ------------------------------------------------------------------

def pipeline_config(config_seed: int, tiny: bool):
    from omegalab.config import ExperimentConfig
    params = TINY_PIPELINE if tiny else ACCEPTANCE
    return ExperimentConfig(seed=config_seed, **params)


class Pipeline(Workload):
    """run_pipeline at the acceptance config, one config seed per op, warm."""

    name = "pipeline"
    tail_pct = 85

    def make_input(self, i: int):
        return pipeline_config(self.rng(i).getrandbits(32), self.tiny)

    def run(self, cfg):
        from omegalab import diag
        return diag.run_pipeline(cfg)

    def check(self, i, cfg, report):
        if report.sampling.violations != 0:
            return f"{report.sampling.violations} capture violations"
        if i == 0 and canonical_report(self.run(cfg)) != canonical_report(report):
            return "a repeated config seed gave different report bytes"
        return None

    def extra_checks(self):
        if self.tiny:
            return []
        golden = json.loads(GOLDEN.read_text())["pipeline"]
        results = []
        for seed, digest in golden.items():
            cfg = pipeline_config(int(seed), self.tiny)
            got = sha256(canonical_report(self.run(cfg)))
            why = None if got == digest else f"report digest {got} != stored {digest}"
            results.append((f"golden report, config seed {seed}", why))
        return results

    def corrupt(self, report):
        return dataclasses.replace(report, samples=report.samples[1:])


def golden_digests() -> dict[str, str]:
    """Digests of the reports whose bytes every pipeline run re-checks."""
    wl = Pipeline(DEFAULT_SEED)
    import_engine()
    seeds = [ACCEPTANCE_SEED] + [wl.make_input(i).seed for i in range(GOLDEN_OPS)]
    return {str(s): sha256(canonical_report(wl.run(pipeline_config(s, False))))
            for s in seeds}


# --- codec-deep ----------------------------------------------------------------

# One cycle of op slots, repeated; the seed picks values inside each slot, so
# every run does nearly the same mix of work.  The size that sets an op's cost
# (the exponent, `above`, the search bound) is spread evenly over the slot's
# range: cycle c takes the point frac(offset + c * golden ratio) of it, with
# a seeded offset per slot, so every run covers each range alike and the
# seed's draws do not tilt a run toward cheap or dear ops.
#   ("rt", lo, hi): unrank then rank an index in [10^lo, 10^hi)
#   ("lei", bits, lo, hi): least extension above an index in [lo, hi) at
#       search bound 2^bits, for the next probe of LEI_PROBES
#   ("bg", lo, hi, steps): build_generic over an empty family at a search
#       bound in [10^lo, 10^hi), with `steps` "in" demands
DEEP_SLOTS = (
    ("rt", 7, 15), ("lei", 20, 0, 1000), ("bg", 12, 20, 2),
    ("rt", 15, 25), ("lei", 20, 1000, 10_000), ("lei", 40, 0, 1000),
    ("rt", 25, 35), ("lei", 20, 10_000, 30_000), ("bg", 20, 30, 3),
    ("rt", 35, 45), ("lei", 40, 1000, 10_000), ("rt", 45, 61),
    ("lei", 40, 10_000, 30_000), ("bg", 30, 41, 3),
)
TINY_DEEP_SLOTS = (("rt", 7, 12), ("lei", 20, 0, 500), ("bg", 12, 14, 2))
# Indices of two- and three-entry probes.  A one-entry probe has so many
# extensions below `above` that one search takes seconds and 100 MB, which
# would make a run's time and peak memory hinge on whether the seed drew one.
LEI_PROBES = (3, 9, 5, 11, 7, 16, 13, 17)
GOLDEN_FRACTION = 0.6180339887498949
BG_OUTCOMES = (None, "search-exhausted", "grid-overflow")


class CodecDeep(Workload):
    """Counting-path rank/unrank, least-extension searches, deep chains.

    One op is one pass over the slots: the slots' costs differ by a factor
    of a hundred, so the latency of a single slot call would rest on which
    slots a run's median and tail happen to fall between.
    """

    name = "codec-deep"
    tail_pct = 80

    def __init__(self, seed, tiny=False):
        super().__init__(seed, tiny)
        offsets = random.Random(f"{self.name}/{seed}/offsets")
        self.probe_offset = offsets.randrange(len(LEI_PROBES))
        self.slot_offsets = [offsets.random() for _ in self.slots]

    @property
    def slots(self):
        return TINY_DEEP_SLOTS if self.tiny else DEEP_SLOTS

    def make_input(self, i):
        n = len(self.slots)
        return [self.slot_input(i * n + k) for k in range(n)]

    def slot_input(self, i):
        from omegalab import codec
        from omegalab.finset import CombinationSpec
        from omegalab.generic import IN, Demand, TargetGrid
        k = i % len(self.slots)
        slot = self.slots[k]
        cycle = i // len(self.slots)
        u = (self.slot_offsets[k] + cycle * GOLDEN_FRACTION) % 1.0

        def spread(lo, hi):  # the point u of range(lo, hi)
            return lo + int(u * (hi - lo))

        rng = self.rng(i)
        kind = slot[0]
        if kind == "rt":
            e = spread(slot[1], slot[2])
            return ("rt", rng.randrange(10 ** e, 10 ** (e + 1)))
        if kind == "lei":
            probe_no = LEI_PROBES[(cycle + self.probe_offset) % len(LEI_PROBES)]
            probe = codec.nth_partial_fn(probe_no)
            return ("lei", probe, spread(slot[2], slot[3]), 1 << slot[1])
        bound = 10 ** spread(slot[1], slot[2])
        grid = TargetGrid.random(4, 4, 2, random.Random(rng.getrandbits(32)))
        schedule = tuple(Demand(CombinationSpec(), rng.randrange(8), IN)
                         for _ in range(slot[3]))
        return ("bg", grid, schedule, bound)

    def run(self, inp):
        return [self.run_slot(x) for x in inp]

    def run_slot(self, inp):
        from omegalab import codec, generic
        from omegalab.finset import Family
        kind = inp[0]
        if kind == "rt":
            return codec.partial_fn_index(codec.nth_partial_fn(inp[1]))
        if kind == "lei":
            _, probe, above, bound = inp
            return codec.least_extension_index(probe, above, bound)
        _, grid, schedule, bound = inp
        return generic.build_generic([Family(bound, ())], grid, schedule, bound)

    def check(self, i, inp, out):
        for k, (slot_inp, slot_out) in enumerate(zip(inp, out)):
            why = self.check_slot(slot_inp, slot_out)
            if why is not None:
                return f"slot {k}: {why}"
        return None

    def check_slot(self, inp, out):
        from omegalab import codec, generic
        kind = inp[0]
        if kind == "rt":
            return None if out == inp[1] else f"rank(unrank({inp[1]})) = {out}"
        if kind == "lei":
            _, probe, above, bound = inp
            if out is None:
                return f"no extension found above {above} below {bound}"
            if not above < out < bound:
                return f"extension index {out} outside ({above}, {bound})"
            if not codec.nth_partial_fn(out).extends(probe):
                return f"function {out} does not extend the probe"
            mask = probe.raw_code
            for k in range(above + 1, out):
                if codec.raw_code_of_index(k) & mask == mask:
                    return f"{k} extends the probe and is below {out}"
            return None
        _, grid, _, _ = inp
        if out.failure_kind not in BG_OUTCOMES:
            return f"unexpected failure kind {out.failure_kind!r}"
        rep = generic.is_condition(out.condition.elements, grid)
        return None if rep.ok else f"chain pair {rep.witness} has no match"

    def corrupt(self, out):
        return [out[0] + 1] + out[1:]  # slot 0 is a round trip: a wrong rank


# --- shuffle -------------------------------------------------------------------

class Shuffle(Workload):
    """find_independent_shuffle on a 12-set closure with a small budget."""

    name = "shuffle"
    tail_pct = 75
    depth, layers, budget = 4, 2, 2

    def setup(self):
        import_s = import_engine()
        from omegalab.extender import FamilyMap, PartialInjection
        from omegalab.finset import bit_family
        if self.tiny:
            k, n, self.pass_t, self.fail_t = 3, 1 << 10, 8, 1 << 10
        else:
            # closure min sizes land near 930-950: 900 passes on the first
            # attempt, 960 exhausts the budget
            k, n, self.pass_t, self.fail_t = 4, 1 << 14, 900, 960
        self.family = bit_family(k, n)
        self.g = FamilyMap.from_dict({0: 1, 1: 0})
        self.f = PartialInjection.empty(n)
        for inp in self.warmup_inputs():
            self.run(inp)
        return import_s

    def warmup_inputs(self):
        return [(self.fail_t, 0), (self.pass_t, 0)]

    def make_input(self, i):
        # one passing search in every block of four, at a seeded position
        block = random.Random(f"{self.name}/{self.seed}/block{i // 4}")
        passing = i % 4 == block.randrange(4)
        return (self.pass_t if passing else self.fail_t, self.rng(i).getrandbits(32))

    def run(self, inp):
        from omegalab import extender
        threshold, seed = inp
        return extender.find_independent_shuffle(
            self.f, self.g, self.family, threshold, self.depth, self.layers,
            self.budget, seed)

    def check(self, i, inp, rep):
        from omegalab.finset import is_independent
        threshold = inp[0]
        if not rep.ok:
            if rep.exhausted and rep.attempts == rep.budget == self.budget:
                return None
            return f"failed search: exhausted={rep.exhausted}, attempts={rep.attempts}"
        if not 1 <= rep.attempts <= self.budget:
            return f"successful search reports {rep.attempts} attempts"
        d = min(self.depth, len(rep.closure.sets))
        if not is_independent(rep.closure, threshold, d).ok:
            return "closure of a successful search is not independent"
        for j, j2 in self.g.pairs:
            if rep.permutation.apply_set(self.family.sets[j]) != self.family.sets[j2]:
                return f"permutation does not map set {j} onto set {j2}"
        return None

    def corrupt(self, rep):
        return dataclasses.replace(rep, attempts=rep.budget + 1)


# --- cli-cold ------------------------------------------------------------------

class CliCold(Workload):
    """`python -m omegalab diag-experiment`, one fresh process per request."""

    name = "cli-cold"
    tail_pct = 75

    def __init__(self, seed, tiny=False):
        super().__init__(seed, tiny)
        self.workdir = ROOT / ".bench_out" / f"cli-cold-{os.getpid()}"
        self.child_rss_kb = 0
        self.expected: dict[int, tuple[bytes, int]] = {}

    def setup(self):
        import_s = import_engine()
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        for inp in self.warmup_inputs():
            self.run(inp)
        self.child_rss_kb = 0  # only timed requests count
        return import_s

    def make_input(self, i):
        cfg = pipeline_config(self.rng(i).getrandbits(32), self.tiny)
        path = self.workdir / f"config-{i}.json"
        path.write_text(json.dumps(cfg.to_json_obj()))
        out = self.workdir / f"report-{i}.json"
        out.unlink(missing_ok=True)
        trace_out = self.workdir / f"trace-{i}.json"
        return cfg, path, out, trace_out, i

    def run(self, inp):
        _, path, out, trace_out, i = inp
        args = ["diag-experiment", "--config", str(path), "--out", str(out)]
        if self.traced:
            cmd = [sys.executable, str(CLI_CHILD), str(trace_out), str(i)] + args
        else:
            cmd = [sys.executable, "-m", "omegalab"] + args
        proc = subprocess.Popen(cmd, env=self.env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.child_rss_kb = max(self.child_rss_kb, usage.ru_maxrss)
        return proc.returncode

    def collect(self, inp, code):
        _, _, out, trace_out, _ = inp
        if self.traced and trace_out.exists():
            self.tracer.merge(json.loads(trace_out.read_text()))
            trace_out.unlink()
        data = out.read_bytes() if out.exists() else b""
        out.unlink(missing_ok=True)
        return code, data

    def expected_output(self, i, cfg) -> tuple[bytes, int]:
        if i not in self.expected:
            from omegalab import diag
            report = diag.run_pipeline(cfg)
            if report.sampling.violations > 0:
                code = EX_VIOLATION
            elif report.degraded:
                code = EX_DEGRADED
            elif not (report.independence.ok and report.density.ok):
                code = EX_VIOLATION
            else:
                code = EX_OK
            self.expected[i] = (canonical_report(report), code)
        return self.expected[i]

    def check(self, i, inp, out):
        code, data = out
        want_data, want_code = self.expected_output(i, inp[0])
        if code != want_code:
            return f"exit status {code}, documented status is {want_code}"
        if data != want_data:
            return "written report differs from the in-process report"
        return None

    def corrupt(self, out):
        code, data = out
        return code, data.replace(b"{", b"[", 1)

    def peak_rss_mb(self, exclude_mb=0.0):
        return self.child_rss_kb / 1024  # the request processes only

    def finish(self):
        for path in self.workdir.glob("*"):
            path.unlink()
        self.workdir.rmdir()


WORKLOADS = {wl.name: wl for wl in (Pipeline, CodecDeep, Shuffle, CliCold)}
