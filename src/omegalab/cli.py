"""Command-line front door.

Structured JSON goes to --out (or stdout when no --out is given); the
one-screen human summary always goes to stderr, so piping JSON stays clean.

Exit statuses: 0 pass, 1 invariant violation, 2 degraded/budget-exhausted,
64 usage, 65 bad data, 66 missing input, 70 internal error (any other
exception, reported in one line), 74 other I/O failure.

Only extend-perm and close-orbit import extender, inside their handlers, so
no other request loads it.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from typing import Any, Optional, Sequence

from .codec import SLOT_LIMIT, nth_partial_fn, partial_fn_index
from .config import ExperimentConfig
from .diag import run_pipeline
from .errors import (CardinalityMismatch, GridOverflow, IncompatiblePair,
                     InducedMapNotPermutation, SearchExhausted)
from .finset import bit_family, count_combinations, is_independent, is_saturated
from .generic import (auto_schedule, build_generic, check_all_combos_dense,
                      is_condition)
from .jsonio import (canonical_dumps, demand_to_obj, density_to_obj,
                     extension_demand_from_obj, families_from_obj,
                     family_from_obj, family_to_obj, finset_from_obj,
                     grid_from_obj, independence_to_obj, partial_fn_from_obj,
                     partial_fn_to_obj, permutation_from_obj, read_json,
                     run_to_obj, schedule_from_obj, write_json)

EX_OK = 0
EX_VIOLATION = 1
EX_DEGRADED = 2
EX_USAGE = 64
EX_DATA = 65
EX_NOINPUT = 66
EX_SOFTWARE = 70
EX_IOERR = 74


class _UsageError(Exception):
    pass


# an argument or path an error line echoes, quoted ("invalid int value:
# '...'", "No such file or directory: '...'") or bare ("unrecognized
# arguments: ...", a missing input): past 40 characters the line gives its
# head and length, so the line does not grow with it
_LONG_ARGUMENT = re.compile(r"'([^']{41,})'|([^\s']{41,})")
_LONG_NUMBER = re.compile(r"\d{41,}")


def _cut_argument(m: re.Match) -> str:
    quote, arg = ("'", m[1]) if m[1] is not None else ("", m[2])
    return f"{quote}{arg[:20]}...{quote} ({len(arg)} characters)"


def _cut(line: str) -> str:
    """The line with each number past 40 digits cut to its head and digit
    count, then each argument or path past 40 characters cut to its head
    and length, so an error line does not grow with what it echoes."""
    line = _LONG_NUMBER.sub(
        lambda m: f"{m[0][:20]}... ({len(m[0])} digits)", line)
    return _LONG_ARGUMENT.sub(_cut_argument, line)


class _Parser(argparse.ArgumentParser):
    # argparse would sys.exit(2); the exit-status contract wants 64.  The
    # refused argument is cut here, as an argument, before main's cut could
    # take its digits for a number
    def error(self, message):
        raise _UsageError(_LONG_ARGUMENT.sub(_cut_argument, message))


def _say(line: str) -> None:
    print(line, file=sys.stderr)


def _emit(obj: Any, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(canonical_dumps(obj))
    else:
        try:
            write_json(out, obj)
        except FileNotFoundError as e:  # an output path, not a missing input
            raise OSError(str(e)) from None
        _say(f"wrote {out}")


def _spec_str(spec) -> str:
    return f"pos={list(spec.pos)} neg={list(spec.neg)}"


def _independence_obj(rep) -> dict[str, Any]:
    return {**independence_to_obj(rep), "t": rep.threshold, "d": rep.depth}


def _say_independence(rep) -> None:
    if rep.ok:
        _say(f"independence: PASS (t={rep.threshold}, d={rep.depth}, "
             f"min size {rep.size_found})")
    else:
        _say(f"independence: FAIL ({_spec_str(rep.failing)}, "
             f"size {rep.size_found})")


def _failing_probe(rep) -> str:
    return f"FAIL ({_spec_str(rep.failing_spec)}, probe {rep.failing_probe})"


def _degraded(run) -> str:
    return (f"DEGRADED ({run.failure_kind} at demand {run.failed_at}, "
            f"|A| = {len(run.condition.elements)})")


# --- subcommand handlers ------------------------------------------------------

def _cmd_gen_family(args) -> int:
    family = bit_family(args.k, args.n)
    _emit(family_to_obj(family), args.out)
    _say(f"gen-family: {len(family.sets)} sets over [0, {family.n})")
    return EX_OK


def _cmd_check_indep(args) -> int:
    family = family_from_obj(read_json(args.family))
    depth = len(family.sets) if args.d is None else args.d
    rep = is_independent(family, args.t, depth)
    _emit(_independence_obj(rep), args.out)
    _say_independence(rep)
    return EX_OK if rep.ok else EX_VIOLATION


def _cmd_check_saturation(args) -> int:
    family = family_from_obj(read_json(args.family))
    rep = is_saturated(family, args.s)
    obj = {
        "ok": rep.ok, "s": rep.bound,
        "witness": None if rep.witness is None else
        {"p": sorted(rep.witness[0]), "q": sorted(rep.witness[1])},
    }
    _emit(obj, args.out)
    if rep.ok:
        _say(f"saturation: PASS (s={rep.bound})")
        return EX_OK
    p, q = rep.witness
    _say(f"saturation: FAIL (p={sorted(p)}, q={sorted(q)})")
    return EX_VIOLATION


def _cmd_rho(args) -> int:
    if args.m < 0:
        raise _UsageError("the index must be >= 0")
    sys.stdout.write(canonical_dumps(partial_fn_to_obj(nth_partial_fn(args.m))))
    return EX_OK


def _cmd_rho_index(args) -> int:
    index = partial_fn_index(partial_fn_from_obj(read_json(args.file)))
    # every index partial_fn_index admits lies below (w+2)!, w the diagonal
    # of slot SLOT_LIMIT: lift Python's int-to-str limit to its digits for
    # this one print
    w = (math.isqrt(8 * SLOT_LIMIT + 1) - 1) // 2
    digits = int(math.lgamma(w + 3) / math.log(10)) + 1
    old = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if old is not None:
        sys.set_int_max_str_digits(digits)
    try:
        print(index)
    finally:
        if old is not None:
            sys.set_int_max_str_digits(old)
    return EX_OK


def _cmd_extend_perm(args) -> int:
    from .extender import find_independent_shuffle
    family = family_from_obj(read_json(args.family))
    f, g = extension_demand_from_obj(read_json(args.demand), family.n)
    rep = find_independent_shuffle(f, g, family, args.t, args.d, args.L,
                                   args.budget, args.seed)
    obj = {
        "ok": rep.ok, "attempts": rep.attempts, "budget": rep.budget,
        "permutation": None if rep.permutation is None
        else list(rep.permutation.images),
        "closure": None if rep.closure is None else family_to_obj(rep.closure),
        "independence": None if rep.independence is None
        else _independence_obj(rep.independence),
        "best_attempt": rep.best_attempt,
        "best_min_size": rep.best_min_size,
    }
    _emit(obj, args.out)
    if rep.ok:
        _say(f"extend-perm: PASS (attempts: {rep.attempts}, closure sets: "
             f"{len(rep.closure.sets)})")
        return EX_OK
    _say(f"extend-perm: DEGRADED (budget {rep.budget} exhausted, best min "
         f"size {rep.best_min_size})")
    return EX_DEGRADED


def _cmd_close_orbit(args) -> int:
    from .extender import orbit_closure
    family = family_from_obj(read_json(args.family))
    perm = permutation_from_obj(read_json(args.perm))
    closed = orbit_closure(family, perm, args.layers)
    _emit(family_to_obj(closed), args.out)
    _say(f"close-orbit: {len(family.sets)} -> {len(closed.sets)} sets "
         f"(layers: {args.layers})")
    return EX_OK


def _parse_demand_source(value: str, prior_count: int):
    if value.startswith("auto:"):
        body = value[len("auto:"):]
        if not body.startswith("q=") or not body[2:].isdigit():
            raise _UsageError("--demands auto form must be auto:q=<count>")
        return auto_schedule(prior_count, int(body[2:]))
    return schedule_from_obj(read_json(value))


def _cmd_build_generic(args) -> int:
    families = families_from_obj(read_json(args.families))
    grid = grid_from_obj(read_json(args.eta))
    prior_count = sum(len(f.sets) for f in families)
    schedule = _parse_demand_source(args.demands, prior_count)
    run = build_generic(families, grid, schedule, args.search_bound)
    obj = {
        "universe": run.universe,
        "search_bound": run.search_bound,
        "schedule": [demand_to_obj(d) for d in schedule],
        "A": list(run.condition.elements),
        "decided_below": run.decided_below,
        **run_to_obj(run),
    }
    _emit(obj, args.out)
    if run.degraded:
        _say(f"build-generic: {_degraded(run)}")
        return EX_DEGRADED
    _say(f"build-generic: OK (|A| = {len(run.condition.elements)}, met "
         f"{len(run.steps)}/{run.schedule_length} demands)")
    return EX_OK


def _cmd_verify_star(args) -> int:
    families = families_from_obj(read_json(args.families))
    total = sum(len(f.sets) for f in families)
    depth = total if args.depth is None else args.depth
    rep = check_all_combos_dense(families, args.probe_bound,
                                 args.search_bound, depth)
    _emit({**density_to_obj(rep), "probe_bound": rep.probe_bound,
           "search_bound": rep.search_bound, "depth": depth}, args.out)
    specs = count_combinations(total, depth)
    if rep.ok:
        _say(f"star-density: PASS (specs: {specs}, probes: {rep.probe_bound})")
        return EX_OK
    _say(f"star-density: {_failing_probe(rep)}")
    return EX_VIOLATION


def _cmd_verify_starstar(args) -> int:
    members = finset_from_obj(read_json(args.set))
    grid = grid_from_obj(read_json(args.eta))
    rep = is_condition(members, grid)
    obj = {"ok": rep.ok,
           "witness": None if rep.witness is None else list(rep.witness)}
    _emit(obj, args.out)
    if rep.ok:
        _say(f"pair-match: PASS (|A| = {len(members)})")
        return EX_OK
    m, n, i = rep.witness
    _say(f"pair-match: FAIL (pair m={m}, n={n} unmatched on layer {i})")
    return EX_VIOLATION


def _cmd_diag_experiment(args) -> int:
    config = ExperimentConfig.from_json_obj(read_json(args.config))
    report = run_pipeline(config)
    _emit(report.to_json_obj(), args.out)
    for b in report.builds:
        if b.run.degraded:
            _say(f"build {b.index}: {_degraded(b.run)}")
        else:
            _say(f"build {b.index}: OK (|A| = {len(b.run.condition.elements)})")
    indep = report.independence
    _say_independence(indep)
    dens = report.density
    if dens.ok:
        _say(f"density: PASS (probes: {dens.probe_bound})")
    else:
        _say(f"density: {_failing_probe(dens)}")
    sampling = report.sampling
    cases = sampling.up_checked + sampling.down_checked
    # a pass over no capture case checked nothing: say so
    verdict = ("FAIL" if sampling.violations
               else "PASS" if cases else "PASS, vacuous")
    _say(f"theorem-shadow: {verdict} (π samples: {sampling.samples}, "
         f"cases checked: {cases}, violations: {sampling.violations})")
    if sampling.violations > 0:
        return EX_VIOLATION
    if report.degraded:
        return EX_DEGRADED
    if not (indep.ok and dens.ok):
        return EX_VIOLATION
    return EX_OK


# --- parser -------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="omegalab",
                     description="Bounded-universe engine for independent "
                                 "families, a canonical enumeration of finite "
                                 "partial functions, permutation extension, "
                                 "and generic constructions.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-family", help="emit the canonical bit family")
    p.add_argument("--k", type=int, required=True, help="number of sets")
    p.add_argument("--n", type=int, required=True, help="universe size")
    p.add_argument("--out", help="write JSON here instead of stdout")
    p.set_defaults(func=_cmd_gen_family)

    p = sub.add_parser("check-indep", help="exhaustive independence check")
    p.add_argument("--family", required=True)
    p.add_argument("--t", type=int, required=True, help="least combination size")
    p.add_argument("--d", type=int, default=None, help="combination depth cap")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_check_indep)

    p = sub.add_parser("check-saturation", help="small-demand saturation check")
    p.add_argument("--family", required=True)
    p.add_argument("--s", type=int, required=True, help="demand size cap")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_check_saturation)

    p = sub.add_parser("rho", help="print the m-th partial function")
    p.add_argument("m", type=int)
    p.set_defaults(func=_cmd_rho)

    p = sub.add_parser("rho-index",
                       help="read a partial-function JSON, print its index")
    p.add_argument("file")
    p.set_defaults(func=_cmd_rho_index)

    p = sub.add_parser("extend-perm",
                       help="complete a compatible pair, searching shuffles "
                            "for an independent closure")
    p.add_argument("--family", required=True)
    p.add_argument("--demand", required=True,
                   help="JSON with point pairs f and index pairs g")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--L", type=int, required=True, help="closure layers")
    p.add_argument("--budget", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_extend_perm)

    p = sub.add_parser("close-orbit",
                       help="close a family under a permutation's images")
    p.add_argument("--family", required=True)
    p.add_argument("--perm", required=True)
    p.add_argument("--layers", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_close_orbit)

    p = sub.add_parser("build-generic",
                       help="fold a demand schedule into a matching set")
    p.add_argument("--families", required=True)
    p.add_argument("--eta", required=True, help="target grid JSON")
    p.add_argument("--demands", required=True,
                   help="schedule JSON path, or auto:q=<probe count>")
    p.add_argument("--search-bound", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_build_generic)

    p = sub.add_parser("verify-star",
                       help="every combination dense in the enumeration")
    p.add_argument("--families", required=True)
    p.add_argument("--probe-bound", type=int, required=True)
    p.add_argument("--search-bound", type=int, required=True)
    p.add_argument("--depth", type=int, default=None)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_verify_star)

    p = sub.add_parser("verify-starstar",
                       help="exact pairwise-match check of a set on a grid")
    p.add_argument("--set", required=True)
    p.add_argument("--eta", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_verify_starstar)

    p = sub.add_parser("diag-experiment",
                       help="seeded end-to-end experiment with JSON report")
    p.add_argument("--config", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_diag_experiment)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as e:
        status, line = EX_USAGE, f"usage error: {e}"
    except FileNotFoundError as e:
        status, line = EX_NOINPUT, f"missing input: {e.filename or e}"
    except json.JSONDecodeError as e:
        status, line = EX_DATA, f"bad JSON: {e}"
    except (SearchExhausted, CardinalityMismatch,
            InducedMapNotPermutation) as e:
        status, line = EX_DEGRADED, f"degraded: {e}"
    except (IncompatiblePair, GridOverflow, ValueError) as e:
        status, line = EX_DATA, f"invalid data: {e}"
    except OSError as e:
        status, line = EX_IOERR, f"io error: {e}"
    except Exception as e:  # a fault of the program, never exit 1
        status = EX_SOFTWARE
        line = f"internal error: {type(e).__name__}: {' '.join(str(e).split())}"
    _say(_cut(line))
    return status


def script_entry() -> None:
    sys.exit(main())
