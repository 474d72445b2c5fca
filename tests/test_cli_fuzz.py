"""Fuzz `extend-perm`, `close-orbit`, `rho-index`, `check-indep`,
`diag-experiment` and `build-generic` against the CLI's exit-status
contract.

Each case writes its input files (a family with a demand or a permutation,
a partial function, a family alone, an experiment config, or families with
a grid and a demand schedule), mostly
well-formed and sometimes mutated (wrong types, bools, negatives,
duplicates, out-of-range values, huge ints, ints past Python's 4 300-digit
int-string limit, missing keys), and runs `python -m omegalab` on them with
drawn integer flags, in a child process under a 1 GiB address-space cap
and a wall-clock timeout.  Every case must end in a documented status other
than 70, with no traceback; an error exit prints one stderr line whose
length does not grow with the input.  Sizes stay small (k <= 30 sets,
N <= 256 points, d <= 2, L <= 1, budget <= 2, layers <= 3; for check-indep
k <= 8 and N <= 2^12; for diag-experiment N <= 2^12 or N = 10^12, K <= 2,
Ma, Mk <= 8, q <= 2, samples <= 4; for build-generic N <= 2^12 or
N = 10^12, k <= 3 sets, grids <= 8 x 8 and probes <= 10^30, since decoding
a probe is work) so that no case is slow by its own meaning.  The layers
stay small because nothing bounds a closure's work yet: a permutation of
256 points can have an orbit far longer than any run.
"""

import json
import random
import re
import resource
import subprocess
import sys

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

ALLOWED_EXITS = {0, 1, 2, 64, 65, 66, 74}
# close-orbit checks no invariant, so it never has one to violate
CLOSE_ORBIT_EXITS = ALLOWED_EXITS - {1}
# rho-index neither checks an invariant nor degrades
RHO_INDEX_EXITS = ALLOWED_EXITS - {1, 2}
# check-indep never degrades: it passes, fails (1) or refuses its input
CHECK_INDEP_EXITS = ALLOWED_EXITS - {2}
# build-generic checks no invariant: it builds, degrades or refuses
BUILD_GENERIC_EXITS = ALLOWED_EXITS - {1}
# the longest error line a case may print: well above any fixed message,
# well below the echo of one of the huge ints drawn below
MAX_ERROR_LINE = 240
CASE_TIMEOUT_S = 20

HUGE = st.sampled_from([10 ** 12, (1 << 26) + 1, 10 ** 60, -(10 ** 60),
                        10 ** 1000, -(10 ** 300)])
JUNK = st.one_of(st.booleans(), st.none(), st.text(max_size=3),
                 st.floats(-2, 2), st.just([]), st.just({}))
# stands for an int past the int-string limit, which json.dumps refuses to
# write on Python 3.11 and later; dump() puts its digits in place
PAST_LIMIT = "<10**4300>"


def some_int(low, high):
    # in [low, high] two times in three, else huge
    return st.one_of(st.integers(low, high), st.integers(low, high), HUGE)


def mutated(value, draw):
    """The value, or one time in sixteen a huge int or a wrong type."""
    if draw(st.integers(0, 15)):
        return value
    return draw(st.one_of(HUGE, JUNK))


@st.composite
def family_obj(draw, max_n=256, max_k=29):
    n = draw(st.integers(1, max_n))
    k = draw(st.integers(0, max_k))  # one more with the duplicate below
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    if draw(st.booleans()):  # bit sets: a permuted g often induces a bijection
        sets = [[x for x in range(n) if x >> j & 1] for j in range(k)]
    else:
        p = draw(st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]))
        sets = [[x for x in range(n) if rng.random() < p] for _ in range(k)]
    if sets and draw(st.booleans()):
        sets.append(list(sets[rng.randrange(len(sets))]))  # a duplicate set
    if sets and not draw(st.integers(0, 7)):  # one stray member
        at = rng.randrange(len(sets))
        sets[at] = mutated(sets[at] + [draw(some_int(-2, n + 2))], draw)
    obj = {"N": mutated(n, draw), "sets": mutated(sets, draw)}
    if not draw(st.integers(0, 5)):
        obj["labels"] = mutated([f"s{j}" for j in range(len(sets))], draw)
    if not draw(st.integers(0, 15)):
        del obj[draw(st.sampled_from(["N", "sets"]))]
    return obj, n, len(sets)


def pair_list(draw, pairs, bound):
    out = [list(p) for p in pairs]
    if not draw(st.integers(0, 7)):  # one stray pair
        out.append([draw(some_int(-2, bound + 2)), draw(some_int(-2, bound + 2))])
    if out and not draw(st.integers(0, 7)):
        out[0] = mutated(out[0][:draw(st.integers(0, 3))], draw)
    return mutated(out, draw)


@st.composite
def demand_obj(draw, n, k):
    dom = draw(st.lists(st.integers(0, max(k - 1, 0)), unique=True,
                        max_size=k))
    image = dom if draw(st.booleans()) else draw(st.permutations(dom))
    xs = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=8))
    ys = xs if draw(st.integers(0, 3)) else \
        draw(st.lists(st.integers(0, n - 1), unique=True, min_size=len(xs),
                      max_size=len(xs)))
    obj = {"f": pair_list(draw, zip(xs, ys), n),
           "g": pair_list(draw, zip(dom, image), k)}
    if not draw(st.integers(0, 15)):
        del obj[draw(st.sampled_from(["f", "g"]))]
    return mutated(obj, draw)


@st.composite
def perm_obj(draw, n):
    # mostly a permutation of the family's universe, now and then of
    # another size, with a repeated image or one stray value
    size = n if draw(st.integers(0, 7)) else draw(st.integers(0, 260))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    images = list(range(size))
    rng.shuffle(images)
    if size > 1 and not draw(st.integers(0, 5)):  # a repeated image
        images[rng.randrange(size)] = images[rng.randrange(size)]
    if not draw(st.integers(0, 7)):  # one stray value
        at = rng.randrange(size + 1)
        images[at:at + 1] = [draw(some_int(-2, size + 2))]
    obj = {"N": mutated(size, draw), "images": mutated(images, draw)}
    if not draw(st.integers(0, 15)):
        del obj[draw(st.sampled_from(["N", "images"]))]
    return mutated(obj, draw)


@st.composite
def fn_obj(draw):
    # up to 6 entries [a, b, i, value] in low rows, now and then with a
    # negative, a layer outside {0, 1}, a repeated point, a huge int, an
    # int past the int-string limit or a wrong type in one field
    entries = [[draw(st.integers(0, 6)), draw(st.integers(0, 6)),
                draw(st.integers(0, 1)), draw(st.integers(0, 4))]
               for _ in range(draw(st.integers(0, 6)))]
    if entries and not draw(st.integers(0, 3)):  # a repeated point
        a, b, i, v = entries[draw(st.integers(0, len(entries) - 1))]
        entries.append([a, b, i, v + draw(st.integers(0, 1))])
    if entries and draw(st.integers(0, 1)):  # one field off
        entry = entries[draw(st.integers(0, len(entries) - 1))]
        at = draw(st.integers(0, 3))
        entry[at] = draw(st.one_of(
            st.integers(-3, -1), st.sampled_from([2, 3, -1]), HUGE, JUNK,
            st.just(PAST_LIMIT)))
    if entries and not draw(st.integers(0, 7)):  # a short or long entry
        entries[0] = entries[0][:draw(st.integers(0, 3))] or [0] * 5
    obj = {"entries": mutated(entries, draw)}
    if not draw(st.integers(0, 15)):
        obj = {"entry": entries}  # the key misspelled
    return mutated(obj, draw)


# diag-experiment config keys other than N and search_bound, each with the
# range of its well-formed draws.  The keys whose size is work (builds,
# probes, probes checked, samples) take no huge int: nothing bounds that
# work yet, so a huge count there is a slow case by its own meaning
CONFIG_RANGES = {"K": (1, 2), "Ma": (1, 8), "Mk": (1, 8), "V": (1, 4),
                 "t": (1, 64), "d": (0, 2), "q": (0, 2), "probe_bound": (1, 4),
                 "samples": (0, 4), "seed": (0, 10 ** 20)}
WORK_KEYS = {"K", "q", "probe_bound", "samples"}


@st.composite
def config_obj(draw):
    # N up to 2^12, or now and then 10^12 with every other size small
    n = 10 ** 12 if not draw(st.integers(0, 5)) else \
        draw(st.integers(1, 1 << 12))
    obj = {key: draw(st.integers(low, high))
           for key, (low, high) in CONFIG_RANGES.items()}
    obj["N"] = n
    obj["search_bound"] = draw(st.integers(1, min(n, 1 << 12)))
    if not draw(st.integers(0, 2)):  # one value a wrong type or negative
        key = draw(st.sampled_from(sorted(obj)))
        off = st.one_of(JUNK, st.integers(-3, 0))
        if key not in WORK_KEYS:  # or a huge int
            off = st.one_of(off, HUGE, st.just(PAST_LIMIT))
        obj[key] = draw(off)
    if not draw(st.integers(0, 7)):
        del obj[draw(st.sampled_from(sorted(obj)))]
    if not draw(st.integers(0, 7)):
        obj[draw(st.sampled_from(["n", "k", "extra"]))] = draw(some_int(0, 3))
    return mutated(obj, draw)


# what a build-generic case gets wrong, if anything (one input at most, a
# demand twice as often as the others)
GENERIC_FAULTS = ["none", "demand", "demand", "schedule", "families", "grid",
                  "bound"]


@st.composite
def generic_case(draw):
    """Families, a grid and a schedule file for build-generic, with a drawn
    --search-bound; one of them is now and then malformed."""
    fault = draw(st.sampled_from(GENERIC_FAULTS))
    n = 10 ** 12 if not draw(st.integers(0, 3)) else \
        draw(st.integers(1, 1 << 12))
    families, k = [], 0
    for _ in range(draw(st.integers(1, 2))):
        sets = [draw(st.lists(st.integers(0, min(n, 1 << 12) - 1),
                              max_size=6))
                for _ in range(draw(st.integers(0, 3 - k)))]
        k += len(sets)
        families.append({"N": n, "sets": sets})
    rows, cols = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    vbound = draw(st.integers(1, 3))
    grid = {"Ma": rows, "Mk": cols, "V": vbound,
            "values": [[m, c, i, draw(st.integers(0, vbound - 1))]
                       for m in range(rows) for c in range(cols)
                       for i in (0, 1)]}
    demands = [draw(demand_entry(k))
               for _ in range(draw(st.integers(int(fault == "demand"), 4)))]
    if fault == "demand":
        at = draw(st.integers(0, len(demands) - 1))
        demands[at] = draw(off_demand(demands[at], k))
    schedule = {"demands": demands}
    if fault == "schedule":
        schedule = draw(st.sampled_from(
            [{}, {"demand": demands}, {"demands": {}}, {"demands": None},
             [demands], {"demands": [None]}]))
    elif fault == "families":
        at = draw(st.integers(0, len(families) - 1))
        key = draw(st.sampled_from(["N", "sets"]))
        families[at][key] = draw(st.one_of(HUGE, JUNK, st.just(PAST_LIMIT)))
    elif fault == "grid":
        key = draw(st.sampled_from(["Ma", "Mk", "V", "values"]))
        grid[key] = draw(st.one_of(HUGE, JUNK, st.integers(-2, 0),
                                   st.just(grid["values"][1:])))
    top = min(n, 1 << 12)
    bound = draw(st.sampled_from([top, top, draw(st.integers(1, top))]))
    if fault == "bound":  # zero, negative, past N or malformed
        bound = draw(st.sampled_from(
            [0, -1, n + 1, 10 ** 40, "1.5", "x", "1" + "0" * 4300]))
    return {"families": families}, grid, schedule, str(bound)


@st.composite
def demand_entry(draw, k):
    # a spec over the k sets with disjoint pos and neg, a probe up to
    # 10^30 (decoding it is work) and a polarity
    pos = [j for j in draw(st.lists(st.integers(0, 2), unique=True)) if j < k]
    neg = [j for j in range(k) if j not in pos and draw(st.booleans())]
    return {"pos": pos, "neg": neg,
            "probe": draw(st.one_of(st.integers(0, 16), st.integers(0, 16),
                                    st.integers(0, 10 ** 30))),
            "polarity": draw(st.sampled_from(["in", "out"]))}


@st.composite
def off_demand(draw, obj, k):
    # one field off: an unknown, negative, huge or repeated index, pos and
    # neg overlapping, a bool or another wrong type, a negative probe, an
    # unknown polarity, or a missing key
    obj = dict(obj)
    key = draw(st.sampled_from(["pos", "neg", "probe", "polarity", "drop"]))
    if key == "drop":
        del obj[draw(st.sampled_from(sorted(obj)))]
    elif key == "probe":
        obj[key] = draw(st.one_of(st.integers(-3, -1), JUNK,
                                  st.just(-(10 ** 60)), st.just(PAST_LIMIT)))
    elif key == "polarity":
        obj[key] = draw(st.one_of(st.sampled_from(["IN", "", "both"]), JUNK))
    else:
        # one_of flattens nested one_ofs, so each kind of fault is drawn
        # from its own sample, not weighted by how many branches it has
        other = obj["neg" if key == "pos" else "pos"]
        stray = {"negative": st.integers(-3, -1),
                 "unknown": st.integers(k, k + 2), "huge": HUGE,
                 "past limit": st.just(PAST_LIMIT), "wrong type": JUNK,
                 "overlap": st.sampled_from(other or [0]),
                 "repeat": st.sampled_from(obj[key] or [0])}
        kind = draw(st.sampled_from(["field", *stray]))
        obj[key] = draw(JUNK) if kind == "field" else \
            obj[key] + [draw(stray[kind])]
    return obj


def dump(obj):
    return json.dumps(obj).replace(f'"{PAST_LIMIT}"', "1" + "0" * 4300)


BAD_ARGUMENTS = ["1" + "0" * 4300, "-" + "9" * 50, "x", "", "1.5"]


def drawn_flags(draw, ranges):
    flags = {}
    for name, (low, high) in ranges.items():
        flags[name] = str(draw(st.integers(low, high)))
        if not draw(st.integers(0, 11)):  # negative, huge or malformed
            flags[name] = draw(st.one_of(st.integers(-3, 0).map(str),
                                         st.sampled_from(BAD_ARGUMENTS)))
    return flags


@st.composite
def case(draw):
    family, n, k = draw(family_obj())
    demand = draw(demand_obj(n, k))
    return family, demand, drawn_flags(draw, {
        "--t": (1, 64), "--d": (0, 2), "--L": (0, 1), "--budget": (0, 2),
        "--seed": (-(10 ** 20), 10 ** 20)})


@st.composite
def indep_case(draw):
    family, _, _ = draw(family_obj(max_n=1 << 12, max_k=7))
    flags = drawn_flags(draw, {"--t": (1, 1 << 9), "--d": (0, 8)})
    if draw(st.booleans()):
        del flags["--d"]  # the depth defaults to every set
    return family, flags


@st.composite
def orbit_case(draw):
    family, n, _ = draw(family_obj())
    return family, draw(perm_obj(n)), drawn_flags(draw, {"--layers": (0, 3)})


def run_capped(args):
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
    return subprocess.run([sys.executable, "-m", "omegalab", *args],
                          capture_output=True, text=True, preexec_fn=cap,
                          timeout=CASE_TIMEOUT_S)


def assert_contract(res, allowed=ALLOWED_EXITS, verdicts=frozenset({0})):
    # a verdict status is one the command answers with its report
    assert res.returncode in allowed, res.stderr
    assert "Traceback" not in res.stderr
    if res.returncode not in verdicts:
        lines = res.stderr.splitlines()
        assert len(lines) == 1 and res.stderr.endswith("\n"), res.stderr
        assert len(lines[0]) <= MAX_ERROR_LINE, lines[0][:400]


@given(case())
@settings(max_examples=30, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
def test_extend_perm_keeps_the_exit_contract(tmp_path, drawn):
    family, demand, flags = drawn
    fam, dem = tmp_path / "fam.json", tmp_path / "demand.json"
    fam.write_text(json.dumps(family))
    dem.write_text(json.dumps(demand))
    args = ["extend-perm", "--family", str(fam), "--demand", str(dem)]
    for name, value in flags.items():
        args.append(f"{name}={value}")
    assert_contract(run_capped(args))


@given(orbit_case())
@settings(max_examples=20, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
def test_close_orbit_keeps_the_exit_contract(tmp_path, drawn):
    family, perm, flags = drawn
    fam, per = tmp_path / "fam.json", tmp_path / "perm.json"
    fam.write_text(json.dumps(family))
    per.write_text(json.dumps(perm))
    args = ["close-orbit", "--family", str(fam), "--perm", str(per)]
    for name, value in flags.items():
        args.append(f"{name}={value}")
    assert_contract(run_capped(args), CLOSE_ORBIT_EXITS)


@given(fn_obj())
@settings(max_examples=15, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
def test_rho_index_keeps_the_exit_contract(tmp_path, fn):
    path = tmp_path / "fn.json"
    path.write_text(dump(fn))
    res = run_capped(["rho-index", str(path)])
    assert_contract(res, RHO_INDEX_EXITS)
    if res.returncode == 0:
        assert re.fullmatch(r"\d+\n", res.stdout), res.stdout[:400]


@given(indep_case())
@settings(max_examples=15, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
def test_check_indep_keeps_the_exit_contract(tmp_path, drawn):
    family, flags = drawn
    path = tmp_path / "fam.json"
    path.write_text(dump(family))
    args = ["check-indep", "--family", str(path)]
    for name, value in flags.items():
        args.append(f"{name}={value}")
    assert_contract(run_capped(args), CHECK_INDEP_EXITS)


@given(config_obj())
@settings(max_examples=15, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
def test_diag_experiment_keeps_the_exit_contract(tmp_path, config):
    path = tmp_path / "config.json"
    path.write_text(dump(config))
    res = run_capped(["diag-experiment", "--config", str(path)])
    # a pass (0), a violation (1) and a degraded run (2) print the report on
    # stdout and a summary on stderr; every other status is one error line
    assert_contract(res, verdicts={0, 1, 2})
    if res.returncode in (0, 1, 2):
        assert json.loads(res.stdout)["ok"] == (res.returncode == 0)


@given(generic_case())
@settings(max_examples=15, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
def test_build_generic_keeps_the_exit_contract(tmp_path, drawn):
    families, grid, schedule, bound = drawn
    paths = []
    for name, obj in (("fams", families), ("eta", grid), ("sched", schedule)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(dump(obj))
    res = run_capped(["build-generic", "--families", str(paths[0]),
                      "--eta", str(paths[1]), "--demands", str(paths[2]),
                      f"--search-bound={bound}"])
    # a build (0) and a degraded run (2) print the report on stdout and one
    # summary line on stderr; every other status is one error line
    assert_contract(res, BUILD_GENERIC_EXITS)
    if res.returncode in (0, 2):
        report = json.loads(res.stdout)
        assert report["degraded"] == (res.returncode == 2)
