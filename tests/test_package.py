"""The package re-exports nothing: each public name has one import path,
its own module, and importing one module runs no other.  A diag-experiment
request loads no extender.  Plain result records are NamedTuples; the
records that callers pass to dataclasses.replace stay dataclasses."""

import dataclasses
import enum
import functools
import json
import subprocess
import sys
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from omegalab import codec, jsonio
from omegalab.codec import PartialFn, check_dense
from omegalab.config import ExperimentConfig
from omegalab.diag import PipelineReport, run_pipeline, verify_catch
from omegalab.extender import (AtomShuffle, FamilyMap, PartialInjection,
                               Permutation, ShuffleSearchReport, atoms_of,
                               build_permutation, check_compatible,
                               find_independent_shuffle)
from omegalab.finset import (CombinationSpec, Family, FinSet, bit_family,
                             is_independent, is_saturated)
from omegalab.generic import (IN, Condition, Demand, TargetGrid,
                              auto_schedule, build_generic,
                              check_all_combos_dense, extend_to_meet,
                              is_condition)

TINY = ExperimentConfig(builds=1, universe=16, rows=2, cols=2, value_bound=1,
                        threshold=1, depth=1, probes=1, probe_bound=1,
                        search_bound=16, samples=1, seed=3)


def _loaded_omegalab_modules(code):
    """The omegalab modules loaded after running code in a fresh process,
    so modules this suite already imported do not count."""
    code += ("\nimport sys\nprint(*(m for m in sys.modules"
             " if m.split('.')[0] == 'omegalab'))\n")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    return set(res.stdout.splitlines()[-1].split())


@pytest.mark.parametrize("module", ["omegalab", "omegalab.codec"])
def test_import_loads_only_the_named_module(module):
    assert _loaded_omegalab_modules(f"import {module}") == {"omegalab", module}


def test_jsonio_does_not_load_extender():
    assert "omegalab.extender" not in _loaded_omegalab_modules(
        "import omegalab.jsonio")


def test_diag_experiment_request_does_not_load_extender(tmp_path):
    config, out = tmp_path / "config.json", tmp_path / "report.json"
    config.write_text(json.dumps(TINY.to_json_obj()))
    loaded = _loaded_omegalab_modules(
        "import omegalab.cli\n"
        f"status = omegalab.cli.main(['diag-experiment', '--config', "
        f"{str(config)!r}, '--out', {str(out)!r}])\n"
        "assert status in (0, 1, 2), status")
    assert out.exists()
    assert "omegalab.diag" in loaded
    assert "omegalab.extender" not in loaded


# --- record contracts ---------------------------------------------------------

# One instance of each plain result record and its repr, in the
# Name(field=value, ...) form that the report digests hash.
PINNED_REPRS = {
    "DenseReport":
        "DenseReport(ok=True, missing_probe=None, probe_bound=4, "
        "search_bound=8)",
    "CatchReport":
        "CatchReport(ok=True, up_cases=(0,), down_cases=(3,), failures=())",
    "BuildRecord":
        "BuildRecord(index=0, run=GenericRun(universe=16, search_bound=16, "
        "condition=Condition(elements=(0, 3), grid=TargetGrid(rows=2, cols=2, "
        "value_bound=1, values=(0, 0, 0, 0, 0, 0, 0, 0))), "
        "steps=(StepRecord(demand=Demand(spec=CombinationSpec(pos=(), "
        "neg=()), probe_index=0, polarity='in'), witness=0), "
        "StepRecord(demand=Demand(spec=CombinationSpec(pos=(), neg=()), "
        "probe_index=0, polarity='out'), witness=1)), schedule_length=2, "
        "failure_kind=None, failure_detail=None))",
    "SampleRecord":
        "SampleRecord(index=0, moved=2, matches=(1,), up_checked=0, "
        "down_checked=0, violations=0)",
    "SamplingSummary":
        "SamplingSummary(samples=1, violations=0, up_checked=0, "
        "down_checked=0, moved_min=2, moved_max=2, moved_total=2, "
        "match_min=1, match_max=1, match_total=1)",
    "IndependenceReport":
        "IndependenceReport(ok=True, failing=None, size_found=1, threshold=1, "
        "depth=2)",
    "SaturationReport":
        "SaturationReport(ok=False, witness=((), (0, 3)), bound=2)",
    "ConditionReport": "ConditionReport(ok=False, witness=(0, 1, 1))",
    "MeetResult":
        "MeetResult(condition=Condition(elements=(0,), grid=TargetGrid("
        "rows=2, cols=2, value_bound=1, values=(0, 0, 0, 0, 0, 0, 0, 0))), "
        "witness=0)",
    "StepRecord":
        "StepRecord(demand=Demand(spec=CombinationSpec(pos=(), neg=()), "
        "probe_index=0, polarity='in'), witness=0)",
    "GenericRun":
        "GenericRun(universe=16, search_bound=16, condition=Condition("
        "elements=(0,), grid=TargetGrid(rows=2, cols=2, value_bound=1, "
        "values=(0, 0, 0, 0, 0, 0, 0, 0))), steps=(StepRecord(demand=Demand("
        "spec=CombinationSpec(pos=(), neg=()), probe_index=0, "
        "polarity='in'), witness=0),), schedule_length=1, failure_kind=None, "
        "failure_detail=None)",
    "ComboDensityReport":
        "ComboDensityReport(ok=False, failing_spec=CombinationSpec(pos=(), "
        "neg=(0,)), failing_probe=1, probe_bound=2, search_bound=16)",
    "CompatibilityReport": "CompatibilityReport(ok=False, witness=(0, 0))",
    "AtomDecomposition":
        "AtomDecomposition(n=4, atoms=(FinSet(n=4, mask=12), FinSet(n=4, "
        "mask=3)), signatures=(0, 1), action=(0, 1))",
}


@functools.cache
def _records():
    fam = bit_family(1, 16)
    grid = TargetGrid.constant(2, 2)
    run = build_generic([fam], grid, auto_schedule(1, 1)[:1], 16)
    report = run_pipeline(TINY)
    # the capture check asks a permutation only for images: 0 <-> 3
    swap = SimpleNamespace(n=16, apply=lambda x: {0: 3, 3: 0}.get(x, x))
    small = Family(4, (FinSet.from_members(4, [0, 1]),))
    g = FamilyMap.from_dict({0: 0})
    return {
        "DenseReport": check_dense(0b1010, 4, 8),
        "CatchReport": verify_catch(report.builds[0].run.condition, swap),
        "BuildRecord": report.builds[0],
        "SampleRecord": report.samples[0],
        "SamplingSummary": report.sampling,
        "IndependenceReport": is_independent(bit_family(2, 4), 1, 2),
        "SaturationReport": is_saturated(bit_family(2, 4), 2),
        "ConditionReport": is_condition((0, 1), grid),
        "MeetResult": extend_to_meet(
            Condition.empty(grid), Demand(CombinationSpec(), 0, IN), [fam],
            16),
        "StepRecord": run.steps[0],
        "GenericRun": run,
        "ComboDensityReport": check_all_combos_dense([fam], 2, 16, 1),
        "CompatibilityReport": check_compatible(
            PartialInjection(4, ((0, 2),)), g, small),
        "AtomDecomposition": atoms_of(g, small),
    }


@pytest.mark.parametrize("name", sorted(PINNED_REPRS))
def test_record_repr_is_pinned(name):
    rec = _records()[name]
    assert type(rec).__name__ == name and isinstance(rec, tuple)
    assert repr(rec) == PINNED_REPRS[name]


@pytest.mark.parametrize("name", sorted(PINNED_REPRS))
def test_record_refuses_assignment(name):
    rec = _records()[name]
    first = rec._fields[0]
    with pytest.raises(AttributeError):
        setattr(rec, first, None)
    with pytest.raises(AttributeError):
        rec.extra = None


def test_replaced_records_stay_dataclasses():
    report = run_pipeline(TINY)
    assert isinstance(report, PipelineReport)
    cut = dataclasses.replace(report, samples=report.samples[1:])
    assert cut.samples == () and cut.builds == report.builds

    assert dataclasses.replace(TINY, samples=5).samples == 5

    rep = find_independent_shuffle(
        PartialInjection.empty(4), FamilyMap.from_dict({0: 0}),
        bit_family(1, 4), threshold=1, depth=1, layers=1, budget=1, seed=0)
    assert isinstance(rep, ShuffleSearchReport)
    bumped = dataclasses.replace(rep, attempts=rep.budget + 1)
    assert bumped.attempts == 2 and bumped.exhausted == rep.exhausted


# --- one integer test ---------------------------------------------------------

class Level(enum.IntEnum):
    HIGH = 3


@given(st.one_of(st.integers(), st.integers(min_value=2 ** 64),
                 st.integers(max_value=-2 ** 64), st.booleans(), st.floats(),
                 st.text(), st.none(), st.just(Level.HIGH)))
def test_is_int_equals_the_predicate_it_replaced(x):
    # the copies each site wrote out before codec._is_int, both ways round
    assert codec._is_int(x) == (isinstance(x, int) and not isinstance(x, bool))
    assert (not codec._is_int(x)) == (not isinstance(x, int)
                                      or isinstance(x, bool))


def _config_obj(k):
    obj = TINY.to_json_obj()
    obj["K"] = k
    return obj


# per site: a reader given the bad value, and the message it refuses it with
_INT_SITES = [
    pytest.param(lambda x: jsonio.finset_from_obj({"N": 4, "members": [x]}),
                 "members must be a list of integers", id="jsonio._int_list"),
    pytest.param(lambda x: jsonio.family_from_obj({"N": x, "sets": []}),
                 "family key N must be an integer",
                 id="jsonio._universe_size"),
    pytest.param(lambda x: jsonio.grid_from_obj({"Ma": x, "Mk": 1, "V": 1,
                                                 "values": []}),
                 "grid key Ma must be a positive integer",
                 id="jsonio.grid_from_obj"),
    pytest.param(lambda x: jsonio.demand_from_obj(
                     {"pos": [], "neg": [], "probe": x, "polarity": IN}),
                 "demand probe must be an integer >= 0",
                 id="jsonio.demand_from_obj"),
    pytest.param(lambda x: ExperimentConfig.from_json_obj(_config_obj(x)),
                 "config key 'K' must be an integer",
                 id="ExperimentConfig.from_json_obj"),
    pytest.param(lambda x: PartialFn.from_entries([(x, 0, 0, 0)]),
                 "bad entry ({x!r}, 0, 0, 0)", id="PartialFn.from_entries"),
    pytest.param(lambda x: PartialInjection(4, ((x, 0),)),
                 "partial injection members must be integers",
                 id="extender.pairs"),
    pytest.param(lambda x: PartialInjection(x, ()),
                 "universe size must be an integer >= 1", id="extender.n"),
    pytest.param(lambda x: Permutation(2, (x, 0)),
                 "images must list each point of [0, n) exactly once",
                 id="extender.Permutation.images"),
    pytest.param(lambda x: build_permutation(
                     PartialInjection.empty(4),
                     FamilyMap.from_dict({0: 1, 1: 0}),
                     Family(4, (FinSet.from_members(4, [0, 1]),
                                FinSet.from_members(4, [2, 3]))),
                     AtomShuffle(((x, 0), (0, 1)))),
                 "each cell shuffle must permute 0..size-1",
                 id="extender.shuffle_check"),
]


@pytest.mark.parametrize("bad", [True, 1.0], ids=["bool", "float"])
@pytest.mark.parametrize("read, message", _INT_SITES)
def test_integer_sites_refuse_bools_and_floats(read, message, bad):
    # 1 and True, and 1 and 1.0, compare equal: each would pass a range
    # check, so only the type test refuses them
    with pytest.raises(ValueError) as caught:
        read(bad)
    assert str(caught.value) == message.format(x=bad)


def test_line_kinds_script(tmp_path):
    # the CI step's per-kind line count: a docstring opens the module and a
    # def's body, not a one-line body; the string after it is code
    source = tmp_path / "sample.py"
    source.write_text('"""Module\n\ndocstring."""\n\n# a comment\n'
                      'def f():\n    # its comment\n    """Doc."""\n'
                      '    return "x"  # trailing\n\n'
                      'def g(): return 1\n"""not a docstring"""\n')
    res = subprocess.run([sys.executable, "scripts/line_kinds.py",
                          str(source)], capture_output=True, text=True,
                         timeout=60)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-1].split() == ["total", "4", "4", "2",
                                                   "2"]
    # no path, or a directory: one usage line and exit 2, no traceback
    for args in ([], [str(tmp_path)]):
        res = subprocess.run([sys.executable, "scripts/line_kinds.py", *args],
                             capture_output=True, text=True, timeout=60)
        assert res.returncode == 2 and res.stdout == ""
        assert res.stderr.startswith("usage: ")
        assert len(res.stderr.splitlines()) == 1


def test_unused_names_script(tmp_path):
    # the CI step's unused-name gate: a def or class is used where some
    # file names it, as an identifier or a whole string; a docstring's words
    # are no use, and dunders and _cmd_* handlers are left out.  It exits 1
    # when it lists an unused name, 0 when it lists none
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "mod.py").write_text(
        'class Used:\n    def __init__(self): pass\n\n'
        '    def unused(self):\n        """Names traced, Used, unused."""\n\n'
        'def traced(): pass\n\ndef _cmd_run(args): pass\n\n'
        'def lonely(): pass\n')
    caller = tmp_path / "caller.py"
    caller.write_text('from pkg.mod import Used\nWRAPPED = ("traced",)\n')
    res = subprocess.run([sys.executable, "scripts/unused_names.py",
                          str(pkg), str(caller)], capture_output=True,
                         text=True, timeout=60)
    assert res.returncode == 1, res.stderr
    mod = pkg / "mod.py"
    assert res.stdout.splitlines() == [f"{mod}:4: unused", f"{mod}:11: lonely",
                                       "2 unused names",
                                       "0 defs share a name with another def"]
    # two classes that each define go, one of them called: the call counts
    # for both, so neither is unused, and both are listed as sharing a name
    (pkg / "two.py").write_text(
        'class A:\n    def go(self): pass\n\n'
        'class B:\n    def go(self): pass\n\nA().go()\nB()\n')
    res = subprocess.run([sys.executable, "scripts/unused_names.py",
                          str(pkg), str(caller)], capture_output=True,
                         text=True, timeout=60)
    assert res.returncode == 1, res.stderr
    two = pkg / "two.py"
    assert res.stdout.splitlines() == [f"{mod}:4: unused", f"{mod}:11: lonely",
                                       "2 unused names", f"{two}:2: go",
                                       f"{two}:5: go",
                                       "2 defs share a name with another def"]
    # once the caller names unused and lonely, nothing is listed: exit 0,
    # even though two defs still share a name
    caller.write_text('from pkg.mod import Used, lonely\n'
                      'WRAPPED = ("traced", "unused")\n')
    res = subprocess.run([sys.executable, "scripts/unused_names.py",
                          str(pkg), str(caller)], capture_output=True,
                         text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines() == ["0 unused names", f"{two}:2: go",
                                       f"{two}:5: go",
                                       "2 defs share a name with another def"]
    # no path, or a missing one: one usage line and exit 2, no traceback
    for args in ([], [str(tmp_path / "missing")]):
        res = subprocess.run([sys.executable, "scripts/unused_names.py",
                              *args], capture_output=True, text=True,
                             timeout=60)
        assert res.returncode == 2 and res.stdout == ""
        assert res.stderr.startswith("usage: ")
        assert len(res.stderr.splitlines()) == 1


def test_package_has_no_unused_name():
    # the CI step's own scan: every def and class of the engine has a caller
    # in src, bench or scripts
    res = subprocess.run([sys.executable, "scripts/unused_names.py",
                          "src/omegalab", "src", "bench", "scripts"],
                         capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stdout
    assert "0 unused names" in res.stdout.splitlines()


def test_deep_extension_demo_script():
    # the wall demo: the desk-scale bound exhausts at the third element,
    # and the deep bound finds exactly the predicted echo index
    res = subprocess.run([sys.executable, "scripts/deep_extension_demo.py"],
                         capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    lines = res.stdout.splitlines()
    assert "chain so far: [0, 3]" in lines
    assert "chain: [0, 3, 93405312003]" in lines
    predicted = [line for line in lines
                 if line.startswith("predicted third element")]
    assert len(predicted) == 1
    assert int(predicted[0].rsplit(": ", 1)[1].replace("_", "")) == \
        93_405_312_003
