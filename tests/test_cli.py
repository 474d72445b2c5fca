"""End-to-end checks of the command-line interface via subprocess.

Nearly everything here runs `python -m omegalab ...` exactly as a user
would, and pins the documented exit statuses: 0 pass, 1 violation,
2 degraded, 64 usage, 65 bad data, 66 missing input, 70 internal error,
74 other I/O failure.
"""

import contextlib
import hashlib
import json
import random
import resource
import subprocess
import sys
import time

import pytest

from omegalab import cli, diag
from omegalab.codec import (SLOT_LIMIT, cantor_pair, cantor_unpair,
                            count_functional_below, index_of_raw_code,
                            point_code)
from omegalab.config import ExperimentConfig
from omegalab.jsonio import canonical_dumps, write_json

SMOKE_CONFIG = {"K": 2, "N": 4096, "Ma": 8, "Mk": 8, "V": 1, "t": 2, "d": 2,
                "q": 2, "probe_bound": 2, "search_bound": 4096, "samples": 5,
                "seed": 7}


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "omegalab", *args],
                          capture_output=True, text=True)


@contextlib.contextmanager
def no_int_str_limit():
    # lets this process convert the long indices it compares, where Python
    # limits int-to-str conversion
    old = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if old is not None:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if old is not None:
            sys.set_int_max_str_digits(old)


def zero_grid_obj(rows=4, cols=4):
    values = [[m, k, i, 0] for m in range(rows) for k in range(cols)
              for i in (0, 1)]
    return {"Ma": rows, "Mk": cols, "V": 1, "values": values}


@pytest.fixture()
def workdir(tmp_path):
    return tmp_path


class TestRho:
    def test_exact_output(self):
        res = run_cli("rho", "3")
        assert res.returncode == 0
        assert res.stdout == '{"entries":[[0,0,0,0],[0,0,1,0]]}\n'

    def test_empty_function(self):
        res = run_cli("rho", "0")
        assert res.returncode == 0
        assert res.stdout == '{"entries":[]}\n'

    def test_negative_index_is_usage_error(self):
        assert run_cli("rho", "--", "-5").returncode == 64

    def test_index_roundtrip(self, workdir):
        fn_file = workdir / "fn.json"
        res = run_cli("rho", "7")
        fn_file.write_text(res.stdout)
        back = run_cli("rho-index", str(fn_file))
        assert back.returncode == 0
        assert back.stdout.strip() == "7"

    def test_index_of_unrepresentable_entry(self, workdir):
        fn_file = workdir / "huge.json"
        write_json(str(fn_file), {"entries": [[10 ** 8, 0, 0, 0]]})
        res = run_cli("rho-index", str(fn_file))
        assert res.returncode == 65

    def test_index_past_the_int_str_limit(self, workdir):
        # slot 1 412 040 lies below SLOT_LIMIT; its index has 4 695 digits
        fn_file = workdir / "fn.json"
        write_json(str(fn_file), {"entries": [[20, 20, 0, 0]]})
        res = run_cli("rho-index", str(fn_file))
        assert res.returncode == 0, res.stderr
        slot = cantor_pair(point_code(20, 20, 0), 0)
        expected = index_of_raw_code(1 << slot)
        with no_int_str_limit():
            assert int(res.stdout) == expected
            assert len(str(expected)) == 4695

    def test_largest_admitted_slot_prints_fast(self, workdir, capsys):
        # a one-entry function at slot SLOT_LIMIT ranks at the count of the
        # codes below that slot, a 14 389-digit index
        code, v = cantor_unpair(SLOT_LIMIT)
        a, b = cantor_unpair(code >> 1)
        assert cantor_pair(point_code(a, b, code & 1), v) == SLOT_LIMIT
        fn_file = workdir / "fn.json"
        write_json(str(fn_file), {"entries": [[a, b, code & 1, v]]})
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        started = time.perf_counter()
        assert cli.main(["rho-index", str(fn_file)]) == 0
        assert time.perf_counter() - started < 1.0
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
        with no_int_str_limit():
            assert int(capsys.readouterr().out) == \
                count_functional_below(SLOT_LIMIT)

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                        reason="no int-to-str limit in this Python")
    def test_rho_refuses_an_index_past_the_int_str_limit(self):
        # decoding such an index walks O(w^2) positions: not lifted here.
        # The usage line gives the argument's head and length, not all of it
        res = run_cli("rho", "1" * 4301)
        assert res.returncode == 64
        assert len(res.stderr.encode()) < 200
        assert res.stderr == ("usage error: argument m: invalid int value: "
                              f"'{'1' * 20}...' (4301 characters)\n")

    def test_long_refused_argument_is_cut_in_the_usage_line(self, capsys):
        assert cli.main(["rho", "x" * 5000]) == 64
        err = capsys.readouterr().err
        assert len(err.encode()) < 200
        assert err.endswith("'xxxxxxxxxxxxxxxxxxxx...' (5000 characters)\n")
        # a short one is echoed whole
        assert cli.main(["rho", "x" * 40]) == 64
        assert f"'{'x' * 40}'" in capsys.readouterr().err
        # argparse lists extra arguments bare, without quotes
        assert cli.main(["rho", "1", "y" * 3000]) == 64
        err = capsys.readouterr().err
        assert len(err.encode()) < 200
        assert err == ("usage error: unrecognized arguments: "
                       f"{'y' * 20}... (3000 characters)\n")
        assert cli.main(["rho", "1", "y" * 40]) == 64
        assert capsys.readouterr().err.endswith(f"arguments: {'y' * 40}\n")

    def test_bad_json_is_data_error(self, workdir):
        bad = workdir / "bad.json"
        bad.write_text("{not json")
        assert run_cli("rho-index", str(bad)).returncode == 65

    def test_deeply_nested_json_is_data_error(self, workdir):
        deep = workdir / "deep.json"
        deep.write_text("[" * 100_000)
        res = run_cli("check-indep", "--family", str(deep), "--t", "1")
        assert res.returncode == 65
        assert res.stderr.count("\n") == 1
        assert "nested too deeply" in res.stderr


class TestGenFamilyAndChecks:
    def test_family_contents(self, workdir):
        out = workdir / "fam.json"
        res = run_cli("gen-family", "--k", "2", "--n", "8",
                      "--out", str(out))
        assert res.returncode == 0
        assert "wrote" in res.stderr
        obj = json.loads(out.read_text())
        assert obj["N"] == 8
        assert obj["sets"] == [[1, 3, 5, 7], [2, 3, 6, 7]]
        assert obj["labels"] == ["bit0", "bit1"]

    def test_independence_pass_and_fail(self, workdir):
        fam = workdir / "fam.json"
        run_cli("gen-family", "--k", "3", "--n", "64", "--out", str(fam))
        good = run_cli("check-indep", "--family", str(fam), "--t", "8")
        assert good.returncode == 0
        assert "independence: PASS" in good.stderr
        assert json.loads(good.stdout)["size_found"] == 8
        bad = run_cli("check-indep", "--family", str(fam), "--t", "9")
        assert bad.returncode == 1
        assert "independence: FAIL" in bad.stderr

    def test_saturation_pass_and_fail(self, workdir):
        fam = workdir / "triangle.json"
        write_json(str(fam), {"N": 3, "sets": [[0, 1], [1, 2], [0, 2]]})
        good = run_cli("check-saturation", "--family", str(fam), "--s", "1")
        assert good.returncode == 0
        bad = run_cli("check-saturation", "--family", str(fam), "--s", "2")
        assert bad.returncode == 1
        assert json.loads(bad.stdout)["witness"] == {"p": [], "q": [0, 1]}

    def test_deep_saturation_witness(self, workdir):
        # a witness 1 100 points deep, past Python's recursion limit
        fam = workdir / "deep.json"
        write_json(str(fam), {"N": 1500, "sets": [[1099]]})
        res = run_cli("check-saturation", "--family", str(fam), "--s", "1200")
        assert res.returncode == 1
        assert json.loads(res.stdout)["witness"] == {
            "p": [], "q": list(range(1100))}

    def test_missing_family_file(self):
        res = run_cli("check-indep", "--family", "/nonexistent/f.json",
                      "--t", "2")
        assert res.returncode == 66

    def test_out_path_in_missing_directory_is_io_error(self, workdir):
        # the input is there; the output cannot be written
        fam = workdir / "fam.json"
        write_json(str(fam), {"N": 8, "sets": [[1]]})
        out = workdir / "missing" / "x.json"
        res = run_cli("check-indep", "--family", str(fam), "--t", "1",
                      "--out", str(out))
        assert res.returncode == 74
        assert res.stderr.startswith("io error: ")
        # the line names the path, cut to its head and length past 40
        # characters as any echoed argument is
        path = str(out)
        named = path if len(path) <= 40 else \
            f"'{path[:20]}...' ({len(path)} characters)"
        assert res.stderr.count("\n") == 1 and named in res.stderr
        assert res.stdout == ""


class TestExtendPerm:
    def make_inputs(self, workdir, n=8, k=2, f_pairs=()):
        fam = workdir / "fam.json"
        run_cli("gen-family", "--k", str(k), "--n", str(n), "--out", str(fam))
        demand = workdir / "demand.json"
        write_json(str(demand),
                   {"f": [list(p) for p in f_pairs], "g": [[0, 1], [1, 0]]})
        return fam, demand

    def test_successful_extension(self, workdir):
        fam, demand = self.make_inputs(workdir)
        res = run_cli("extend-perm", "--family", str(fam), "--demand",
                      str(demand), "--t", "2", "--d", "2", "--L", "1",
                      "--budget", "20", "--seed", "5")
        assert res.returncode == 0
        obj = json.loads(res.stdout)
        assert obj["ok"] is True
        images = obj["permutation"]
        assert sorted(images) == list(range(8))
        # the swap demand: images of bit0-members land in bit1 exactly
        assert sorted(images[x] for x in [1, 3, 5, 7]) == [2, 3, 6, 7]

    def test_incompatible_demand_is_data_error(self, workdir):
        fam, demand = self.make_inputs(workdir, f_pairs=[(0, 1)])
        res = run_cli("extend-perm", "--family", str(fam), "--demand",
                      str(demand), "--t", "2", "--d", "2", "--L", "1",
                      "--budget", "20", "--seed", "5")
        assert res.returncode == 65

    @pytest.mark.parametrize("budget", ["0", "5"])
    def test_cardinality_mismatch_is_degraded(self, workdir, budget):
        # the pair is refused before any attempt, so a zero budget refuses
        # it too, instead of reporting an exhausted search
        fam = workdir / "skew.json"
        write_json(str(fam), {"N": 5, "sets": [[0, 1], [2, 3, 4]]})
        demand = workdir / "demand.json"
        write_json(str(demand), {"f": [], "g": [[0, 1], [1, 0]]})
        res = run_cli("extend-perm", "--family", str(fam), "--demand",
                      str(demand), "--t", "1", "--d", "1", "--L", "1",
                      "--budget", budget, "--seed", "0")
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr == ("degraded: cell 0 has 2 free points but its "
                              "image cell has 3\n")

    def test_budget_exhaustion_is_degraded(self, workdir):
        fam, demand = self.make_inputs(workdir)
        res = run_cli("extend-perm", "--family", str(fam), "--demand",
                      str(demand), "--t", "3", "--d", "2", "--L", "1",
                      "--budget", "4", "--seed", "5")
        assert res.returncode == 2
        assert "DEGRADED" in res.stderr
        obj = json.loads(res.stdout)
        assert obj["ok"] is False and obj["best_min_size"] == 2


    @pytest.mark.parametrize("budget", ["0", "1"])
    @pytest.mark.parametrize("flag", ["--d", "--L"])
    def test_negative_depth_or_layers_is_data_error(self, workdir, flag,
                                                    budget):
        fam, demand = self.make_inputs(workdir)
        args = {"--d": "2", "--L": "1", flag: "-1"}
        res = run_cli("extend-perm", "--family", str(fam), "--demand",
                      str(demand), "--t", "2", "--d", args["--d"], "--L",
                      args["--L"], "--budget", budget, "--seed", "5")
        assert res.returncode == 65
        assert res.stdout == "" and "must be >= 0" in res.stderr

    def test_26_sets_over_64_points_under_the_address_space_cap(self,
                                                                 workdir):
        # the cell cut keeps only non-empty cells: at most 64 here, where a
        # cut of every signature lists 2^26 and fails under the cap
        rng = random.Random(26)
        sets = []
        while len(sets) < 26:
            s = sorted(rng.sample(range(64), 32))
            if s not in sets:
                sets.append(s)
        fam = workdir / "fam.json"
        write_json(str(fam), {"N": 64, "sets": sets})
        demand = workdir / "demand.json"
        write_json(str(demand), {"f": [], "g": [[j, j] for j in range(26)]})
        res = run_cli_capped("extend-perm", "--family", str(fam), "--demand",
                             str(demand), "--t", "1", "--d", "1", "--L", "0",
                             "--budget", "1", "--seed", "0", timeout=60)
        assert res.returncode == 0, res.stderr
        assert sorted(json.loads(res.stdout)["permutation"]) == list(range(64))

    @pytest.mark.parametrize("family, f", [
        ({"N": 8, "sets": [[0, 1]]}, [[0, 10 ** 1000]]),
        ({"N": 10 ** 1000, "sets": [[0, 1]]}, [])])
    def test_huge_number_is_cut_in_the_error_line(self, workdir, family, f):
        # a data error echoes the number it refuses: its 1 001 digits used
        # to make a stderr line that grew with the input
        fam = workdir / "fam.json"
        write_json(str(fam), family)
        demand = workdir / "demand.json"
        write_json(str(demand), {"f": f, "g": []})
        res = run_cli("extend-perm", "--family", str(fam), "--demand",
                      str(demand), "--t", "1", "--d", "1", "--L", "0",
                      "--budget", "1", "--seed", "0")
        assert res.returncode == 65
        assert res.stderr.count("\n") == 1 and len(res.stderr) < 160
        assert "10000000000000000000... (1001 digits)" in res.stderr


class TestCloseOrbit:
    def test_cycle_layers(self, workdir):
        fam = workdir / "fam.json"
        write_json(str(fam), {"N": 4, "sets": [[0, 1]]})
        perm = workdir / "perm.json"
        write_json(str(perm), {"N": 4, "images": [1, 2, 3, 0]})
        res = run_cli("close-orbit", "--family", str(fam), "--perm",
                      str(perm), "--layers", "1")
        assert res.returncode == 0
        obj = json.loads(res.stdout)
        assert obj["sets"] == [[0, 1], [1, 2], [0, 3]]
        assert obj["labels"] == ["set0", "set0+1", "set0-1"]

    def test_bool_universe_is_data_error(self, workdir):
        fam = workdir / "fam.json"
        write_json(str(fam), {"N": 1, "sets": [[0]]})
        perm = workdir / "perm.json"
        write_json(str(perm), {"N": True, "images": [0]})
        res = run_cli("close-orbit", "--family", str(fam), "--perm",
                      str(perm), "--layers", "1")
        assert res.returncode == 65

    def test_repeated_image_is_one_data_error_line(self, workdir):
        fam = workdir / "fam.json"
        write_json(str(fam), {"N": 4, "sets": [[0, 1]]})
        perm = workdir / "perm.json"
        write_json(str(perm), {"N": 4, "images": [1, 2, 1, 0]})
        res = run_cli("close-orbit", "--family", str(fam), "--perm",
                      str(perm), "--layers", "1")
        assert res.returncode == 65 and res.stdout == ""
        assert res.stderr == ("invalid data: images must list each point of "
                              "[0, n) exactly once\n")


class TestBuildGeneric:
    def write_common(self, workdir, rows=4, cols=4, n=4096):
        fams = workdir / "fams.json"
        write_json(str(fams), {"families": [{"N": n, "sets": []}]})
        eta = workdir / "eta.json"
        write_json(str(eta), zero_grid_obj(rows, cols))
        return fams, eta

    def test_auto_schedule_builds_pair(self, workdir):
        fams, eta = self.write_common(workdir)
        res = run_cli("build-generic", "--families", str(fams), "--eta",
                      str(eta), "--demands", "auto:q=1",
                      "--search-bound", "4096")
        assert res.returncode == 0
        obj = json.loads(res.stdout)
        assert obj["A"] == [0, 3]
        assert obj["degraded"] is False
        assert obj["witnesses"] == [0, 1]
        assert "build-generic: OK" in res.stderr

    def test_tiny_grid_degrades(self, workdir):
        fams, eta = self.write_common(workdir, rows=1, cols=1)
        res = run_cli("build-generic", "--families", str(fams), "--eta",
                      str(eta), "--demands", "auto:q=2",
                      "--search-bound", "4096")
        assert res.returncode == 2
        obj = json.loads(res.stdout)
        assert obj["degraded"] is True
        assert obj["failure_kind"] == "grid-overflow"
        assert obj["A"] == [0, 3]  # partial result still reported

    def test_explicit_schedule_file(self, workdir):
        fams, eta = self.write_common(workdir)
        sched = workdir / "sched.json"
        write_json(str(sched), {"demands": [
            {"pos": [], "neg": [], "probe": 0, "polarity": "in"},
            {"pos": [], "neg": [], "probe": 0, "polarity": "in"},
        ]})
        res = run_cli("build-generic", "--families", str(fams), "--eta",
                      str(eta), "--demands", str(sched),
                      "--search-bound", "4096")
        assert res.returncode == 0
        assert json.loads(res.stdout)["A"] == [0, 3]

    @pytest.mark.parametrize("probe", ["x", True])
    def test_mistyped_probe_is_data_error(self, workdir, probe):
        fams, eta = self.write_common(workdir)
        sched = workdir / "sched.json"
        write_json(str(sched), {"demands": [
            {"pos": [], "neg": [], "probe": probe, "polarity": "in"}]})
        res = run_cli("build-generic", "--families", str(fams), "--eta",
                      str(eta), "--demands", str(sched),
                      "--search-bound", "4096")
        assert res.returncode == 65
        assert "probe" in res.stderr and "Traceback" not in res.stderr

    def test_search_bound_past_universe_is_data_error(self, workdir):
        fams, eta = self.write_common(workdir)
        res = run_cli("build-generic", "--families", str(fams), "--eta",
                      str(eta), "--demands", "auto:q=1",
                      "--search-bound", str(10 ** 40))
        assert res.returncode == 65
        assert res.stdout == ""
        assert "search bound cannot exceed the universe size" in res.stderr

    @pytest.mark.parametrize("demands", ["auto:q=0", "empty", "auto:q=1"])
    @pytest.mark.parametrize("bound", ["0", "-5"])
    def test_search_bound_below_one_is_data_error(self, workdir, demands,
                                                  bound):
        # an empty schedule is refused as a non-empty one is
        fams, eta = self.write_common(workdir)
        if demands == "empty":
            demands = str(workdir / "sched.json")
            write_json(demands, {"demands": []})
        res = run_cli("build-generic", "--families", str(fams), "--eta",
                      str(eta), "--demands", demands, "--search-bound", bound)
        assert res.returncode == 65
        assert res.stdout == ""
        assert "search bound must be >= 1" in res.stderr

    @pytest.mark.parametrize("pos, neg", [([], [5]), ([0], [5]), ([5], [])])
    def test_spec_index_out_of_range_one_message(self, workdir, pos, neg):
        # pos and neg indices pass the same index check
        fams = workdir / "fams.json"
        write_json(str(fams), {"families": [{"N": 64, "sets": [[1, 2], [3]]}]})
        eta = workdir / "eta.json"
        write_json(str(eta), zero_grid_obj())
        sched = workdir / "sched.json"
        write_json(str(sched), {"demands": [
            {"pos": pos, "neg": neg, "probe": 0, "polarity": "in"}]})
        res = run_cli("build-generic", "--families", str(fams), "--eta",
                      str(eta), "--demands", str(sched),
                      "--search-bound", "64")
        assert res.returncode == 65
        assert res.stderr == ("invalid data: index 5 out of range for "
                              "family of 2 sets\n")

    def test_malformed_auto_spec(self, workdir):
        fams, eta = self.write_common(workdir)
        res = run_cli("build-generic", "--families", str(fams), "--eta",
                      str(eta), "--demands", "auto:q=x",
                      "--search-bound", "4096")
        assert res.returncode == 64


class TestVerifyStar:
    def test_sparse_set_fails(self, workdir):
        fams = workdir / "fams.json"
        write_json(str(fams), {"families": [{"N": 64, "sets": [[0]]}]})
        res = run_cli("verify-star", "--families", str(fams),
                      "--probe-bound", "2", "--search-bound", "64")
        assert res.returncode == 1
        obj = json.loads(res.stdout)
        assert obj["failing"] == {"pos": [0], "neg": [], "probe": 1}

    def test_huge_bounds_fail_at_once(self, workdir):
        fams = workdir / "fams.json"
        write_json(str(fams), {"families": [{"N": 64, "sets": [[0]]}]})
        res = run_cli("verify-star", "--families", str(fams),
                      "--probe-bound", str(10 ** 12),
                      "--search-bound", str(10 ** 12))
        assert res.returncode == 1
        obj = json.loads(res.stdout)
        # the empty combination, the whole 64-point universe, fails first
        assert obj["failing"] == {"pos": [], "neg": [], "probe": 64}

    def test_parity_split_passes(self, workdir):
        fams = workdir / "fams.json"
        evens = [m for m in range(0, 512, 2)]
        write_json(str(fams), {"families": [{"N": 512, "sets": [evens]}]})
        res = run_cli("verify-star", "--families", str(fams),
                      "--probe-bound", "2", "--search-bound", "512")
        assert res.returncode == 0
        assert "star-density: PASS" in res.stderr

    def test_pass_reports_spec_count(self, workdir):
        fams = workdir / "fams.json"
        write_json(str(fams), {"families": [
            {"N": 64, "sets": [list(range(0, 64, 2)), list(range(32, 64))]}]})
        res = run_cli("verify-star", "--families", str(fams),
                      "--probe-bound", "1", "--search-bound", "64")
        assert res.returncode == 0
        assert res.stderr == "star-density: PASS (specs: 9, probes: 1)\n"

    def test_negative_depth_is_data_error(self, workdir):
        fams = workdir / "fams.json"
        write_json(str(fams), {"families": [{"N": 64, "sets": [[0]]}]})
        res = run_cli("verify-star", "--families", str(fams), "--depth", "-1",
                      "--probe-bound", "2", "--search-bound", "64")
        assert res.returncode == 65
        assert "depth" in res.stderr and "Traceback" not in res.stderr


class TestVerifyStarStar:
    def test_matching_pair_passes(self, workdir):
        s = workdir / "set.json"
        write_json(str(s), {"N": 4096, "members": [0, 3]})
        eta = workdir / "eta.json"
        write_json(str(eta), zero_grid_obj())
        res = run_cli("verify-starstar", "--set", str(s), "--eta", str(eta))
        assert res.returncode == 0
        assert json.loads(res.stdout) == {"ok": True, "witness": None}

    def test_unmatched_pair_fails(self, workdir):
        s = workdir / "set.json"
        write_json(str(s), {"N": 4096, "members": [0, 1]})
        eta = workdir / "eta.json"
        write_json(str(eta), zero_grid_obj())
        res = run_cli("verify-starstar", "--set", str(s), "--eta", str(eta))
        assert res.returncode == 1
        assert json.loads(res.stdout)["witness"] == [0, 1, 1]

    @pytest.mark.parametrize("n", ["x", True])
    def test_mistyped_universe_is_data_error(self, workdir, n):
        s = workdir / "set.json"
        write_json(str(s), {"N": n, "members": [0]})
        eta = workdir / "eta.json"
        write_json(str(eta), zero_grid_obj())
        res = run_cli("verify-starstar", "--set", str(s), "--eta", str(eta))
        assert res.returncode == 65
        assert "key N" in res.stderr and "Traceback" not in res.stderr


class TestDiagExperiment:
    def test_degraded_smoke_run(self, workdir):
        cfg = workdir / "config.json"
        write_json(str(cfg), SMOKE_CONFIG)
        res = run_cli("diag-experiment", "--config", str(cfg))
        assert res.returncode == 2  # builds hit the wall at this scale
        # no sampled permutation relates two chain elements here
        assert ("theorem-shadow: PASS, vacuous (π samples: 5, "
                "cases checked: 0, violations: 0)" in res.stderr)
        obj = json.loads(res.stdout)
        assert obj["degraded"] is True
        assert obj["sampling"]["violations"] == 0

    def test_out_files_are_byte_identical(self, workdir):
        cfg = workdir / "config.json"
        write_json(str(cfg), SMOKE_CONFIG)
        out1, out2 = workdir / "r1.json", workdir / "r2.json"
        assert run_cli("diag-experiment", "--config", str(cfg), "--out",
                       str(out1)).returncode == 2
        assert run_cli("diag-experiment", "--config", str(cfg), "--out",
                       str(out2)).returncode == 2
        assert out1.read_bytes() == out2.read_bytes()

    def test_missing_config(self):
        res = run_cli("diag-experiment", "--config", "/nonexistent/cfg.json")
        assert res.returncode == 66

    @pytest.mark.parametrize("change, message", [
        ({"t": 0}, "threshold must be >= 1"),
        ({"N": 7, "search_bound": 7},
         "rows (8) must not exceed the universe (7) when samples are drawn"),
        ({"probe_bound": 0}, "probe_bound must be >= 1"),
        ({"search_bound": 4097}, "search bound cannot exceed the universe size"),
    ])
    def test_impossible_config_refused_before_any_build(
            self, workdir, monkeypatch, capsys, change, message):
        builds = []
        monkeypatch.setattr(diag, "build_generic",
                            lambda *args: builds.append(args))
        cfg = workdir / "config.json"
        write_json(str(cfg), dict(SMOKE_CONFIG, **change))
        assert cli.main(["diag-experiment", "--config", str(cfg)]) == 65
        assert capsys.readouterr().err == f"invalid data: {message}\n"
        assert builds == []

    def test_summary_counts_the_capture_cases(self, workdir, capsys):
        # on 16 points the samples relate chain elements: a real pass
        cfg = workdir / "config.json"
        write_json(str(cfg), dict(SMOKE_CONFIG, N=16, search_bound=16,
                                  samples=40))
        assert cli.main(["diag-experiment", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.endswith(
            "theorem-shadow: PASS (\u03c0 samples: 40, cases checked: 8, "
            "violations: 0)\n")

    def test_rows_past_universe_without_samples_still_runs(self, workdir):
        # no sample reads the permutation, so rows past N stay legal
        cfg = workdir / "config.json"
        write_json(str(cfg), dict(SMOKE_CONFIG, N=7, search_bound=7,
                                  samples=0))
        res = run_cli("diag-experiment", "--config", str(cfg))
        assert res.returncode == 2
        assert res.stderr.endswith(
            "theorem-shadow: PASS, vacuous (\u03c0 samples: 0, "
            "cases checked: 0, violations: 0)\n")
        assert hashlib.sha256(res.stdout.encode()).hexdigest() == (
            "52470593ef42578379ffcb833f42f8c5df32c1620e874ecebd80ad07457616e3")


def run_cli_capped(*args, timeout=120):
    # a 1 GiB address-space cap: a build of a huge mask fails in the child
    # instead of taking the machine's memory
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
    return subprocess.run([sys.executable, "-m", "omegalab", *args],
                          capture_output=True, text=True, preexec_fn=cap,
                          timeout=timeout)


class TestUniverseCap:
    HUGE = 10 ** 12

    def assert_refused(self, res):
        assert res.returncode == 65
        assert res.stderr.count("\n") == 1
        assert "past the cap" in res.stderr

    def test_check_indep(self, workdir):
        # the size scan reads N only as the size of the empty intersection
        fam = workdir / "fam.json"
        write_json(str(fam), {"N": self.HUGE, "sets": [[0], [1]]})
        res = run_cli_capped("check-indep", "--family", str(fam), "--t", "1")
        assert res.returncode == 1, res.stderr
        assert json.loads(res.stdout) == {
            "d": 2, "failing": {"pos": [0, 1], "neg": []}, "ok": False,
            "size_found": 0, "t": 1}

    def test_check_saturation(self, workdir):
        fam = workdir / "fam.json"
        write_json(str(fam), {"N": self.HUGE, "sets": [[0], [1]]})
        self.assert_refused(run_cli_capped("check-saturation", "--family",
                                           str(fam), "--s", "1"))

    def test_gen_family(self):
        self.assert_refused(run_cli_capped("gen-family", "--k", "2", "--n",
                                           str(self.HUGE)))

    def test_gen_family_huge_k_builds_no_power(self):
        res = run_cli_capped("gen-family", "--k", str(self.HUGE), "--n", "8")
        assert res.returncode == 65 and "2^k <= n" in res.stderr

    def test_diag_experiment(self, workdir):
        # builds, independence, density and sampling all run without a mask
        # of the universe: the report is the in-process one, degraded
        cfg = workdir / "config.json"
        write_json(str(cfg), dict(SMOKE_CONFIG, N=self.HUGE))
        res = run_cli_capped("diag-experiment", "--config", str(cfg))
        assert res.returncode == 2, res.stderr
        config = ExperimentConfig.from_json_obj(
            dict(SMOKE_CONFIG, N=self.HUGE))
        assert res.stdout == canonical_dumps(
            diag.run_pipeline(config).to_json_obj())

    @pytest.mark.parametrize("n, member", [
        (10 ** 30, 10 ** 29),    # the byte buffer's size overflows an index
        (HUGE + 1, HUGE)])       # a 125 GB byte buffer
    def test_set_member_past_the_cap(self, workdir, n, member):
        s = workdir / "set.json"
        write_json(str(s), {"N": n, "members": [0, member]})
        eta = workdir / "eta.json"
        write_json(str(eta), zero_grid_obj())
        self.assert_refused(run_cli_capped("verify-starstar", "--set",
                                           str(s), "--eta", str(eta)))

    @pytest.mark.parametrize("n, member", [
        (10 ** 30, 10 ** 29), (HUGE + 1, HUGE)])
    def test_family_member_past_the_cap(self, workdir, n, member):
        fams = workdir / "fams.json"
        write_json(str(fams), {"families": [{"N": n, "sets": [[0, member]]}]})
        eta = workdir / "eta.json"
        write_json(str(eta), zero_grid_obj())
        self.assert_refused(run_cli_capped(
            "build-generic", "--families", str(fams), "--eta", str(eta),
            "--demands", "auto:q=1", "--search-bound", "4096"))

    @pytest.mark.parametrize("pos, neg, chain", [([0], [], [0]),
                                                 ([], [0], [4])])
    def test_build_generic_demand(self, workdir, pos, neg, chain):
        # a demand's set is searched as its combination mask, which follows
        # the sets: no mask of the whole universe is built
        fams = workdir / "fams.json"
        write_json(str(fams), {"families": [
            {"N": self.HUGE, "sets": [[0, 1, 2, 3, 5, 8, 13, 21]]}]})
        eta = workdir / "eta.json"
        write_json(str(eta), zero_grid_obj())
        sched = workdir / "sched.json"
        write_json(str(sched), {"demands": [
            {"pos": pos, "neg": neg, "probe": 0, "polarity": "in"}]})
        res = run_cli_capped("build-generic", "--families", str(fams),
                             "--eta", str(eta), "--demands", str(sched),
                             "--search-bound", "4096")
        assert res.returncode == 0
        assert json.loads(res.stdout)["A"] == chain

    def test_verify_star(self, workdir):
        # the density scan's masks hold no universe (co-finite where no set
        # enters positively), so it answers at any universe size and bound
        fams = workdir / "fams.json"
        write_json(str(fams), {"families": [
            {"N": self.HUGE, "sets": [[0, 1, 2, 3, 5, 8]]}]})
        res = run_cli_capped("verify-star", "--families", str(fams),
                             "--probe-bound", "8",
                             "--search-bound", str(self.HUGE))
        assert res.returncode == 1, res.stderr
        assert json.loads(res.stdout)["failing"] == {"pos": [0], "neg": [],
                                                     "probe": 7}

    def test_diag_experiment_grid(self, workdir):
        # 2 * 10^10 grid values: refused before any is drawn, not after the
        # draw has filled the address space
        cfg = workdir / "config.json"
        write_json(str(cfg), dict(SMOKE_CONFIG, Ma=100_000, Mk=100_000))
        self.assert_refused(run_cli_capped("diag-experiment", "--config",
                                           str(cfg)))


class TestUsageAndEnvironment:
    def test_unknown_subcommand(self):
        assert run_cli("frobnicate").returncode == 64

    def test_missing_required_flag(self):
        assert run_cli("check-indep", "--t", "2").returncode == 64

    def test_unexpected_exception_is_internal_error(self, monkeypatch, capsys):
        # in process: any exception no handler expects ends in one line and
        # status 70, never a traceback and never the violation status 1
        def broken(args):
            raise RuntimeError("deep\n  inside")
        monkeypatch.setattr(cli, "_cmd_rho", broken)
        assert cli.main(["rho", "3"]) == 70
        captured = capsys.readouterr()
        assert captured.err == "internal error: RuntimeError: deep inside\n"
        assert captured.out == ""

    def test_long_file_name_is_cut_in_the_io_error_line(self, workdir):
        # a 3 000-character name is refused by the system (ENAMETOOLONG):
        # the io error line used to echo it whole, 3 044 bytes
        res = run_cli("extend-perm", "--family", "a" * 3000, "--demand",
                      str(workdir / "demand.json"), "--t", "1", "--d", "1",
                      "--L", "0", "--budget", "1", "--seed", "0")
        assert res.returncode == 74
        assert res.stderr.count("\n") == 1
        assert len(res.stderr.rstrip("\n").encode()) <= 240
        assert f"'{'a' * 20}...' (3000 characters)" in res.stderr

    def test_long_missing_path_is_cut_in_the_missing_input_line(self,
                                                                workdir):
        # 200 + 200 characters below a real directory: the missing input
        # line used to echo the whole path, 431 bytes
        path = workdir / ("b" * 200) / ("c" * 200)
        res = run_cli("check-indep", "--family", str(path), "--t", "1")
        assert res.returncode == 66
        assert res.stderr.count("\n") == 1
        assert len(res.stderr.rstrip("\n").encode()) <= 240
        assert res.stderr.startswith("missing input: ")
        assert f"({len(str(path))} characters)" in res.stderr


def _zero_grid_families(rows, cols):
    return {"fams.json": {"families": [{"N": 4096, "sets": []}]},
            "eta.json": zero_grid_obj(rows, cols)}


BIT16 = {"fam.json": {"N": 16, "sets": [[x for x in range(16) if x >> j & 1]
                                        for j in range(3)]}}
SWAP8 = {"fam.json": {"N": 8, "sets": [[1, 3, 5, 7], [2, 3, 6, 7]]},
         "demand.json": {"f": [], "g": [[0, 1], [1, 0]]}}
BUILD = ["build-generic", "--families", "fams.json", "--eta", "eta.json",
         "--search-bound", "4096", "--demands"]
SCHEDULE = ('{"neg":[],"polarity":"in","pos":[],"probe":0},'
            '{"neg":[],"polarity":"out","pos":[],"probe":0}')

# (input files, argv, exit status, stdout, stderr), exact bytes; the
# independence object of extend-perm is the one check-indep prints
PINNED = {
    "check-indep pass": (
        BIT16, ["check-indep", "--family", "fam.json", "--t", "2"], 0,
        '{"d":3,"failing":null,"ok":true,"size_found":2,"t":2}\n',
        "independence: PASS (t=2, d=3, min size 2)\n"),
    "check-indep fail": (
        BIT16, ["check-indep", "--family", "fam.json", "--t", "3"], 1,
        '{"d":3,"failing":{"neg":[0,1,2],"pos":[]},"ok":false,'
        '"size_found":2,"t":3}\n',
        "independence: FAIL (pos=[] neg=[0, 1, 2], size 2)\n"),
    "verify-star pass": (
        {"fams.json": {"families": [{"N": 512,
                                     "sets": [list(range(0, 512, 2))]}]}},
        ["verify-star", "--families", "fams.json", "--probe-bound", "2",
         "--search-bound", "512"], 0,
        '{"depth":1,"failing":null,"ok":true,"probe_bound":2,'
        '"search_bound":512}\n',
        "star-density: PASS (specs: 3, probes: 2)\n"),
    "verify-star fail": (
        {"fams.json": {"families": [{"N": 64, "sets": [[0]]}]}},
        ["verify-star", "--families", "fams.json", "--probe-bound", "2",
         "--search-bound", "64"], 1,
        '{"depth":1,"failing":{"neg":[],"pos":[0],"probe":1},"ok":false,'
        '"probe_bound":2,"search_bound":64}\n',
        "star-density: FAIL (pos=[0] neg=[], probe 1)\n"),
    "build-generic ok": (
        _zero_grid_families(4, 4), BUILD + ["auto:q=1"], 0,
        '{"A":[0,3],"decided_below":4,"degraded":false,"failed_at":null,'
        '"failure_kind":null,"schedule":[' + SCHEDULE + '],'
        '"schedule_length":2,"search_bound":4096,"steps_completed":2,'
        '"universe":4096,"witnesses":[0,1]}\n',
        "build-generic: OK (|A| = 2, met 2/2 demands)\n"),
    "build-generic degraded": (
        _zero_grid_families(1, 1), BUILD + ["auto:q=2"], 2,
        '{"A":[0,3],"decided_below":4,"degraded":true,"failed_at":2,'
        '"failure_kind":"grid-overflow","schedule":[' + SCHEDULE + ','
        + SCHEDULE.replace('"probe":0', '"probe":1') + '],'
        '"schedule_length":4,"search_bound":4096,"steps_completed":2,'
        '"universe":4096,"witnesses":[0,1]}\n',
        "build-generic: DEGRADED (grid-overflow at demand 2, |A| = 2)\n"),
    "extend-perm pass": (
        SWAP8, ["extend-perm", "--family", "fam.json", "--demand",
                "demand.json", "--t", "2", "--d", "2", "--L", "1",
                "--budget", "20", "--seed", "5"], 0,
        '{"attempts":1,"best_attempt":1,"best_min_size":2,"budget":20,'
        '"closure":{"N":8,"labels":["set0","set1"],'
        '"sets":[[1,3,5,7],[2,3,6,7]]},"independence":{"d":2,'
        '"failing":null,"ok":true,"size_found":2,"t":2},"ok":true,'
        '"permutation":[0,2,5,3,4,6,1,7]}\n',
        "extend-perm: PASS (attempts: 1, closure sets: 2)\n"),
}


class TestPinnedOutput:
    @pytest.mark.parametrize("case", list(PINNED))
    def test_exact_bytes(self, case, workdir, capsys):
        files, argv, status, out, err = PINNED[case]
        for name, obj in files.items():
            write_json(str(workdir / name), obj)
        argv = [str(workdir / a) if a in files else a for a in argv]
        assert cli.main(argv) == status
        captured = capsys.readouterr()
        assert captured.out == out
        assert captured.err == err
