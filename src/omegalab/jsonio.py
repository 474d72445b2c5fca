"""Canonical JSON for every file the tools read or write, and the one view
of each report type that the CLI and the pipeline report share.

Canonical means: keys sorted, compact separators, one trailing newline.
Two equal reports therefore serialize to identical bytes, which the test
suite and the determinism checks rely on.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any, Sequence

from .codec import PartialFn, _is_int
from .finset import CombinationSpec, Family, FinSet, IndependenceReport
from .generic import (IN, OUT, ComboDensityReport, Demand, GenericRun,
                      TargetGrid)

if TYPE_CHECKING:  # imported at run time only by the map readers below
    from .extender import FamilyMap, PartialInjection, Permutation


def canonical_dumps(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def write_json(path: str, obj: Any) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_dumps(obj))


def read_json(path: str) -> Any:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None


def _int_list(obj: Any, what: str) -> list[int]:
    if not isinstance(obj, list) or not all(map(_is_int, obj)):
        raise ValueError(f"{what} must be a list of integers")
    return obj


def _require(obj: Any, keys: Sequence[str], what: str) -> None:
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object")
    for key in keys:
        if key not in obj:
            raise ValueError(f"{what} is missing key {key!r}")


def _universe_size(obj: dict[str, Any], what: str) -> int:
    n = obj["N"]
    if not _is_int(n):
        raise ValueError(f"{what} key N must be an integer")
    return n


# --- sets and families --------------------------------------------------------

def finset_from_obj(obj: Any) -> FinSet:
    _require(obj, ("N", "members"), "set")
    return FinSet.from_members(_universe_size(obj, "set"),
                               _int_list(obj["members"], "members"))


def family_to_obj(family: Family) -> dict[str, Any]:
    obj: dict[str, Any] = {
        "N": family.n,
        "sets": [s.to_list() for s in family.sets],
    }
    if family.labels is not None:
        obj["labels"] = list(family.labels)
    return obj


def family_from_obj(obj: Any) -> Family:
    _require(obj, ("N", "sets"), "family")
    n = _universe_size(obj, "family")
    sets_obj = obj["sets"]
    if not isinstance(sets_obj, list):
        raise ValueError("family key sets must be a list")
    sets = tuple(FinSet.from_members(n, _int_list(s, "each set"))
                 for s in sets_obj)
    labels = None
    if "labels" in obj:
        raw = obj["labels"]
        if (not isinstance(raw, list)
                or any(not isinstance(x, str) for x in raw)):
            raise ValueError("family key labels must be a list of strings")
        labels = tuple(raw)
    return Family(n, sets, labels)


def families_from_obj(obj: Any) -> tuple[Family, ...]:
    _require(obj, ("families",), "families file")
    if not isinstance(obj["families"], list):
        raise ValueError("families key must hold a list")
    return tuple(family_from_obj(f) for f in obj["families"])


# --- partial functions --------------------------------------------------------

def partial_fn_to_obj(fn: PartialFn) -> dict[str, Any]:
    # entries are already sorted by point code
    return {"entries": [[a, b, i, v] for a, b, i, v in fn.entries]}


def partial_fn_from_obj(obj: Any) -> PartialFn:
    _require(obj, ("entries",), "partial function")
    if not isinstance(obj["entries"], list):
        raise ValueError("entries must be a list")
    rows = []
    for item in obj["entries"]:
        quad = _int_list(item, "each entry")
        if len(quad) != 4:
            raise ValueError("each entry needs exactly [a, b, i, value]")
        rows.append((quad[0], quad[1], quad[2], quad[3]))
    return PartialFn.from_entries(rows)


# --- target grids -------------------------------------------------------------

def grid_to_obj(grid: TargetGrid) -> dict[str, Any]:
    quads = []
    for m in range(grid.rows):
        for k in range(grid.cols):
            for i in (0, 1):
                quads.append([m, k, i, grid.value_at(m, k, i)])
    return {"Ma": grid.rows, "Mk": grid.cols, "V": grid.value_bound,
            "values": quads}


def grid_from_obj(obj: Any) -> TargetGrid:
    _require(obj, ("Ma", "Mk", "V", "values"), "grid")
    rows, cols, vbound = obj["Ma"], obj["Mk"], obj["V"]
    for name, val in (("Ma", rows), ("Mk", cols), ("V", vbound)):
        if not _is_int(val) or val < 1:
            raise ValueError(f"grid key {name} must be a positive integer")
    if not isinstance(obj["values"], list):
        raise ValueError("grid values must be a list")
    table: dict[tuple[int, int, int], int] = {}
    for item in obj["values"]:
        quad = _int_list(item, "each grid value")
        if len(quad) != 4:
            raise ValueError("each grid value needs exactly [m, k, i, v]")
        m, k, i, v = quad
        if (m, k, i) in table:
            raise ValueError(f"grid point {(m, k, i)} assigned twice")
        table[(m, k, i)] = v
    flat = []
    for m in range(rows):
        for k in range(cols):
            for i in (0, 1):
                if (m, k, i) not in table:
                    raise ValueError(f"grid is missing point {(m, k, i)}")
                flat.append(table.pop((m, k, i)))
    if table:
        point = next(iter(table))
        raise ValueError(f"grid value at {point} lies outside the declared bounds")
    return TargetGrid(rows, cols, vbound, tuple(flat))


# --- demand schedules ---------------------------------------------------------

def spec_to_obj(spec: CombinationSpec) -> dict[str, Any]:
    return {"pos": list(spec.pos), "neg": list(spec.neg)}


def demand_to_obj(demand: Demand) -> dict[str, Any]:
    return {**spec_to_obj(demand.spec), "probe": demand.probe_index,
            "polarity": demand.polarity}


def demand_from_obj(obj: Any) -> Demand:
    _require(obj, ("pos", "neg", "probe", "polarity"), "demand")
    if obj["polarity"] not in (IN, OUT):
        raise ValueError(f"demand polarity must be {IN!r} or {OUT!r}")
    probe = obj["probe"]
    if not _is_int(probe) or probe < 0:
        raise ValueError("demand probe must be an integer >= 0")
    spec = CombinationSpec(tuple(_int_list(obj["pos"], "pos")),
                           tuple(_int_list(obj["neg"], "neg")))
    return Demand(spec, probe, obj["polarity"])


def schedule_from_obj(obj: Any) -> tuple[Demand, ...]:
    _require(obj, ("demands",), "schedule")
    if not isinstance(obj["demands"], list):
        raise ValueError("schedule key demands must be a list")
    return tuple(demand_from_obj(d) for d in obj["demands"])


# --- report views -------------------------------------------------------------
# The fields each report type shares between the CLI and the pipeline
# report; callers add their own keys around them.

def independence_to_obj(rep: IndependenceReport) -> dict[str, Any]:
    return {"ok": rep.ok, "size_found": rep.size_found,
            "failing": None if rep.failing is None
            else spec_to_obj(rep.failing)}


def density_to_obj(rep: ComboDensityReport) -> dict[str, Any]:
    return {"ok": rep.ok, "failing": None if rep.failing_spec is None else {
        **spec_to_obj(rep.failing_spec), "probe": rep.failing_probe}}


def run_to_obj(run: GenericRun) -> dict[str, Any]:
    return {
        "witnesses": [s.witness for s in run.steps],
        "schedule_length": run.schedule_length,
        "steps_completed": len(run.steps),
        "degraded": run.degraded,
        "failure_kind": run.failure_kind,
        "failed_at": run.failed_at,
    }


# --- maps ---------------------------------------------------------------------

def _pairs_from_obj(obj: Any, what: str) -> tuple[tuple[int, int], ...]:
    if not isinstance(obj, list):
        raise ValueError(f"{what} must be a list of [source, target] pairs")
    out = []
    for item in obj:
        pair = _int_list(item, f"each {what} pair")
        if len(pair) != 2:
            raise ValueError(f"each {what} pair needs exactly two entries")
        out.append((pair[0], pair[1]))
    return tuple(out)


def extension_demand_from_obj(obj: Any, n: int
                              ) -> tuple[PartialInjection, FamilyMap]:
    """The point half f needs a universe size, taken from the family file."""
    from .extender import FamilyMap, PartialInjection
    _require(obj, ("f", "g"), "extension demand")
    f = PartialInjection(n, _pairs_from_obj(obj["f"], "point map"))
    g = FamilyMap(_pairs_from_obj(obj["g"], "index map"))
    return f, g


def permutation_from_obj(obj: Any) -> Permutation:
    from .extender import Permutation
    _require(obj, ("N", "images"), "permutation")
    return Permutation(_universe_size(obj, "permutation"),
                       tuple(_int_list(obj["images"], "images")))
