"""The benchmark's tracer (bench/tracing.py) wraps engine functions by name:
every name in its LAYERS table, plus finset.combination_specs.  A rename in
the engine must fail here, in the suite, rather than end a traced benchmark
run with a traceback.  The table is read from the source, not imported."""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def traced_names() -> list[str]:
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    layers = next(ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.AnnAssign)
                  and getattr(node.target, "id", None) == "LAYERS")
    return [f"{mod}.{fn}" for mods in layers.values()
            for mod, fns in mods.items() for fn in fns] + [
        "finset.combination_specs"]


def test_every_traced_name_resolves_in_the_engine():
    names = traced_names()
    assert "diag.verify_catch" in names
    missing = []
    for name in names:
        mod, fn = name.split(".")
        module = importlib.import_module(f"omegalab.{mod}")
        if not callable(getattr(module, fn, None)):
            missing.append(name)
    assert missing == []
