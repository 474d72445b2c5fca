"""List each def or class of a package whose name nothing else uses.

    python scripts/unused_names.py src/omegalab src bench scripts

The first path is scanned for definitions; it and every .py file under the
paths after it are read for uses.  A use is an identifier (a name, an
attribute, an imported name or a keyword argument) or a string constant
equal to the name, as when a tracer wraps functions it names in strings.
A def or class line is not a use of its own name, and a word inside a
docstring or comment is none either; names are matched without regard to
scope, so a method counts as used wherever its name is.  Dunder names and
the CLI's _cmd_* handlers are left out.  Prints one line per unused name and
a count.  Since a use cannot tell apart two defs of one name, it then lists
each def whose name another def of the package shares, with its own count:
such a def may be unused although its name is not.  Exits 1 when it lists
an unused name and 0 when it lists none, whatever the shared names; with no
path, or a path that does not exist, it prints one usage line and exits 2.
"""

import ast
import re
import sys
from collections import Counter
from pathlib import Path

USAGE = "usage: python scripts/unused_names.py PACKAGE [PATH...]"
# dunders, and the CLI handlers that set_defaults hands to argparse
LEFT_OUT = re.compile(r"__\w*__$|_cmd_")


def python_files(path: str) -> list[Path]:
    p = Path(path)
    return sorted(p.rglob("*.py")) if p.is_dir() else [p]


def uses(tree: ast.AST) -> set[str]:
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.update(node.name.split("."))
        elif isinstance(node, ast.keyword) and node.arg:
            found.add(node.arg)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
    return found


def definitions(tree: ast.AST) -> list[tuple[int, str]]:
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return sorted((node.lineno, node.name) for node in ast.walk(tree)
                  if isinstance(node, kinds) and not LEFT_OUT.match(node.name))


def main(paths: list[str]) -> int:
    if not paths or not all(Path(p).exists() for p in paths):
        print(USAGE, file=sys.stderr)
        return 2
    trees = {f: ast.parse(f.read_bytes(), str(f))
             for path in paths for f in python_files(path)}
    used = set().union(*map(uses, trees.values()))
    defs = [(f, line, name) for f in python_files(paths[0])
            for line, name in definitions(trees[f])]
    defined = Counter(name for _, _, name in defs)
    unused = [f"{f}:{line}: {name}" for f, line, name in defs
              if name not in used]
    shared = [f"{f}:{line}: {name}" for f, line, name in defs
              if defined[name] > 1]
    for line in unused:
        print(line)
    print(f"{len(unused)} unused names")
    for line in shared:
        print(line)
    print(f"{len(shared)} defs share a name with another def")
    return 1 if unused else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
