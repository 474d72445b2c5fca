"""Count each Python file's lines by kind: code, docstring, comment, blank.

    python scripts/line_kinds.py src/omegalab/*.py

A line is code when any token on it is neither a comment nor a docstring;
otherwise docstring when a docstring covers it, comment when it holds a
comment, and blank when it holds no token.  A docstring is a string that
opens a module or the body of a def or class.  Prints one row per file and
a total; gates nothing.  With no path, or a path that is not a file, it
prints one usage line and exits 2.
"""

import os
import sys
import tokenize
from itertools import islice

USAGE = "usage: python scripts/line_kinds.py FILE.py..."
KINDS = ("code", "docstring", "comment", "blank")
SKIPPED = {tokenize.ENCODING, tokenize.NEWLINE, tokenize.NL, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}


def line_kinds(path: str) -> dict[str, int]:
    with open(path, "rb") as fh:
        tokens = list(tokenize.tokenize(fh.readline))
    rank: dict[int, int] = {}  # row -> index into KINDS, the least wins
    expect_doc = True  # a string here would open the module
    header = False  # inside a def or class line, before its NEWLINE
    for i, tok in enumerate(tokens):
        if tok.type == tokenize.NEWLINE:
            # a body on its own lines starts with INDENT; then a string opens it
            after = next(t for t in islice(tokens, i + 1, None)
                         if t.type not in (tokenize.COMMENT, tokenize.NL))
            expect_doc = header and after.type == tokenize.INDENT
            header = False
            continue
        if tok.type in SKIPPED:
            continue
        if tok.type == tokenize.COMMENT:
            kind = 2
        elif tok.type == tokenize.STRING and expect_doc:
            kind = 1
        else:
            kind = 0
            header = header or tok.string in ("def", "class")
        if tok.type != tokenize.COMMENT:
            expect_doc = False
        for row in range(tok.start[0], tok.end[0] + 1):
            rank[row] = min(rank.get(row, kind), kind)
    rows = tokens[-1].start[0] - 1  # ENDMARKER sits past the last line
    counts = dict.fromkeys(KINDS, 0)
    for row in range(1, rows + 1):
        counts[KINDS[rank.get(row, 3)]] += 1
    return counts


def main(paths: list[str]) -> int:
    if not paths or not all(map(os.path.isfile, paths)):
        print(USAGE, file=sys.stderr)
        return 2
    print(f"{'file':<32}" + "".join(f"{k:>10}" for k in KINDS))
    total = dict.fromkeys(KINDS, 0)
    for path in paths:
        counts = line_kinds(path)
        print(f"{path:<32}" + "".join(f"{counts[k]:>10}" for k in KINDS))
        for k in KINDS:
            total[k] += counts[k]
    print(f"{'total':<32}" + "".join(f"{total[k]:>10}" for k in KINDS))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
