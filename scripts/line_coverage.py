#!/usr/bin/env python3
"""Statement coverage of the Tier-1 suite over src/qcolor, with the stdlib
tracer alone (sys.settrace).

Runs pytest on tests/ in this process, records every line of src/qcolor
that executes, and prints each file's statements that never ran, then the
total.  A statement counts as run when one of its own lines ran; for a
compound statement (def, if, for, ...) those are its header lines, from
its first decorator to the line before its body.  Docstrings and global
or nonlocal declarations compile to no code and are not counted.  Code
that tests run in a subprocess is not traced.

    python3 scripts/line_coverage.py [extra pytest arguments]

It takes about three times the suite's wall time and is not part of
Tier-1.  Its exit code is pytest's.
"""
from __future__ import annotations

import ast
import sys
import threading
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qcolor"


def statements(path: Path) -> dict[int, range]:
    """A file's statements: first line -> the lines whose execution counts
    as running it."""
    out = {}
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if not isinstance(node, ast.stmt) or isinstance(node, (ast.Global, ast.Nonlocal)) or (
                isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):  # a declaration or a docstring
            continue
        start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
        body = getattr(node, "body", None)
        end = body[0].lineno - 1 if body else node.end_lineno
        out[node.lineno] = range(start, max(end, node.lineno) + 1)
    return out


def main(args: list[str]) -> int:
    files = {str(p): p for p in sorted(PACKAGE.glob("*.py"))}
    ran: defaultdict[str, set[int]] = defaultdict(set)

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):  # a call: trace its lines only inside the package
        return local if frame.f_code.co_filename in files else None

    sys.path.insert(0, str(ROOT / "src"))
    import pytest  # before the tracer, so that only qcolor's import is traced

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main(["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider",
                            str(ROOT / "tests"), *args])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    missed = total = 0
    for name, path in files.items():
        stmts = statements(path)
        lines = path.read_text(encoding="utf-8").splitlines()
        unreached = [n for n, own in sorted(stmts.items()) if ran[name].isdisjoint(own)]
        total += len(stmts)
        missed += len(unreached)
        if unreached:
            print(f"{path.relative_to(ROOT)}: {len(unreached)} of {len(stmts)} unreached")
            for n in unreached:
                print(f"  {n}: {lines[n - 1].strip()}")
    print(f"{missed} of {total} statements never ran (pytest exit {int(code)})")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
