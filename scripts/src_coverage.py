"""The statements of src/scatterjoin that a pytest run never reaches.

    python3 scripts/src_coverage.py -q
    python3 scripts/src_coverage.py -q tests/test_engine.py -k sweep

The arguments go to pytest as they are. It runs in this process under a
sys.settrace hook that records the lines run in frames whose code lies in
src/scatterjoin, and nothing else; tests that run the package in a
subprocess are not traced. Then it prints, per module, each statement
that never ran as file:line and its source line, and a count per module.
Docstrings, def and class lines, imports and global/nonlocal
declarations are left out: they run at import or have no code. A
compound statement (if, for, while, try, with, ...) counts as reached
when its header line ran or its first body statement was reached. It
exits 0 whatever pytest's outcome, which it prints. Stdlib and pytest
only; tracing slows the run several times over.
"""

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "scatterjoin"

_SILENT = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom,
           ast.Global, ast.Nonlocal)


def _is_docstring(stmt: ast.stmt) -> bool:
    return (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)
            and isinstance(stmt.value.value, str))


def _blocks(stmt: ast.stmt):
    """stmt's nested statement lists: its body, each handler's or case's
    body, its else and its finally."""
    yield getattr(stmt, "body", [])
    for part in getattr(stmt, "handlers", []) + getattr(stmt, "cases", []):
        yield part.body
    yield getattr(stmt, "orelse", [])
    yield getattr(stmt, "finalbody", [])


def unreached(source: str, ran: set[int]) -> list[int]:
    """The first lines, ascending, of source's statements none of whose own
    lines are in ran. A simple statement's own lines are all its lines; a
    compound one's are its header, up to its first body statement, and it
    is also reached when that statement is."""
    missed = set()

    def reached(stmt: ast.stmt) -> bool:
        body = [[reached(s) for s in block] for block in _blocks(stmt)][0]
        if isinstance(stmt, _SILENT) or _is_docstring(stmt):
            return True
        if body:
            hit = body[0] or not ran.isdisjoint(range(stmt.lineno, stmt.body[0].lineno))
        else:
            hit = not ran.isdisjoint(range(stmt.lineno, stmt.end_lineno + 1))
        if not hit:
            missed.add(stmt.lineno)
        return hit

    for stmt in ast.parse(source).body:
        reached(stmt)
    return sorted(missed)


def trace_pytest(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """pytest.main(args) in this process; (its exit code, file -> lines run)
    for the frames whose code lies in the package."""
    import pytest

    prefix = str(PACKAGE) + "/"
    lines: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            lines[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        lines.setdefault(name, set())
        return local

    sys.path.insert(0, str(PACKAGE.parent))
    threading.settrace(call)
    sys.settrace(call)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), lines


def main(argv: list[str]) -> int:
    code, lines = trace_pytest(argv)
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        rows = source.splitlines()
        missed = unreached(source, lines.get(str(path), set()))
        rel = path.relative_to(ROOT)
        for n in missed:
            print(f"{rel}:{n}: {rows[n - 1].strip()}")
        print(f"{rel}: {len(missed)} statements never ran")
        total += len(missed)
    print(f"{total} statements never ran; pytest exited {code}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
