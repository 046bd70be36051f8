"""The statement scanner of scripts/src_coverage.py, on a toy source; no tracing."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "src_coverage.py"
_spec = importlib.util.spec_from_file_location("src_coverage", _PATH)
src_coverage = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(src_coverage)

TOY = '''"""A module docstring."""
import os
from sys import path


def f(x):
    """A docstring."""
    if x:
        return 1
    else:
        return 2


while True:
    y = (1 +
         2)
    break
try:
    pass
except ValueError:
    z = 3
'''


def test_nothing_ran_lists_every_statement_but_docstrings_defs_and_imports():
    assert src_coverage.unreached(TOY, set()) == [8, 9, 11, 14, 15, 17, 18, 19, 21]


def test_a_statement_is_reached_by_any_of_its_lines_and_a_header_by_its_body():
    # while True: and try: may run no line of their own; their first body
    # statement ran, so they did too; y's second line stands for all of it
    assert src_coverage.unreached(TOY, {8, 9, 16, 17, 19}) == [11, 21]


def test_every_line_run_leaves_nothing():
    assert src_coverage.unreached(TOY, set(range(1, 22))) == []
