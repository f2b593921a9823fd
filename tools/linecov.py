"""Statement coverage of the ``nsbf`` package, as a pytest plugin.

    PYTHONPATH=tools:src python -m pytest -p linecov [pytest options]

Built on the standard library alone (``coverage`` need not be installed):
``sys.settrace`` and ``threading.settrace`` trace every frame whose code
lives in the package, in the main thread and in each thread a test starts,
from ``pytest_configure`` (before any test module imports the package) to
the end of the session.  The terminal summary then lists, for each module,
its statement count and the first line of each statement that no test ran,
runs of consecutive lines as ``a-b``.

A statement is any statement node of the module's syntax tree except a
docstring.  It counts as run when a line event fires on one of its header
lines: all of its lines for a simple statement, those before its body for
a compound one (``def``, ``if``, ``for``, ``with``, ``try``, ...).  Code that
runs in a child process, such as a CLI test's subprocess, is not seen.
"""

import ast
import importlib.util
import os
import sys
import threading
from collections import defaultdict
from pathlib import Path

_hits = defaultdict(set)  # code file name -> lines with a line event
_watched = {}  # code file name -> whether it is in the package
_root = None  # the package directory, a real path


def _in_package(filename):
    inside = _watched.get(filename)
    if inside is None:
        inside = _watched[filename] = os.path.realpath(filename).startswith(
            _root + os.sep)
    return inside


def _local(frame, event, arg):
    if event == "line":
        _hits[frame.f_code.co_filename].add(frame.f_lineno)
    return _local


def _global(frame, event, arg):
    return _local if _in_package(frame.f_code.co_filename) else None


def _docstrings(tree):
    """The docstring nodes of a module and its classes and functions."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                out.add(first)
    return out


def statements(path):
    """{first line: header lines} of the statements of the file at path."""
    tree = ast.parse(Path(path).read_text(), filename=str(path))
    skip = _docstrings(tree)
    out = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or node in skip:
            continue
        body = getattr(node, "body", None)
        end = node.end_lineno
        if isinstance(body, list) and body:
            end = max(node.lineno, body[0].lineno - 1)
        out[node.lineno] = range(node.lineno, end + 1)
    return out


def _ranges(lines):
    """Sorted line numbers, runs of consecutive numbers as 'a-b'."""
    runs = []
    for line in lines:
        if runs and line == runs[-1][1] + 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(f"{a}" if a == b else f"{a}-{b}" for a, b in runs)


def report(root):
    """(module, statements, first lines of the statements never run) for
    each module under the package directory ``root``."""
    hits = defaultdict(set)
    for filename, lines in _hits.items():
        hits[os.path.realpath(filename)] |= lines
    rows = []
    for path in sorted(Path(root).rglob("*.py")):
        hit = hits[os.path.realpath(path)]
        stmts = statements(path)
        missed = sorted(first for first, lines in stmts.items()
                        if hit.isdisjoint(lines))
        rows.append((path.relative_to(Path(root).parent), len(stmts), missed))
    return rows


def pytest_configure(config):
    global _root
    spec = importlib.util.find_spec("nsbf")
    _root = os.path.realpath(spec.submodule_search_locations[0])
    threading.settrace(_global)
    sys.settrace(_global)


def pytest_sessionfinish(session, exitstatus):
    sys.settrace(None)
    threading.settrace(None)


def pytest_terminal_summary(terminalreporter):
    rows = report(_root)
    write = terminalreporter.write_line
    terminalreporter.section("statements never run")
    for module, count, missed in rows:
        lines = f"  lines {_ranges(missed)}" if missed else ""
        write(f"{str(module):28} {count:5d} stmts {len(missed):4d} missed"
              f"{lines}")
    write(f"{'total':28} {sum(r[1] for r in rows):5d} stmts "
          f"{sum(len(r[2]) for r in rows):4d} missed")
