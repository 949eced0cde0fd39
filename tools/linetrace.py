"""pytest plugin: list the statements of `src/cbre2` that no test executed.

From the repository root:  python -m pytest -q -p tools.linetrace

It traces with `sys.settrace`, which slows the suite down (by about 40%).
Code run in a subprocess (the demos, some CLI tests) is not seen, and
lines marked `pragma: no cover` are not listed.
"""

import functools
import os
import sys

SRC = os.path.realpath(os.path.join(os.path.dirname(__file__), "..", "src", "cbre2"))
hits = set()


@functools.cache
def _ours(filename):
    path = os.path.realpath(filename)
    return path if path.startswith(SRC + os.sep) else None


def _line(frame, event, arg):
    if event == "line":
        hits.add((_ours(frame.f_code.co_filename), frame.f_lineno))
    return _line


def _call(frame, event, arg):
    return _line if _ours(frame.f_code.co_filename) else None


def _statements(path):
    with open(path) as f:
        source = f.read()
    todo, lines = [compile(source, path, "exec")], set()
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    skip = {i for i, text in enumerate(source.splitlines(), 1) if "pragma: no cover" in text}
    return lines - skip


def pytest_load_initial_conftests(early_config, parser, args):
    sys.settrace(_call)


def pytest_terminal_summary(terminalreporter):
    sys.settrace(None)
    terminalreporter.section("statements no test executed")
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            path = os.path.join(SRC, name)
            missed = sorted(n for n in _statements(path) if (path, n) not in hits)
            terminalreporter.write_line(f"{name}: {', '.join(map(str, missed)) or 'none'}")
