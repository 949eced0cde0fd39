"""pytest plugin: list the statements of `src/cbre2` that no test executed.

From the repository root:  python -m pytest -q -p tools.linetrace

It traces with `sys.settrace`, which slows the suite down (by about 40%).
A forked child (a chunk of a large engine pass, a half of `cbre2 laplace`)
inherits the trace; the session wraps `os._exit` so that a child writes
its hits to a file in a session temporary directory before it exits, and
the summary merges them.  Code run in a subprocess that is started anew
(the demos, some CLI tests) is not seen, and lines marked
`pragma: no cover` are not listed.
"""

import functools
import os
import shutil
import sys
import tempfile

SRC = os.path.realpath(os.path.join(os.path.dirname(__file__), "..", "src", "cbre2"))
hits = set()
session = {}  # the session's pid, its temporary directory and the unwrapped os._exit


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


def _exit(status):
    """os._exit, after a forked child has written its hits to the session directory."""
    try:
        if os.getpid() != session["pid"]:
            with open(os.path.join(session["dir"], f"{os.getpid()}.hits"), "w") as f:
                f.writelines(f"{path}\t{line}\n" for path, line in hits)
    finally:  # a child never returns into the session
        session["exit"](status)


def pytest_load_initial_conftests(early_config, parser, args):
    session.update(pid=os.getpid(), dir=tempfile.mkdtemp(prefix="linetrace-"), exit=os._exit)
    os._exit = _exit
    sys.settrace(_call)


def pytest_terminal_summary(terminalreporter):
    sys.settrace(None)
    os._exit = session["exit"]
    for name in os.listdir(session["dir"]):
        with open(os.path.join(session["dir"], name)) as f:
            hits.update((path, int(line)) for path, line in (row.rstrip("\n").split("\t") for row in f))
    shutil.rmtree(session["dir"])
    terminalreporter.section("statements no test executed")
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            path = os.path.join(SRC, name)
            missed = sorted(n for n in _statements(path) if (path, n) not in hits)
            terminalreporter.write_line(f"{name}: {', '.join(map(str, missed)) or 'none'}")
