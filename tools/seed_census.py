"""Seed census: how often each fixed-seed Tier-1 test with a large engine pass fails on
fresh seeds.

From the repository root:

    python tools/seed_census.py                      # this tree, 30 seeds from 1000
    python tools/seed_census.py --tree PARENT --min-path-variants 20000

Step 1 runs the tree's Tier-1 suite once and lists the tests that run an
engine pass of at least W path-variants (V variants times n paths;
W defaults to the tree's `cbre2.simulate.CHUNK_MIN`).  A pass made in a
fixture counts for every test that uses the fixture.  Step 2 reruns
those tests once per fresh seed: on run k each such pass gets seed
first + k in place of its own (the i-th distinct seed that one test
passes gets first + k + 7919 i), and every other pass keeps its seed.
It prints, for each test, on how many of the fresh seeds it failed.

A pass is seen where it starts, at `run_chunks`, which the tree must
have: every engine pass calls it, through `simulate.run_pass` or, in
older trees, from its callers' modules.  The tests, their seeds and their
sizes are not changed.  Each pytest session runs in this process, so a
run takes about the suite's time plus K times that of the listed tests.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import defaultdict

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class Census:
    """A pytest plugin that finds the large passes of each test, or reseeds them."""

    def __init__(self, min_path_variants, fresh=None):
        self.w, self.fresh = min_path_variants, fresh
        self.where = None  # the test or fixture being set up or run
        self.large = set()  # tests and fixtures that made a large pass
        self.uses = {}  # test -> the fixtures it uses
        self.failed = set()
        self.seeds = {}  # this test's original seeds -> their replacements
        self.undo = []

    def pytest_sessionstart(self, session):
        from cbre2 import cli, simulate, verify

        name, original = "run_chunks", simulate.run_chunks
        if self.w is None:
            self.w = simulate.CHUNK_MIN

        def entry(*args, **kw):
            task, n_paths, seed, n_variants = args
            if n_variants * n_paths >= self.w:
                self.large.add(self.where)
                if self.fresh is not None:
                    key = seed if isinstance(seed, int) else id(seed)
                    self.seeds.setdefault(key, self.fresh + 7919 * len(self.seeds))
                    args = args[:2] + (self.seeds[key],) + args[3:]
            return original(*args, **kw)

        for module in (simulate, verify, cli):
            if getattr(module, name, None) is original:
                self.undo.append((module, name, original))
                setattr(module, name, entry)

    def pytest_sessionfinish(self, session):
        for module, name, original in self.undo:
            setattr(module, name, original)

    def pytest_collection_modifyitems(self, items):
        self.uses = {item.nodeid: set(item.fixturenames) for item in items}

    def pytest_runtest_logstart(self, nodeid, location):
        self.where, self.seeds = nodeid, {}

    @pytest.hookimpl(hookwrapper=True)
    def pytest_fixture_setup(self, fixturedef, request):
        test, self.where = self.where, ("fixture", fixturedef.argname)
        yield
        self.where = test

    def pytest_runtest_logreport(self, report):
        if report.failed:
            self.failed.add(report.nodeid)

    def tests(self) -> list[str]:
        fixtures = {w[1] for w in self.large if isinstance(w, tuple)}
        return sorted(t for t, used in self.uses.items() if t in self.large or used & fixtures)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", default=ROOT, help="the source tree (holds src/ and tests/)")
    parser.add_argument("--seeds", type=int, default=30, help="fresh seeds per test (default 30)")
    parser.add_argument("--first", type=int, default=1000, help="the first fresh seed")
    parser.add_argument("--min-path-variants", type=int, default=None,
                        help="W (default: the tree's cbre2.simulate.CHUNK_MIN)")
    args = parser.parse_args(argv)
    tree = os.path.abspath(args.tree)
    sys.path.insert(0, os.path.join(tree, "src"))
    base = [os.path.join(tree, "tests"), "-q", "-p", "no:cacheprovider", "--rootdir", tree,
            "-c", os.path.join(tree, "pyproject.toml")]

    found = Census(args.min_path_variants)
    pytest.main(base, plugins=[found])
    tests = found.tests()
    print(f"\n{len(tests)} tests run a pass of at least {found.w} path-variants")
    fails = defaultdict(list)
    for k in range(args.seeds):
        run = Census(found.w, args.first + k)
        pytest.main(base[1:] + [os.path.join(tree, t) for t in tests], plugins=[run])
        for t in run.failed:
            fails[t].append(args.first + k)
    print(f"\nfailures over {args.seeds} fresh seeds ({args.first}-{args.first + args.seeds - 1}):")
    for t in tests:
        seeds = f" (seeds {fails[t]})" if fails[t] else ""
        print(f"  {t}: {len(fails[t])} of {args.seeds}{seeds}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
