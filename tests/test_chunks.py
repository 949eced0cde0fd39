"""The pair runner, and its two users: a pass of at least CHUNK_MIN path-variants runs as
two chunks, and `cbre2 laplace` runs its annealed solve and its direct check as a pair."""

import os
import threading
import time

import numpy as np
import pytest

from cbre2 import cli, simulate
from cbre2.cli import main
from cbre2.errors import ExponentOverflow, MassOverflow
from cbre2.simulate import CHUNK_MIN, PathDump, run_chunks, run_pair, run_pass, scenario_states
from cbre2.truncation import IDENTITY, norm_cap
from tests.conftest import SCENARIO_DIR, bundled_scenario

VERIFY = os.path.join(SCENARIO_DIR, "verify.json")  # six variants in its one pass
LAPLACE = os.path.join(SCENARIO_DIR, "laplace.json")


def _workers(monkeypatch, n):
    """Force the runner's worker count to n (1 or 2) through its CPU helper; a one-CPU host
    lists its CPU twice."""
    cpus = simulate._usable_cpus()
    monkeypatch.setattr(simulate, "_usable_cpus", lambda: (cpus * 2)[:n])


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_the_chunk_rule():
    """Below CHUNK_MIN one chunk on the pass's generator; from it on, ceil(n/2) paths on that
    generator and floor(n/2) on its first spawned child."""
    def task(n, rng):
        return n, rng.random()

    below = run_chunks(task, 5, 3, (CHUNK_MIN - 1) // 5)
    assert below == [(5, np.random.default_rng(3).random())]
    rng = np.random.default_rng(3)
    chunks = [(3, rng.random()), (2, rng.spawn(1)[0].random())]
    assert run_chunks(task, 5, 3, CHUNK_MIN // 5) == chunks


def test_no_fork_while_another_thread_is_alive(monkeypatch):
    def fork():
        raise AssertionError("forked with a second thread alive")

    _workers(monkeypatch, 2)
    monkeypatch.setattr(os, "fork", fork)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        chunks = run_chunks(lambda n, rng: n, 5, 3, CHUNK_MIN)
    finally:
        stop.set()
        thread.join()
    assert chunks == [3, 2]


def test_a_chunked_pass_has_the_same_bytes_with_one_and_two_workers(monkeypatch, tmp_path, capsys):
    """verify.json at 2 * CHUNK_MIN paths writes the same files with one worker and with two,
    only the latter forks, and no child is left after it."""
    forks, fork = [], os.fork

    def counted_fork():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    files = {}
    for n in (1, 2):
        _workers(monkeypatch, n)
        out = tmp_path / str(n)
        argv = ["verify", "--config", VERIFY, "--paths", str(2 * CHUNK_MIN), "--out", str(out)]
        assert main(argv) in (0, 2)
        files[n] = {p.name: p.read_bytes() for p in out.iterdir()}
    assert len(forks) == 1
    assert len(files[1]) == 4 and files[1] == files[2]
    assert capsys.readouterr().err == ""
    _no_child_left()


def test_a_path_dump_crosses_into_chunk_1(monkeypatch):
    """`run_pass` at CHUNK_MIN paths, with a `PathDump` of ceil(n/2) + 3 paths, gives the same
    heads with one worker and with two: every path of chunk 0, then the first 3 of chunk 1, as
    `scenario_stream` runs each chunk on its own generator; no child is left."""
    sc = bundled_scenario("mixed", CHUNK_MIN, 0.2)  # five steps to t = 1
    n_dump = (CHUNK_MIN + 1) // 2 + 3
    heads = {}
    for n in (1, 2):
        _workers(monkeypatch, n)
        _, (dump,) = run_pass(sc, CHUNK_MIN, 5, {}, [PathDump(n_dump, sc.truncation)])
        heads[n] = dump.paths()
    assert heads[1].shape == (n_dump, 6, 4) and np.array_equal(heads[1], heads[2])

    def rows(n, rng):  # (t, X1, X2, xi) of every path of the chunk at each grid time
        stream = simulate.scenario_stream(sc, n, rng)
        return np.stack([np.column_stack((np.full(n, t), x, xi)) for t, (x,), xi in stream], axis=1)

    # through the module, so that a patched `run_chunks` (tools/seed_census.py) sees both passes
    chunk0, chunk1 = simulate.run_chunks(rows, CHUNK_MIN, 5, 1)
    assert len(chunk0) == n_dump - 3
    assert np.array_equal(heads[1], np.concatenate((chunk0, chunk1[:3])))
    _no_child_left()


def test_a_chunked_record_is_joined_once_in_chunk_order(monkeypatch):
    """`scenario_states` at CHUNK_MIN paths and two variants (a chunked pass) gives the same
    array with one worker and with two: chunk 0's paths, then chunk 1's, each as
    `scenario_stream` runs the chunk on its own generator; no child is left."""
    sc = bundled_scenario("mixed", CHUNK_MIN, 0.2)  # five steps to t = 1
    preds = (norm_cap(2.0), IDENTITY)
    states = {}
    for n in (1, 2):
        _workers(monkeypatch, n)
        _, states[n] = scenario_states(sc, CHUNK_MIN, 5, predicates=preds)
    assert states[1].shape == (2, CHUNK_MIN, 6, 2) and np.array_equal(states[1], states[2])

    def rows(n, rng):  # (variants, paths, grid times, 2): every state of the chunk
        stream = simulate.scenario_stream(sc, n, rng, predicates=preds)
        return np.stack([np.stack(xs) for _, xs, _ in stream], axis=2)

    # through the module, so that a patched `run_chunks` (tools/seed_census.py) sees both passes
    chunk0, chunk1 = simulate.run_chunks(rows, CHUNK_MIN, 5, len(preds))
    assert chunk0.shape[1] == chunk1.shape[1] == CHUNK_MIN // 2
    assert np.array_equal(states[1], np.concatenate((chunk0, chunk1), axis=1))
    _no_child_left()


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("chunk", [0, 1])
def test_an_overflow_in_either_chunk_is_one_error_line(
    monkeypatch, tmp_path, capsys, workers, chunk
):
    """An ExponentOverflow raised by chunk 0 or chunk 1 of verify.json's pass (at an odd path
    count, so the chunks differ in size) ends `cbre2 verify` with one error line, exit 1 and
    no output directory, and leaves no child."""
    paths = -(-CHUNK_MIN // 6)
    paths += 1 - paths % 2
    bad = (paths + 1) // 2 if chunk == 0 else paths // 2
    stream = simulate.scenario_stream

    def failing(scenario, n, rng, **kw):
        if n == bad:
            raise ExponentOverflow(f"chunk {chunk} overflows")
        return stream(scenario, n, rng, **kw)

    monkeypatch.setattr(simulate, "scenario_stream", failing)
    _workers(monkeypatch, workers)
    rc = main(["verify", "--config", VERIFY, "--paths", str(paths), "--out", str(tmp_path / "o")])
    out, err = capsys.readouterr()
    assert rc == 1 and out == "" and err == f"error: ExponentOverflow: chunk {chunk} overflows\n"
    assert not (tmp_path / "o").exists()
    _no_child_left()


def _raise(error):
    def half(*args, **kwargs):
        raise error
    return half


def test_a_pair_runs_its_second_half_in_a_child(monkeypatch):
    _workers(monkeypatch, 2)
    here = os.getpid()
    first, second = run_pair(os.getpid, os.getpid)
    assert first == here and second != here
    _no_child_left()


@pytest.mark.parametrize("workers", [1, 2])
def test_the_first_half_s_error_wins(monkeypatch, workers):
    _workers(monkeypatch, workers)
    with pytest.raises(ExponentOverflow, match="first"):
        run_pair(_raise(ExponentOverflow("first")), _raise(MassOverflow("second")))
    with pytest.raises(MassOverflow, match="second"):
        run_pair(lambda: 1, _raise(MassOverflow("second")))
    _no_child_left()


def test_a_child_is_killed_and_reaped_when_the_first_half_raises(monkeypatch):
    _workers(monkeypatch, 2)
    t0 = time.perf_counter()
    with pytest.raises(ExponentOverflow):
        run_pair(_raise(ExponentOverflow("first")), lambda: time.sleep(30))
    assert time.perf_counter() - t0 < 10
    _no_child_left()


def test_a_pair_runs_here_while_another_thread_is_alive(monkeypatch):
    def fork():
        raise AssertionError("forked with a second thread alive")

    _workers(monkeypatch, 2)
    monkeypatch.setattr(os, "fork", fork)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert run_pair(os.getpid, os.getpid) == (os.getpid(), os.getpid())
    finally:
        stop.set()
        thread.join()


@pytest.mark.parametrize("name, paths, pairs", [
    pytest.param("laplace.json", 1000, 1, id="laplace"),
    pytest.param("feller.json", 1000, 1, id="feller"),
    pytest.param("feller.json", CHUNK_MIN, 0, id="feller-chunked"),
])
def test_laplace_has_the_same_bytes_with_one_and_two_workers(
    monkeypatch, tmp_path, capsys, name, paths, pairs
):
    """`cbre2 laplace` pairs its annealed solve with its direct check below CHUNK_MIN paths,
    where the check is one chunk, and runs them in turn from there on, where the check forks
    its own second chunk; its file and its summary line are the same with one worker and
    with two, and no child is left."""
    forks, fork = [], os.fork
    calls, pair = [], run_pair

    def counted_fork():
        forks.append(1)
        return fork()

    def counted_pair(first, second):
        calls.append(1)
        return pair(first, second)

    monkeypatch.setattr(os, "fork", counted_fork)
    monkeypatch.setattr(cli, "run_pair", counted_pair)
    files, outs = {}, {}
    for n in (1, 2):
        _workers(monkeypatch, n)
        out = tmp_path / str(n)
        argv = ["laplace", "--config", os.path.join(SCENARIO_DIR, name), "--paths", str(paths),
                "--out", str(out)]
        assert main(argv) == 0
        files[n] = (out / "laplace.csv").read_bytes()
        outs[n] = capsys.readouterr()
    assert len(forks) == 1 and len(calls) == 2 * pairs
    assert files[1] == files[2] and outs[1] == outs[2] and outs[1].err == ""
    _no_child_left()


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("half", ["annealed", "direct"])
def test_an_overflow_in_either_half_of_laplace_is_one_error_line(
    monkeypatch, tmp_path, capsys, workers, half
):
    """An ExponentOverflow raised by the annealed solve (this process's half) or by the
    direct check (the child's half) ends `cbre2 laplace` with one error line, exit 1 and no
    output directory, and leaves no child."""
    target = "annealed_laplace_mc" if half == "annealed" else "scenario_states"
    monkeypatch.setattr(cli, target, _raise(ExponentOverflow(f"the {half} half overflows")))
    _workers(monkeypatch, workers)
    rc = main(["laplace", "--config", LAPLACE, "--paths", "200", "--out", str(tmp_path / "o")])
    out, err = capsys.readouterr()
    assert rc == 1 and out == "" and err == f"error: ExponentOverflow: the {half} half overflows\n"
    assert not (tmp_path / "o").exists()
    _no_child_left()
