"""The protocol's fits run in forked child processes, one BLAS thread each.

Their bytes depend neither on the BLAS thread count nor on the number
of workers; a failing fit raises what a serial run raises; no more fit
processes compute at once than the process has cores, and the calling
process starts no thread; a child that ends without a result fails
loudly; no child process or file descriptor outlives a run; and wrapped
layer functions keep the fits in the calling process, in turn.

The fits are observed from inside the children: each appends one record
to a file opened with O_APPEND, in a single write, so records of
concurrent children never interleave.
"""

import contextlib
import inspect
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import demandcast
from demandcast import arima, bench, cli, dataset, efunn, fuzzy, mlp
from demandcast.errors import ConvergenceError, DivergenceError


def _recording(log, train_model):
    """``train_model`` wrapped so that each fit appends "pid start end
    blas-threads" to the file descriptor ``log`` in one write."""
    def recorded(*args, **kwargs):
        start = time.monotonic()
        try:
            return train_model(*args, **kwargs)
        finally:
            blas = bench._openblas()
            os.write(log, (f"{os.getpid()} {start} {time.monotonic()} "
                           f"{blas[0]() if blas else 0}\n").encode())
    return recorded


_SCRIPT = f"""
import os, sys, time
from pathlib import Path

out, mode = Path(sys.argv[1]), sys.argv[2]
if mode == "pin":
    os.sched_setaffinity(0, {{min(os.sched_getaffinity(0))}})

from demandcast import bench
from demandcast.cli import main

if mode == "serial":
    bench._workers = lambda jobs: 1

{inspect.getsource(_recording)}
train_model = bench.train_model
log = os.open(out / "fits.log", os.O_WRONLY | os.O_CREAT | os.O_APPEND)
bench.train_model = _recording(log, train_model)
config = bench.ExperimentConfig(synth_days=90, seed=1, epochs=20, n_samples=2)
bench.emit_report(bench.run_experiment(config), out / "report")
bench.train_model = train_model
data = str(out / "demand.csv")
assert main(["synth", "--days", "40", "--seed", "2", "--out", data]) == 0
assert main(["train", "--model", "mlp-scg", "--data", data, "--epochs", "5",
             "--out", str(out / "scg.snap")]) == 0
print(os.getpid(), bench._workers(4))
"""


def _records(path):
    """(pid, start, end, BLAS threads) of every fit, as the fits wrote them."""
    return [(int(pid), float(start), float(end), int(blas))
            for pid, start, end, blas in
            (line.split() for line in Path(path).read_text().splitlines())]


def _most_at_once(records) -> int:
    """The most fits whose spans overlap at one instant."""
    events = sorted([(start, 1) for _, start, _, _ in records]
                    + [(end, -1) for _, _, end, _ in records])
    live = most = 0
    for _, step in events:
        live += step
        most = max(most, live)
    return most


def _run(tmp_path, mode, **env):
    out = tmp_path / mode
    out.mkdir()
    src = str(Path(demandcast.__file__).resolve().parents[1])
    env = dict(os.environ, **env, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", _SCRIPT, str(out), mode],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    pid, workers = (int(t) for t in proc.stdout.split()[-2:])
    files = {p: (out / p).read_bytes() for p in
             ("report/report.csv", "report/forecast.csv",
              "report/convergence.csv", "report/forecast.svg", "scg.snap")}
    return files, pid, workers, _records(out / "fits.log")


def test_bytes_do_not_depend_on_blas_threads_or_workers(tmp_path):
    if bench._openblas() is None:
        pytest.skip("BLAS threads are pinned through OpenBLAS only")
    one, _, _, _ = _run(tmp_path, "blas1", OPENBLAS_NUM_THREADS="1")
    two, pid, workers, fits = _run(tmp_path, "blas2", OPENBLAS_NUM_THREADS="2")
    pinned, pinned_pid, pinned_workers, pinned_fits = _run(tmp_path, "pin")
    serial, serial_pid, _, serial_fits = _run(tmp_path, "serial")
    for name in one:
        assert one[name] == two[name], name
        assert one[name] == pinned[name], name
        assert one[name] == serial[name], name
    nproc = len(os.sched_getaffinity(0))
    assert workers == min(nproc, 4)
    # EFuNN and both MLP trainers on each of two samples, and ARIMA once
    assert len(fits) == len(pinned_fits) == len(serial_fits) == 7
    assert {blas for *_, blas in fits + pinned_fits + serial_fits} == {1}
    assert 1 <= _most_at_once(fits) <= workers
    if workers > 1:
        # a child forked for each fit
        pids = {p for p, *_ in fits}
        assert len(pids) == 7 and pid not in pids
    assert pinned_workers == 1
    assert {p for p, *_ in pinned_fits} == {pinned_pid}
    assert {p for p, *_ in serial_fits} == {serial_pid}
    assert _most_at_once(pinned_fits) == _most_at_once(serial_fits) == 1


def _blas_threads():
    blas = bench._openblas()
    return blas[0]() if blas else None


@contextlib.contextmanager
def _leaves_nothing():
    """Asserts that the block leaves no child process and no open file
    descriptor behind it."""
    fds = len(os.listdir("/proc/self/fd"))
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert len(os.listdir("/proc/self/fd")) == fds


def test_a_failing_fit_raises_what_a_serial_run_raises(monkeypatch):
    config = bench.ExperimentConfig(synth_days=40, seed=1, epochs=50,
                                    n_samples=2, bp_epsilon=1e9,
                                    models=("mlp-scg", "mlp-bp"))
    threads, blas = threading.active_count(), _blas_threads()
    with _leaves_nothing(), pytest.raises(DivergenceError) as concurrent:
        bench.run_experiment(config)
    assert threading.active_count() == threads
    assert _blas_threads() == blas
    monkeypatch.setattr(bench, "_workers", lambda jobs: 1)
    with pytest.raises(DivergenceError) as serial:
        bench.run_experiment(config)
    assert str(concurrent.value) == str(serial.value)


def test_workers_times_blas_threads_stay_within_the_cores(monkeypatch, tmp_path):
    # fit processes at once times BLAS threads each, as the fits see them,
    # and no thread started by the calling process
    nproc = len(os.sched_getaffinity(0))
    started = []
    start = threading.Thread.start

    def counted(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counted)
    log = os.open(tmp_path / "fits.log", os.O_WRONLY | os.O_CREAT | os.O_APPEND)
    try:
        monkeypatch.setattr(bench, "train_model",
                            _recording(log, bench.train_model))
        with _leaves_nothing():
            bench.run_experiment(bench.ExperimentConfig(
                synth_days=40, seed=1, epochs=200, n_samples=3,
                models=("mlp-bp", "mlp-scg")))
    finally:
        os.close(log)
    fits = _records(tmp_path / "fits.log")
    assert len(fits) == 6
    blas = max(b for *_, b in fits) or 1
    assert _most_at_once(fits) * blas <= nproc
    assert started == []
    if bench._workers(6) > 1:
        assert blas == 1
        assert os.getpid() not in {p for p, *_ in fits}


class _TwoArgs(Exception):
    """Pickles, but does not unpickle: its constructor wants two args."""

    def __init__(self, a, b):
        super().__init__(a)


def _job(log, i, fail=(), sleep=0.0):
    def run():
        os.write(log, f"{i}\n".encode())
        time.sleep(sleep)
        if i in fail:
            raise ValueError(i)
        return i
    return run


def _ran(path):
    return [int(t) for t in Path(path).read_text().split()]


def test_every_job_runs_once_and_the_earliest_failure_is_raised(monkeypatch,
                                                                tmp_path):
    # more workers than cores; job 70 fails after jobs behind it have
    # failed, and its failure is still the one raised
    monkeypatch.setattr(bench, "_workers", lambda jobs: 8)
    path = tmp_path / "ran.log"
    log = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
    try:
        with _leaves_nothing():
            assert bench._run_all([_job(log, i) for i in range(200)]) == list(
                range(200))
        assert sorted(_ran(path)) == list(range(200))
        os.truncate(path, 0)
        with _leaves_nothing(), pytest.raises(ValueError) as failed:
            bench._run_all([_job(log, i, fail={70, 72, 150},
                                 sleep=0.3 if i == 70 else 0.0)
                            for i in range(200)])
    finally:
        os.close(log)
    assert failed.value.args == (70,)
    ran = _ran(path)
    assert set(range(73)) <= set(ran)
    assert 150 not in ran
    assert len(set(ran)) == len(ran)


def test_an_interrupt_of_the_calling_thread_propagates_as_itself(monkeypatch,
                                                                 tmp_path):
    # the jobs after the first fail while it runs; then it interrupts the
    # calling process: the interrupt still wins, no further job starts,
    # and the running child is killed rather than waited for
    monkeypatch.setattr(bench, "_workers", lambda jobs: 4)
    path = tmp_path / "ran.log"
    log = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
    caller = os.getpid()

    def job(i):
        def run():
            os.write(log, f"{i}\n".encode())
            if i:
                raise ValueError(i)
            time.sleep(0.5)
            os.kill(caller, signal.SIGINT)
            time.sleep(60)
        return run

    handler = signal.signal(signal.SIGINT, signal.default_int_handler)
    t0 = time.monotonic()
    try:
        with _leaves_nothing(), pytest.raises(KeyboardInterrupt):
            bench._run_all([job(i) for i in range(100)])
    finally:
        signal.signal(signal.SIGINT, handler)
        os.close(log)
    assert time.monotonic() - t0 < 30
    assert sorted(_ran(path)) == [0, 1, 2, 3]


def _exit_3():
    os._exit(3)


def _killed():
    os.kill(os.getpid(), signal.SIGKILL)


def _interrupted():
    raise KeyboardInterrupt


@pytest.mark.parametrize("job, status", [
    (_exit_3, "exit status 3"),
    (_killed, "signal SIGKILL"),
    (_interrupted, "exit status 1"),
])
def test_a_child_without_a_result_raises_child_process_error(monkeypatch, job,
                                                              status):
    monkeypatch.setattr(bench, "_workers", lambda jobs: 2)
    with _leaves_nothing(), pytest.raises(ChildProcessError) as failed:
        bench._run_all([lambda: 0, job])
    assert f"job 1 ({job!r}) ended without a result: {status}" == str(
        failed.value)


def _local_exception():
    class Local(Exception):
        pass
    raise Local("boom")


def _two_args():
    raise _TwoArgs("boom", 2)


@pytest.mark.parametrize("job, names", [
    (lambda: lambda: 0, "returned a function"),
    (_local_exception, "raised _local_exception.<locals>.Local: boom"),
    (_two_args, "raised _TwoArgs: boom"),
])
def test_what_cannot_be_pickled_reaches_the_caller_by_name(monkeypatch, job,
                                                            names):
    monkeypatch.setattr(bench, "_workers", lambda jobs: 2)
    with _leaves_nothing(), pytest.raises(ChildProcessError) as failed:
        bench._run_all([lambda: 0, job])
    assert str(failed.value).startswith(f"job 1 ({job!r}) {names}, which "
                                        "cannot be sent back: ")


def test_an_error_from_a_child_keeps_its_attributes(monkeypatch):
    def job():
        raise ConvergenceError("stopped", last_params=np.array([1.5, -2.0]))

    monkeypatch.setattr(bench, "_workers", lambda jobs: 2)
    with _leaves_nothing(), pytest.raises(ConvergenceError) as failed:
        bench._run_all([lambda: 0, job])
    assert str(failed.value) == "stopped"
    assert failed.value.last_params.tolist() == [1.5, -2.0]


def test_bench_exits_1_naming_a_child_that_ended_without_a_result(
        monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(bench, "train_model", lambda *a, **k: os._exit(3))
    monkeypatch.setattr(bench, "_workers", lambda jobs: 2)
    with _leaves_nothing():
        assert cli.main(["bench", "--days", "40", "--epochs", "2",
                         "--out", str(tmp_path / "report")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: job 0 (") and "exit status 3" in err


@pytest.mark.parametrize("owner, name", [
    (dataset, "apply_norm"), (fuzzy, "fuzzify_rows"),
    (efunn, "fuzzify_vector"), (efunn.EfunnModel, "learn_one"),
    (mlp, "gradient"), (arima, "fit"),
])
def test_a_wrapped_function_of_any_fit_keeps_the_fits_in_the_caller(
        monkeypatch, owner, name):
    if bench._openblas() is None:
        pytest.skip("without OpenBLAS the fits always run in the caller")
    fn = getattr(owner, name)
    assert bench._workers(4) == min(len(os.sched_getaffinity(0)), 4)
    monkeypatch.setattr(owner, name, lambda *a, **k: fn(*a, **k))
    assert bench._workers(4) == 1


def test_wrapped_layer_functions_keep_the_fits_in_turn(monkeypatch):
    # a wrapper that keeps one call stack for the whole process, as a
    # profiler may, sees every gradient inside a trainer of its own thread
    config = bench.ExperimentConfig(synth_days=40, seed=1, epochs=20,
                                    n_samples=2, models=("mlp-bp", "mlp-scg"))
    plain = bench.run_experiment(config)
    stack, calls = [], []

    def wrap(fn, name):
        def wrapper(*args, **kwargs):
            calls.append((name, stack[-1] if stack else None))
            stack.append((name, threading.get_ident()))
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
        return wrapper

    for name in ("bp_train", "scg_train", "gradient"):
        monkeypatch.setattr(mlp, name, wrap(getattr(mlp, name), name))
    assert bench._workers(4) == 1
    wrapped = bench.run_experiment(config)
    me = threading.get_ident()
    assert {parent for name, parent in calls if name == "gradient"} <= {
        ("bp_train", me), ("scg_train", me)}
    assert len(calls) > 4 * config.epochs
    for a, b in zip(plain.outcomes, wrapped.outcomes):
        assert np.array_equal(a.predictions, b.predictions)
        assert a.trace == b.trace
