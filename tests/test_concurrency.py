"""The protocol's MLP fits run at once, one BLAS thread each.

Their bytes depend neither on the BLAS thread count nor on the number
of worker threads; a failing fit raises what a serial run raises; no
more threads compute at once than the process has cores; and wrapped
layer functions see the fits in turn.
"""

import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import demandcast
from demandcast import bench, mlp
from demandcast.errors import DivergenceError

_SCRIPT = """
import os, sys, threading
from pathlib import Path

out, pin = Path(sys.argv[1]), sys.argv[2] == "pin"
if pin:
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

from demandcast import bench
from demandcast.cli import main

idents = set()
train_model = bench.train_model

def counted(*args, **kwargs):
    idents.add(threading.get_ident())
    return train_model(*args, **kwargs)

bench.train_model = counted
config = bench.ExperimentConfig(synth_days=90, seed=1, epochs=20, n_samples=2)
bench.emit_report(bench.run_experiment(config), out / "report")
fits = len(idents)
data = str(out / "demand.csv")
assert main(["synth", "--days", "40", "--seed", "2", "--out", data]) == 0
assert main(["train", "--model", "mlp-scg", "--data", data, "--epochs", "5",
             "--out", str(out / "scg.snap")]) == 0
print(bench._workers(4), fits)
"""


def _run(tmp_path, name, pin=False, **env):
    out = tmp_path / name
    out.mkdir()
    src = str(Path(demandcast.__file__).resolve().parents[1])
    env = dict(os.environ, **env, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT, str(out), "pin" if pin else "-"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    workers, fits = (int(t) for t in proc.stdout.split()[-2:])
    files = {p: (out / p).read_bytes() for p in
             ("report/report.csv", "report/forecast.csv", "scg.snap")}
    return files, workers, fits


def test_bytes_do_not_depend_on_blas_threads_or_workers(tmp_path):
    if bench._openblas() is None:
        pytest.skip("BLAS threads are pinned through OpenBLAS only")
    one, _, _ = _run(tmp_path, "blas1", OPENBLAS_NUM_THREADS="1")
    two, workers, fits = _run(tmp_path, "blas2", OPENBLAS_NUM_THREADS="2")
    pinned, pinned_workers, pinned_fits = _run(tmp_path, "pinned", pin=True)
    for name in one:
        assert one[name] == two[name], name
        assert one[name] == pinned[name], name
    assert pinned_workers == pinned_fits == 1
    nproc = len(os.sched_getaffinity(0))
    assert workers == min(nproc, 4)
    assert 1 <= fits <= workers


def _blas_threads():
    blas = bench._openblas()
    return blas[0]() if blas else None


def test_a_failing_fit_raises_what_a_serial_run_raises(monkeypatch):
    config = bench.ExperimentConfig(synth_days=40, seed=1, epochs=50,
                                    n_samples=2, bp_epsilon=1e9,
                                    models=("mlp-scg", "mlp-bp"))
    threads, blas = threading.active_count(), _blas_threads()
    with pytest.raises(DivergenceError) as concurrent:
        bench.run_experiment(config)
    assert threading.active_count() == threads
    assert _blas_threads() == blas
    monkeypatch.setattr(bench, "_workers", lambda jobs: 1)
    with pytest.raises(DivergenceError) as serial:
        bench.run_experiment(config)
    assert str(concurrent.value) == str(serial.value)


def test_workers_times_blas_threads_stay_within_the_cores(monkeypatch):
    # the widest BLAS pool plus the threads started, as the benchmark
    # counts them, and live fits times BLAS threads
    nproc = len(os.sched_getaffinity(0))
    threads = threading.active_count()
    lock = threading.Lock()
    live = [0]
    seen = []
    train_model = bench.train_model

    def watched(*args, **kwargs):
        with lock:
            live[0] += 1
            blas = _blas_threads() or 1
            seen.append(max(live[0] * blas,
                            blas + threading.active_count() - threads))
        try:
            return train_model(*args, **kwargs)
        finally:
            with lock:
                live[0] -= 1

    monkeypatch.setattr(bench, "train_model", watched)
    bench.run_experiment(bench.ExperimentConfig(
        synth_days=40, seed=1, epochs=200, n_samples=3,
        models=("mlp-bp", "mlp-scg")))
    assert len(seen) == 6
    assert max(seen) <= nproc



def test_every_job_runs_once_and_the_earliest_failure_is_raised(monkeypatch):
    # more threads than cores and a short switch interval, so a job handed
    # out twice or never would show
    monkeypatch.setattr(bench, "_workers", lambda jobs: 8)
    threads, interval = threading.active_count(), sys.getswitchinterval()
    ran = []

    def job(i, fail=()):
        def run():
            ran.append(i)
            if i in fail:
                raise ValueError(i)
            return i
        return run

    sys.setswitchinterval(1e-6)
    try:
        assert bench._run_all([job(i) for i in range(2000)]) == list(range(2000))
        assert sorted(ran) == list(range(2000))
        ran.clear()
        with pytest.raises(ValueError) as failed:
            bench._run_all([job(i, fail={700, 1500}) for i in range(2000)])
    finally:
        sys.setswitchinterval(interval)
    assert failed.value.args == (700,)
    assert sorted(ran)[:701] == list(range(701))
    assert len(set(ran)) == len(ran)
    assert threading.active_count() == threads


def test_an_interrupt_of_the_calling_thread_propagates_as_itself(monkeypatch):
    # helpers' jobs, earlier in the list, fail while the calling thread's
    # job runs; the interrupt still wins and no further job starts
    monkeypatch.setattr(bench, "_workers", lambda jobs: 4)
    threads = threading.active_count()
    main = threading.main_thread()
    main_started = threading.Event()
    ran = []

    def job(i):
        def run():
            ran.append(i)
            if threading.current_thread() is main:
                main_started.set()
                time.sleep(0.05)
                raise KeyboardInterrupt
            main_started.wait(5)
            raise ValueError(i)
        return run

    with pytest.raises(KeyboardInterrupt):
        bench._run_all([job(i) for i in range(100)])
    assert threading.active_count() == threads
    assert len(ran) == 4


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
    for a, b in zip(plain.outcomes, wrapped.outcomes):
        assert np.array_equal(a.predictions, b.predictions)
        assert a.trace == b.trace
