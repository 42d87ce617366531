"""Fast self-tests of the benchmark itself (not of demandcast).

    python3 -m pytest perfbench -q

The smoke runs use ``--tiny`` inputs (40 days, few epochs), so the
whole file takes well under a minute.
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import tracer  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--seed", "7", "--seconds", "1",
         *args], cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def result(*args):
    proc = run(*args)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0, proc.stdout
    assert out["attempted"] >= 1
    return out


def test_benchmark_json_names_and_bounds():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    names = [m["name"] for kind in ("workloads", "end_to_end", "per_layer")
             for m in SPEC[kind]]
    assert all(NAME.match(n) for n in names)
    assert len(set(m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"])) \
        == len(SPEC["end_to_end"]) + len(SPEC["per_layer"])
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_smoke_emits_every_end_to_end_metric(workload):
    out = result("--workload", workload, "--trace", "0", "--tiny")
    assert list(out["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for m in SPEC["end_to_end"]:
        got = out["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"]) and got["value"] > 0


def test_traced_run_covers_every_per_layer_metric_and_span():
    for stale in (ROOT / ".perfbench_work").glob("spans-*-seed7.jsonl"):
        stale.unlink()
    out = result("--workload", "protocol", "--trace", "1", "--tiny")
    assert list(out["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    for name, got in out["metrics"].items():
        assert math.isfinite(got["value"]), name
        if got["unit"] == "s":
            assert got["value"] > 0, name
    seen = set()
    for path in (ROOT / ".perfbench_work").glob("spans-*-seed7.jsonl"):
        seen |= {json.loads(line)["name"] for line in path.read_text().splitlines()}
    assert seen == {name for _, _, name, _ in tracer._targets()}


def test_tracer_restores_originals_and_records_self_time():
    import numpy as np
    from demandcast import mlp

    before = [(owner, attr, owner.__dict__[attr])
              for owner, attr, _, _ in tracer._targets()]
    t = tracer.Tracer().install()
    try:
        assert all(owner.__dict__[attr] is not raw for owner, attr, raw in before)
        net = mlp.init_mlp((6, 4, 1), seed=0)
        rng = np.random.default_rng(0)
        x = rng.random((5, 6))
        y = rng.random(5)
        mlp.scg_train(net, (x, y), epochs=2)
    finally:
        t.uninstall()
    assert all(owner.__dict__[attr] is raw for owner, attr, raw in before)
    lm = tracer.layer_metrics(t.spans)
    assert lm["mlp.gradient"]["calls"] >= 2
    outer = lm["mlp.scg_train"]
    assert outer["self_s"] == pytest.approx(outer["s"] - lm["mlp.gradient"]["s"])
    assert {s.parent for s in t.spans if s.name == "mlp.gradient"} == {
        next(s.sid for s in t.spans if s.name == "mlp.scg_train")}


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_thread_check_fails_when_threads_are_started():
    import worker

    checks = worker.Checks()
    nproc = len(os.sched_getaffinity(0))
    worker.environment(checks, threads_at_import=3, threads_peak=3 + nproc)
    assert checks.attempted == 1 and len(checks.failures) == 1


def test_timed_out_child_gives_a_failed_result(monkeypatch, capsys):
    import run as run_py

    monkeypatch.setattr(run_py, "RUN_BUDGET_S", 0.0)
    code = run_py.main(["--workload", "protocol", "--seed", "7", "--seconds",
                        "1", "--tiny"])
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert out == {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}


def test_host_clock_scales_by_kernel_speed_and_drops_its_own_time():
    import signal

    import hostspeed

    clock = hostspeed.HostClock()
    ref = hostspeed.REFERENCE_S
    # two samples inside 0..10 s: the kernel ran at half the reference speed
    clock.samples = [(2.0, 2.5, 2 * ref), (6.0, 6.5, 2 * ref)]
    adjusted, speed = clock.adjust(0.0, 10.0)
    assert speed == pytest.approx(0.5)
    assert adjusted == pytest.approx((10.0 - 1.0) * 0.5)
    # a short operation holds no sample and takes the latest ones before it
    clock.samples.append((11.0, 11.1, ref))
    adjusted, speed = clock.adjust(11.2, 11.3)
    assert speed == pytest.approx((0.5 + 0.5 + 1.0) / 3)
    assert adjusted == pytest.approx(0.1 * speed)

    before = signal.getsignal(signal.SIGALRM), signal.pthread_sigmask(
        signal.SIG_BLOCK, set())
    clock.install()
    clock.uninstall()
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert (signal.getsignal(signal.SIGALRM), signal.pthread_sigmask(
        signal.SIG_BLOCK, set())) == before
    assert len(clock.samples) >= 3 + hostspeed.MIN_SAMPLES
