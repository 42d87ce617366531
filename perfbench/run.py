"""demandcast benchmark: one run of one workload, result as a JSON line.

    python3 perfbench/run.py --workload protocol --seed 0 --seconds 45 --trace 0

Run from the root of a checkout. Workloads (see README.md):

- ``protocol``: ``bench.run_experiment`` at the paper's default protocol
  (90 synthetic days, 3 samples of 835 examples, 2500 epochs, all four
  models) plus ``bench.emit_report``, repeated while time remains;
- ``cli``: the ``train``/``forecast``/``rules`` commands on a 90-day CSV
  that set-up writes with ``synth``.

With ``--trace 0`` the run prints the end-to-end metrics: set-up time
(median of five fresh processes), peak resident memory of the
workload's own fresh process, and the workload's timings. Times are
wall seconds adjusted for the host's speed (hostspeed.py); the raw wall
seconds are on the info line.
With ``--trace 1`` it runs a traced pass of every workload, whichever
``--workload`` names, each in a fresh process, and prints every
per-layer metric. The last line of standard output is ``{"correct",
"attempted", "failed", "metrics"}``; the line before it holds the
environment, output digests and failure reasons. A child that fails or
outlives the run's time budget gives a failed result (empty metrics)
and exit code 1.
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from worker import ROOT, WORKLOADS

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 5
RUN_BUDGET_S = 170.0       # a whole run, all children included, ends by then
STARTED = time.monotonic()


def declared(kind):
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


class WorkerFailed(Exception):
    """A child exited non-zero or outlived the run's time budget."""


def spawn(workload, seed, seconds, work, *flags):
    """Run worker.py in a fresh interpreter; (spawn time, parsed result).
    A child still running when the run's budget is spent is killed."""
    work.mkdir(parents=True, exist_ok=True)
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--work", str(work),
            *flags]
    label = f"{workload} worker {' '.join(flags)}".strip()
    started = time.monotonic()
    try:
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(0.1, RUN_BUDGET_S - (started - STARTED)))
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"{label} still running when the run's "
                           f"{RUN_BUDGET_S:.0f} s were spent; killed") from None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise WorkerFailed(f"{label} exited {proc.returncode}")
    return started, json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(workload, seed, seconds, work, flags):
    """Untraced run: set-up samples, then the workload in its own process."""
    results = []
    for i in range(SETUP_SAMPLES - 1):
        results.append(spawn(workload, seed, seconds, work / f"setup{i}",
                             "--setup-only", *flags))
    results.append(spawn(workload, seed, seconds, work / "run", *flags))
    setup_wall = [res["ready"] - started for started, res in results]
    setups = [wall * res["setup_speed"]
              for wall, (_, res) in zip(setup_wall, results)]
    setup_cpu = [res["setup_cpu_s"] for _, res in results]
    results = [res for _, res in results]
    res = results[-1]
    adjusted = res["adjusted_s"]
    if workload == "protocol":
        experiment = statistics.median(adjusted["experiment"])
    else:
        # one pass: every train command once, plus the median of each
        # repeated forecast/rules command
        experiment = sum(statistics.median(v) for v in adjusted.values())
    metrics = {"setup_s": statistics.median(setups),
               "peak_rss_mb": res["peak_rss_mb"],
               "experiment_s": experiment}
    res["info"].update(setup_wall_s=setup_wall, setup_adjusted_s=setups,
                       setup_cpu_s=setup_cpu,
                       adjusted_s=adjusted, wall_s=res["wall_s"],
                       host_speed=res["host_speed"], cpu_s=res["cpu_s"])
    units = declared("end_to_end")
    return results, {k: {"value": metrics[k], "unit": u} for k, u in units.items()}


def per_layer(seed, work, flags):
    """Traced run: the minimum pass of every workload, each in its own
    process (--seconds 0: one experiment, one forecast/rules round).
    Every workload is traced, so one call yields every per-layer metric."""
    spec = declared("per_layer")
    results = []
    values = {}
    for workload in WORKLOADS:
        _, res = spawn(workload, seed, 0, work / workload, "--trace", *flags)
        results.append(res)
        values.update(res["per_layer"])
    missing = sorted(set(spec) - set(values))
    if missing:
        raise SystemExit(f"traced run lacks per-layer metrics {missing}")
    return results, {k: {"value": values[k], "unit": spec[k]} for k in spec}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="small inputs, for the benchmark's own self-tests")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "demandcast" / "__init__.py").is_file():
        raise SystemExit(f"no demandcast sources under {ROOT / 'src'}; run "
                         "from the root of a demandcast checkout")
    flags = ["--tiny"] if args.tiny else []
    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=scratch))
    try:
        if args.trace:
            results, metrics = per_layer(args.seed, work, flags)
        else:
            results, metrics = end_to_end(args.workload, args.seed,
                                          args.seconds, work, flags)
    except WorkerFailed as exc:
        print(json.dumps({"info": [], "failures": [str(exc)]}))
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(r["attempted"] for r in results)
    failures = [f for r in results for f in r["failures"]]
    print(json.dumps({"info": [r["info"] for r in results],
                      "failures": failures}))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))


if __name__ == "__main__":
    sys.exit(main())
