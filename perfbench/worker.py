"""One benchmark workload in a fresh interpreter; prints one JSON line.

run.py starts this file as a child process, so every workload gets its
own peak resident memory and its own import and set-up cost:

    python3 perfbench/worker.py --workload protocol --seed 3 --seconds 45 \\
        --work .perfbench_work/tmpdir [--setup-only] [--trace] [--tiny]

The child imports demandcast from ``src/``, generates its inputs from
the seed, runs the workload's operations in a closed loop (each starts
when the previous one has finished) until the time is up, checks every
output, and prints timings (wall seconds, and wall seconds adjusted for
the host's speed by hostspeed.py), check counts, digests and the
environment.
With ``--trace`` it wraps the library's public functions (tracer.py)
and prints per-layer numbers instead of the end-to-end timings.
"""

import argparse
import contextlib
import csv
import ctypes
import hashlib
import io
import json
import math
import os
import platform
import resource
import sys
import time
from pathlib import Path

import hostspeed

ROOT = Path(__file__).resolve().parents[1]

WORKLOADS = ("protocol", "cli")
CLI_EPOCHS = 100          # the `train --epochs` flag for both MLP trainers
MIN_ROUNDS = 2            # forecast/rules repeats per cli run, at least
FORECAST_ROWS = 96
CLI_FORECASTS = ("efunn", "mlp-scg", "arima")
CLI_TRAINS = ("efunn", "arima", "mlp-scg", "mlp-bp")

# full size, and the tiny size the self-tests use (40 days still spans two
# seasons, which normalization needs)
SIZES = {
    False: {"days": 90, "epochs": 2500, "n_samples": 3, "cli_epochs": CLI_EPOCHS,
            "rounds": MIN_ROUNDS},
    True: {"days": 40, "epochs": 20, "n_samples": 2, "cli_epochs": 5,
           "rounds": 1},
}


class Checks:
    """Operations attempted and failed, with the reason for each failure.

    ``op`` takes every check of one operation; the operation fails when
    any of them does, and counts once either way.
    """

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def op(self, label, *checks):
        self.attempted += 1
        why = [reason for ok, reason in checks if not ok]
        if why:
            self.failures.append(f"{label}: {'; '.join(why)}")
        return not why


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def forecast_rows_ok(path):
    """(ok, reason): FORECAST_ROWS rows of finite numbers after the header."""
    with open(path, newline="") as fh:
        body = list(csv.reader(fh))[1:]
    try:
        finite = all(math.isfinite(float(c)) for row in body for c in row[2:])
    except ValueError:
        finite = False
    return (len(body) == FORECAST_ROWS and finite,
            f"{path.name}: want {FORECAST_ROWS} finite rows, got {len(body)}")


def read_report(path):
    """report.csv rows keyed by model name (comment lines skipped)."""
    with open(path, newline="") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    return {row["model"]: row for row in csv.DictReader(lines)}


def scg_never_rises(path):
    with open(path, newline="") as fh:
        trace = [float(r["rmse"]) for r in csv.DictReader(fh)
                 if r["trainer"] == "mlp-scg"]
    return bool(trace) and all(b <= a for a, b in zip(trace, trace[1:]))


def blas_threads():
    """Thread count of each OpenBLAS loaded in this process (numpy and scipy
    may each bring their own)."""
    with open("/proc/self/maps") as fh:
        paths = sorted({ln.split()[-1] for ln in fh if "openblas" in ln})
    counts = {}
    for path in paths:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_",
                     "scipy_openblas_get_num_threads",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                counts[Path(path).name] = int(fn())
                break
    return counts


def os_threads():
    return len(os.listdir("/proc/self/task"))


def environment(checks, threads_at_import, threads_peak):
    """Versions and thread counts; fails the run if more threads may run
    at once than this process has cores.

    The BLAS pools that exist after import never compute at once (the
    calling thread works in one pool at a time), so at most the widest
    pool plus every thread started since import can run together. With
    no OpenBLAS found the pool width is unknown and counted as one.
    """
    import numpy
    import scipy

    nproc = len(os.sched_getaffinity(0))
    blas = blas_threads()
    started = threads_peak - threads_at_import
    widest = max(blas.values(), default=1)
    checks.op("thread budget",
              (widest + started <= nproc,
               f"widest BLAS pool {widest} + {started} threads started, "
               f"nproc {nproc}"))
    return {"nproc": nproc, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": blas or "unknown",
            "os_threads": {"at_import": threads_at_import, "peak": threads_peak}}


# -- protocol ---------------------------------------------------------------


class Timings:
    """Wall, host-adjusted (hostspeed.py) and CPU seconds per operation
    name, in the order run, and the most OS threads seen after any
    operation. Without a host clock the adjusted seconds are the wall
    seconds."""

    def __init__(self, threads, clock=None):
        self.wall = {}
        self.adjusted = {}
        self.speed = {}
        self.cpu = {}
        self.threads_peak = threads
        self.clock = clock

    @contextlib.contextmanager
    def time(self, name):
        cpu, wall = time.process_time(), time.perf_counter()
        yield
        end = time.perf_counter()
        self.cpu.setdefault(name, []).append(time.process_time() - cpu)
        self.wall.setdefault(name, []).append(end - wall)
        adjusted, speed = (self.clock.adjust(wall, end) if self.clock
                           else (end - wall, 1.0))
        self.adjusted.setdefault(name, []).append(adjusted)
        self.speed.setdefault(name, []).append(speed)
        self.threads_peak = max(self.threads_peak, os_threads())


def run_protocol(size, seed, deadline, work, checks, info, timings):
    from demandcast import bench

    while True:
        out = work / f"report{len(timings.wall.get('experiment', ()))}"
        config = bench.ExperimentConfig(
            synth_days=size["days"], seed=seed, epochs=size["epochs"],
            n_samples=size["n_samples"])
        with timings.time("experiment"):
            report = bench.run_experiment(config)
            bench.emit_report(report, out)
        # the protocol's own wall clocks per model, for the record only
        for o in report.outcomes:
            info.setdefault("bench_wall_s", {}).setdefault(o.model, []).append(
                o.wall_time)
        check_report(out, checks, info)
        if time.perf_counter() + timings.wall["experiment"][-1] > deadline:
            return


def check_report(out, checks, info):
    report = read_report(out / "report.csv")
    rmse = {m: float(r["test_rmse"]) for m, r in report.items()}
    checks.op("experiment",
              (all(math.isfinite(v) for v in rmse.values()), f"rmse {rmse}"),
              (scg_never_rises(out / "convergence.csv"), "mlp-scg trace rose"),
              forecast_rows_ok(out / "forecast.csv"))
    info.setdefault("rmse", rmse)
    info.setdefault("flops", {m: int(r["flops"]) for m, r in report.items()})
    digests = info.setdefault("sha256", [])
    digests.append({name: sha256(out / name)
                    for name in ("report.csv", "forecast.csv")})


# -- cli --------------------------------------------------------------------


def cli_call(argv, out, checks, timings=None, name=None, verify=None):
    """One cli.main call, failed unless it returns 0, writes out and verifies."""
    from demandcast import cli

    Path(out).unlink(missing_ok=True)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        if timings is None:
            rc = cli.main(argv)
        else:
            with timings.time(name):
                rc = cli.main(argv)
    wrote = Path(out).is_file() and Path(out).stat().st_size > 0
    results = [(rc == 0, f"exit {rc}"), (wrote, f"no output {out}")]
    if rc == 0 and wrote and verify is not None:
        results.append(verify(Path(out)))
    checks.op(" ".join(argv[:3]), *results)


def cli_setup(size, seed, work, checks):
    csv_path = work / "demand.csv"
    cli_call(["synth", "--days", str(size["days"]), "--seed", str(seed),
              "--out", str(csv_path)], csv_path, checks)
    return csv_path


def run_cli(size, seed, deadline, work, checks, info, timings, csv_path):
    snap = {m: work / f"{m}.model" for m in CLI_TRAINS}
    for model in CLI_TRAINS:
        argv = ["train", "--model", model, "--data", str(csv_path),
                "--out", str(snap[model])]
        if model.startswith("mlp"):
            argv += ["--epochs", str(size["cli_epochs"])]
        cli_call(argv, snap[model], checks, timings, f"train.{model}")
    info["snapshot_bytes"] = {m: p.stat().st_size for m, p in snap.items()}

    digests = info.setdefault("sha256", {})
    rounds = 0
    while True:
        t_round = time.perf_counter()
        for model in CLI_FORECASTS:
            out = work / f"forecast-{model}.csv"
            cli_call(["forecast", "--snapshot", str(snap[model]), "--data",
                      str(csv_path), "--out", str(out)], out, checks, timings,
                     f"forecast.{model}", forecast_rows_ok)
            digests[out.name] = sha256(out) if out.is_file() else None
        out = work / "rules.txt"
        cli_call(["rules", "--snapshot", str(snap["efunn"]), "--out", str(out)],
                 out, checks, timings, "rules",
                 lambda p: (p.read_text().startswith("IF "), "no IF/THEN rules"))
        rounds += 1
        spent = time.perf_counter() - t_round
        if rounds >= size["rounds"] and time.perf_counter() + spent > deadline:
            return


# -- per-layer numbers from a traced run -----------------------------------


def traced_metrics(workload, spans, traced_total, per_span, info):
    from tracer import cli_command, cli_model, layer_metrics, time_under

    lm = layer_metrics(spans)

    def get(name, key="s"):
        return lm.get(name, {}).get(key, 0)

    def per_call_us(name):
        return 1e6 * get(name) / max(1, get(name, "calls"))

    m = {"dataset.synthesize_s": get("dataset.synthesize"),
         "dataset.encode_s": get("dataset.encode", "self_s"),
         "dataset.encode.calls": get("dataset.encode", "calls")}
    m["fuzzy.fuzzify_vector_s"] = get("fuzzy.fuzzify_vector")
    m["fuzzy.fuzzify_vector.calls"] = get("fuzzy.fuzzify_vector", "calls")

    learn = [s for s in spans if s.name == "efunn.learn_one"]
    nodes = {}
    for s in learn:
        nodes[s.attrs["model"]] = s.attrs["nodes"]
    for op in ("learn_one", "predict"):
        name = f"efunn.{op}"
        m[f"{name}_s"] = get(name)
        m[f"{name}.calls"] = get(name, "calls")
        m[f"{name}_us"] = per_call_us(name)
    m["efunn.nodes"] = max(nodes.values())
    m["efunn.created_ratio"] = (sum(s.attrs["created"] for s in learn)
                                / len(learn))

    m["mlp.gradient_s"] = get("mlp.gradient")
    m["mlp.gradient.calls"] = get("mlp.gradient", "calls")
    m["mlp.gradient_us"] = per_call_us("mlp.gradient")
    m["mlp.bp_train.self_s"] = get("mlp.bp_train", "self_s")
    m["mlp.scg_train.self_s"] = get("mlp.scg_train", "self_s")
    scg = [s for s in spans if s.name == "mlp.scg_train"]
    m["mlp.scg.accepted_ratio"] = (sum(s.attrs["fell"] for s in scg)
                                   / sum(s.attrs["epochs"] for s in scg))
    m["mlp.forward_s"] = get("mlp.forward")
    m["mlp.forward.calls"] = get("mlp.forward", "calls")

    m["arima.fit_s"] = get("arima.fit")
    m["arima.fit.iterations"] = sum(s.attrs["iterations"] for s in spans
                                    if s.name == "arima.fit")
    m["arima.forecast_s"] = get("arima.forecast")

    if workload == "protocol":
        m["bench.emit_report_s"] = get("bench.emit_report")
        m["bench.report_bytes"] = sum(s.attrs["bytes"] for s in spans
                                      if s.name == "bench.emit_report")
        m["bench.run_experiment.self_s"] = get("bench.run_experiment", "self_s")
        for model, flops in info["flops"].items():
            m[f"flops.{model}"] = flops
            m[f"rmse.{model}"] = info["rmse"][model]
        m["isolation.mlp_gradient"] = get("mlp.gradient") / traced_total
        m["trace.experiment_s"] = traced_total
    else:
        m["dataset.parse_csv_s"] = get("dataset.parse_csv")
        m["dataset.parse_csv.calls"] = get("dataset.parse_csv", "calls")
        m["efunn.extract_rules_s"] = get("efunn.extract_rules")
        for kind in ("efunn", "mlp", "arima"):
            m[f"snapshot.write_s.{kind}"] = get(f"snapshot.write.{kind}")
            m[f"snapshot.read_s.{kind}"] = get(f"snapshot.read.{kind}")
            m[f"snapshot.bytes.{kind}"] = max(
                s.attrs["bytes"] for s in spans
                if s.name == f"snapshot.write.{kind}")
        for command in ("synth", "train", "forecast", "rules"):
            m[f"cli.self_s.{command}"] = sum(
                s.self_s for s in spans
                if s.name == "cli" and cli_command(s) == command)

        def train_efunn(span):
            return span.name == "cli" and cli_model(span) == "efunn"

        blocking = time_under(spans, ("efunn.learn_one", "efunn.predict",
                                      "snapshot.write.efunn"), train_efunn)
        m["isolation.train_efunn"] = blocking / traced_total
        m["trace.train.efunn_s"] = traced_total
    m["trace.spans"] = len(spans)
    m["trace.overhead_s"] = len(spans) * per_span
    return {f"{workload}.{k}": v for k, v in m.items()}


# -- entry ------------------------------------------------------------------


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args()

    hostspeed.block()      # before numpy starts its BLAS threads
    sys.path.insert(0, str(ROOT / "src"))
    from demandcast import bench, cli  # noqa: F401  (import is set-up cost)
    threads_at_import = os_threads()

    work = Path(args.work)
    size = SIZES[args.tiny]
    if args.trace:
        size = dict(size, rounds=1)
    checks = Checks()
    info = {"workload": args.workload, "seed": args.seed,
            "epochs": size["epochs" if args.workload == "protocol" else "cli_epochs"]}
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer().install()
    csv_path = None
    if args.workload == "cli":
        csv_path = cli_setup(size, args.seed, work, checks)
    ready = time.monotonic()
    result = {"ready": ready, "setup_cpu_s": time.process_time()}
    clock = None
    if not args.trace:
        clock = hostspeed.HostClock()
        result["setup_speed"] = clock.calibrate()
        if args.setup_only:
            clock = None
        else:
            clock.install()
    timings = Timings(max(threads_at_import, os_threads()), clock)
    if not args.setup_only:
        deadline = time.perf_counter() + args.seconds
        if args.workload == "protocol":
            run_protocol(size, args.seed, deadline, work, checks, info, timings)
        else:
            run_cli(size, args.seed, deadline, work, checks, info, timings,
                    csv_path)
        result.update(wall_s=timings.wall, adjusted_s=timings.adjusted,
                      host_speed=timings.speed, cpu_s=timings.cpu)
    if clock is not None:
        clock.uninstall()
    if tracer is not None:
        tracer.uninstall()
        from tracer import per_span_cost

        total = timings.wall["experiment" if args.workload == "protocol"
                             else "train.efunn"][0]
        result["per_layer"] = traced_metrics(args.workload, tracer.spans, total,
                                             per_span_cost(), info)
        tracer.write(ROOT / ".perfbench_work"
                     / f"spans-{args.workload}-seed{args.seed}.jsonl")
    info["env"] = environment(checks, threads_at_import, timings.threads_peak)
    result.update(info=info, attempted=checks.attempted, failures=checks.failures,
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                  / 1024.0)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
