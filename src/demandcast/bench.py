"""Benchmark harness: the full model comparison under one protocol.

One experiment draws several random training samples from a demand
series, trains the evolving fuzzy network in a single pass and the
feedforward network with both trainers on each sample, fits the
seasonal Box-Jenkins model once on the contiguous training series, and
scores every model on the held-out final two days (96 half-hours).
Following the source protocol, the headline number per model is the
worst test RMSE over the samples; per-sample detail is retained.

The networks forecast the window recursively, a day at a time: each
day's lag-48 inputs are the previous day's predictions (recorded
demand for the first day), so one day's half-hours go to a model in
one batch. ARIMA runs its own recursion.

emit_report writes four files: a comparison table (report.csv), the
per-period forecasts in demand units (forecast.csv), per-epoch training
curves (convergence.csv), and a small hand-rolled SVG chart. Report
numbers contain no wall-clock values, so identical seeds reproduce the
CSV files byte for byte.

Every fit runs in a child process forked for it, one per core, each
with one OpenBLAS thread: a weight gradient summed over the batch rows
splits that sum across BLAS threads, so its bits would depend on their
number. Processes, unlike threads, do not share one interpreter lock.
With no OpenBLAS found, the fits run one after another in the calling
process.
"""

import contextlib
import ctypes
import functools
import math
import os
import pickle
import select
import signal
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from . import arima as arima_mod
from . import dataset, fuzzy, mlp, snapshot
from . import efunn as efunn_mod
from .config import check_finite
from .dataset import FEATURE_NAMES, HALF_HOURS_PER_DAY
from .efunn import EfunnConfig, EfunnModel
from .errors import ConfigError, DataError, DegenerateError
from .flops import DISCARD, FlopCounter
from .fuzzy import build_partition
from .mlp import BpConfig

HOLDOUT_PERIODS = 96  # two days of half-hours
MF_COUNT = 4  # Gaussian membership functions per variable


@dataclass(frozen=True)
class Forecaster:
    """What the protocol and its report know of a model; how it is fitted
    is ``train_model``'s."""

    rank: int  # fits start in rank order, the longest first
    color: str  # its line in forecast.svg
    # fitted once on the series before the test window, not per sample,
    # and forecasts the window from its own state
    on_series: bool = False


# every model, in report order
FORECASTERS = {
    "efunn": Forecaster(rank=1, color="#c0392b"),
    "mlp-bp": Forecaster(rank=0, color="#2980b9"),
    "mlp-scg": Forecaster(rank=0, color="#27ae60"),
    "arima": Forecaster(rank=2, color="#8e44ad", on_series=True),
}


@dataclass
class ExperimentConfig:
    """Data source, sampling protocol, and per-model settings for one run."""

    csv_path: Optional[str] = None
    synth_days: int = 90
    seed: int = 0
    training_fraction: float = 0.2
    n_samples: int = 3
    epochs: int = 2500
    mlp_layers: tuple = (6, 40, 40, 1)
    bp_epsilon: float = 0.01
    bp_alpha: float = 0.9
    efunn: EfunnConfig = field(default_factory=EfunnConfig)
    # weekly pre-differencing, then (1,1,1)(1,0,1) at the daily period
    arima: arima_mod.ArimaSpec = arima_mod.ArimaSpec(
        p=1, d=1, q=1, sp=1, sd=0, sq=1, season=48, pre_diff_lag=336)
    models: tuple = tuple(FORECASTERS)

    def __post_init__(self):
        check_finite(self)
        if not 0.0 < self.training_fraction <= 1.0:
            raise ConfigError(
                f"training fraction must be in (0, 1], got {self.training_fraction}"
            )
        if self.n_samples < 1:
            raise ConfigError(f"n_samples must be >= 1, got {self.n_samples}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        unknown = [m for m in self.models if m not in FORECASTERS]
        if unknown:
            raise ConfigError(f"unknown model names {unknown}; "
                              f"pick from {tuple(FORECASTERS)}")
        repeated = sorted({m for m in self.models if self.models.count(m) > 1})
        if repeated:
            raise ConfigError(f"models lists {', '.join(repeated)} more "
                              "than once")
        if not self.models:
            raise ConfigError("at least one model must be enabled")


@dataclass
class SampleOutcome:
    """One model trained on one sample, scored on the test window."""

    model: str
    sample: int
    epochs: int
    train_rmse: Optional[float]
    test_rmse: float
    flops: int
    wall_time: float
    predictions: np.ndarray
    trace: Optional[list] = None
    nodes: Optional[int] = None


@dataclass
class BenchReport:
    config: ExperimentConfig
    outcomes: list
    worst: dict
    actuals: np.ndarray
    timestamps: list
    test_start: int
    training_examples: int


def make_partitions():
    """Input and output membership partitions over the normalized range."""
    inputs = [
        build_partition(0.0, 1.0, MF_COUNT, name)
        for name in FEATURE_NAMES
    ]
    output = build_partition(0.0, 1.0, MF_COUNT, dataset.TARGET_NAME)
    return inputs, output


def holdout(records, lookback: int, source):
    """(demand array, test_start) of ``records``, whose final
    ``HOLDOUT_PERIODS`` are the test window. Training examples before it
    read ``lookback`` records back (a day for lag-48 inputs, none for
    ARIMA) and one must be left; ``arima.fit`` checks what an ARIMA spec
    needs beyond that."""
    minimum = lookback + HOLDOUT_PERIODS + 1
    if len(records) < minimum:
        raise DataError(
            f"{source}: need at least {minimum} records, got {len(records)}"
        )
    demand = np.array([r.demand for r in records])
    return demand, demand.size - HOLDOUT_PERIODS


def training_pool(records, test_start: int):
    """Normalized inputs and targets of every record before the test window.

    The pool starts one day in, where the lag-48 input first exists;
    returns (x, y, stats) with the stats fitted on the pool alone. A
    variable constant over the pool fails with the pool's span named.
    """
    raw = dataset.encode_features(records, HALF_HOURS_PER_DAY, test_start)
    try:
        stats = dataset.fit_norm(raw)
    except DegenerateError as exc:
        first, last = (records[i].timestamp.strftime("%Y-%m-%d %H:%M")
                       for i in (HALF_HOURS_PER_DAY, test_start - 1))
        raise DegenerateError(
            f"{exc} (the training pool, {first} to {last}): the series is "
            "too short, or the variable never changes") from None
    return (*dataset.apply_norm(raw, stats), stats)


def recursive_forecast(records, stats, predict, test_start):
    """Normalized and demand-unit predictions over the test window.

    Inside the window the lag-48 input is the model's own prediction a
    day earlier, the only input a prediction feeds back; before it,
    recorded demand. So the window is forecast in blocks of one day, one
    ``predict`` call each (normalized rows in, normalized outputs out):
    block 0 reads recorded demand, block b block b - 1's predictions.
    """
    day = HALF_HOURS_PER_DAY
    norm = np.empty(HOLDOUT_PERIODS)
    demand = np.empty(HOLDOUT_PERIODS)
    for lo in range(0, HOLDOUT_PERIODS, day):
        hi = lo + day
        prev = demand[lo - day : hi - day] if lo else None
        raw = dataset.encode_features(records, test_start + lo,
                                      test_start + hi, prev)
        norm[lo:hi] = predict(dataset.apply_norm(raw, stats)[0])
        demand[lo:hi] = dataset.denorm_target(norm[lo:hi], stats)
    return norm, demand


def run_experiment(config: ExperimentConfig) -> BenchReport:
    """Train and score every enabled model; returns the full report."""
    if config.csv_path is not None:
        records = dataset.parse_csv(config.csv_path)
    else:
        records = dataset.synthesize(config.synth_days, config.seed)
    demand, test_start = holdout(
        records, HALF_HOURS_PER_DAY,
        config.csv_path or f"{config.synth_days}-day synthetic series")

    pool_x, pool_y, stats = training_pool(records, test_start)
    samples = dataset.sample_training(
        pool_y, config.training_fraction, config.seed, config.n_samples
    )
    for idx in samples:
        # test-window isolation: sampled vectors must end before the window
        assert int(idx.max()) + HALF_HOURS_PER_DAY < test_start

    actual = demand[test_start:]
    actual_norm = dataset.norm_target(actual, stats)
    timestamps = [r.timestamp for r in records[test_start:]]

    def run(s, name):
        counter = FlopCounter()
        seed = config.seed * 1000 + 101 + s
        if FORECASTERS[name].on_series:
            trained = train_model(name, config, demand[:test_start], seed,
                                  counter)
            preds = arima_mod.forecast(trained.model, HOLDOUT_PERIODS)
            norm_preds = dataset.norm_target(preds, stats)
        else:
            data = pool_x[samples[s]], pool_y[samples[s]]
            trained = train_model(name, config, data, seed, counter)
            norm_preds, preds = recursive_forecast(records, stats,
                                                   trained.predict, test_start)
        return SampleOutcome(
            model=name, sample=s, epochs=trained.epochs,
            train_rmse=trained.train_rmse,
            test_rmse=mlp.rmse(norm_preds, actual_norm),
            flops=counter.total, wall_time=trained.wall_time,
            predictions=preds, trace=trained.trace,
            nodes=getattr(trained.model, "n_nodes", None),
        )

    # a model fitted on the series is fitted once; the longest fits start
    # first, so that the short ones fill the tail. Every job before a
    # failing one has started, so the failure raised is the earliest in
    # this list
    order = [(s, name) for s in range(len(samples)) for name in config.models]
    jobs = sorted((job for job in order
                   if job[0] == 0 or not FORECASTERS[job[1]].on_series),
                  key=lambda job: FORECASTERS[job[1]].rank)
    with one_blas_thread():
        done = dict(zip(jobs, _run_all([functools.partial(run, *job)
                                        for job in jobs])))
    outcomes = [done.get(job) or replace(done[0, job[1]], sample=job[0])
                for job in order]

    worst = {}
    for name in config.models:
        rows = [o for o in outcomes if o.model == name]
        worst[name] = max(rows, key=lambda o: o.test_rmse)
    return BenchReport(
        config=config,
        outcomes=outcomes,
        worst=worst,
        actuals=actual,
        timestamps=timestamps,
        test_start=test_start,
        training_examples=len(samples[0]),
    )


@dataclass
class TrainedModel:
    """One model fitted to its training data and scored on it."""

    model: object  # an EfunnModel, mlp.MlpModel or arima.ArimaFit
    # normalized input rows -> normalized demand; None for ARIMA
    predict: Optional[Callable]
    train_rmse: Optional[float]
    wall_time: float  # seconds of learning, scoring excluded
    epochs: int  # passes over the data; ARIMA's estimation iterations
    trace: Optional[list] = None


def train_model(name: str, config: ExperimentConfig, data, seed: int,
                counter=DISCARD) -> TrainedModel:
    """Fit the model ``name`` under ``config``; flops of learning (not of
    scoring) go to ``counter``.

    ``data`` is the demand before the test window for arima, the
    normalized (inputs, targets) of the training examples for efunn,
    mlp-bp and mlp-scg. ``seed`` initializes an MLP. MLP bits equal the
    protocol's when the call runs inside ``one_blas_thread()``, as
    ``run_experiment`` and ``cli train`` do.
    """
    t0 = time.perf_counter()
    predict, epochs, trace = None, config.epochs, None
    if name == "arima":
        model = arima_mod.fit(data, config.arima, counter)
        epochs = model.iterations
    elif name == "efunn":
        model = EfunnModel(config.efunn, *make_partitions())
        for x, y in zip(*data):
            model.learn_one(x, y, counter)
        predict, epochs = model.predict, 1
    else:
        model = mlp.init_mlp(config.mlp_layers, seed)
        if name == "mlp-bp":
            cfg = BpConfig(epsilon=config.bp_epsilon, alpha=config.bp_alpha,
                           epochs=config.epochs)
            trace = mlp.bp_train(model, data, cfg, counter)
        else:
            trace = mlp.scg_train(model, data, config.epochs, counter=counter)
        predict = functools.partial(mlp.forward, model)
    wall = time.perf_counter() - t0
    train_rmse = None if predict is None else mlp.rmse(predict(data[0]),
                                                       data[1])
    return TrainedModel(model, predict, train_rmse, wall, epochs, trace)


# -- fits in child processes -----------------------------------------------


@functools.cache
def _openblas():
    """(get, set) of the thread count of the OpenBLAS numpy loaded, found
    by its mapping in /proc/self/maps; None when there is none."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({ln.split()[-1] for ln in fh if "openblas" in ln})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:  # a mapping whose file was replaced: "(deleted)"
            continue
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = (), ctypes.c_int
                put.argtypes, put.restype = (ctypes.c_int,), None
                return get, put
    return None


@contextlib.contextmanager
def one_blas_thread():
    """OpenBLAS on one thread inside the block, its count restored after;
    nothing changes when no OpenBLAS is found."""
    blas = _openblas()
    if blas is None:
        yield
        return
    get, put = blas
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)


def _functions(*owners) -> dict:
    return {(o.__name__, k): v for o in owners for k, v in vars(o).items()
            if callable(v)}


# the functions a fit calls, as defined; see _workers
_LAYERS = (dataset, fuzzy, efunn_mod, EfunnModel, mlp, arima_mod)
_DEFINED = _functions(*_LAYERS)


def _workers(jobs: int) -> int:
    """One child process per core, each using one BLAS thread.

    One worker, the calling process itself, when BLAS threads cannot be
    pinned, or when a caller has replaced a function that a fit calls:
    such a wrapper (a profiler's call stack, a counter) would see the
    calls of a child in the child alone, and lose them when it exits.
    """
    if _openblas() is None or _functions(*_LAYERS) != _DEFINED:
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), jobs))


def _run_all(jobs) -> list:
    """Results of the callables ``jobs``, in order.

    With one worker (see _workers) the calling process runs them in
    turn. Otherwise each job runs in a child forked for it, at most
    ``_workers(len(jobs))`` at once, which sends its result or exception
    back pickled through a pipe; a child that ends without one fails its
    job with ChildProcessError.

    Jobs start in list order, and after a failure no job starts. Once
    the running ones have ended, the earliest failure is raised: every
    job before it had started, so running the list in turn would have
    raised the same. An interrupt of the calling thread kills and reaps
    the running children and propagates as itself.
    """
    workers = _workers(len(jobs))
    if workers == 1:
        return [job() for job in jobs]
    results = [None] * len(jobs)
    failures = {}
    running = {}  # read end of a child's pipe -> (job index, pid, label)
    pending = iter(range(len(jobs)))
    try:
        while True:
            while len(running) < workers and not failures:
                i = next(pending, None)
                if i is None:
                    break
                label = f"job {i} ({jobs[i]!r})"
                fd, pid = _fork(jobs[i], label)
                running[fd] = (i, pid, label)
            if not running:
                break
            for fd in select.select(list(running), [], [])[0]:
                i, pid, label = running[fd]
                ok, value = _receive(fd, pid, label)
                del running[fd]
                os.close(fd)
                if ok:
                    results[i] = value
                else:
                    failures[i] = value
    finally:
        for fd, (_, pid, _) in running.items():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(fd)
    if failures:
        raise failures[min(failures)]
    return results


def _fork(job, label):
    """(read end of a pipe, pid) of a child that runs ``job`` and writes
    ``(True, result)`` or ``(False, exception)`` to the pipe, pickled."""
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        raise
    if pid:
        os.close(w)
        return r, pid
    status = 1  # an interrupt or exit in the job leaves no result
    try:
        os.close(r)
        try:
            out = (True, job())
        except Exception as exc:
            out = (False, exc)
        with open(w, "wb") as fh:
            fh.write(_pickled(out, label))
        status = 0
    finally:
        os._exit(status)


def _pickled(out, label) -> bytes:
    """``out`` pickled, or, when it does not survive the round trip, an
    error that names what could not be sent."""
    try:
        data = pickle.dumps(out)
        pickle.loads(data)
        return data
    except Exception as exc:
        ok, value = out
        what = (f"returned a {type(value).__qualname__}" if ok
                else f"raised {type(value).__qualname__}: {value}")
        return pickle.dumps((False, ChildProcessError(
            f"{label} {what}, which cannot be sent back: "
            f"{type(exc).__name__}: {exc}")))


def _receive(fd, pid, label):
    """(ok, value) that the child ``pid`` wrote to ``fd``, read to its
    end; the child is reaped."""
    chunks = []
    while chunk := os.read(fd, 1 << 16):
        chunks.append(chunk)
    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code == 0 and chunks:
        return pickle.loads(b"".join(chunks))
    how = (f"exit status {code}" if code >= 0
           else f"signal {signal.Signals(-code).name}")
    return False, ChildProcessError(f"{label} ended without a result: {how}")


# -- report files ----------------------------------------------------------


def _fmt(x) -> str:
    return "-" if x is None else snapshot.format_value(x)


def emit_report(report: BenchReport, out_dir) -> list:
    """Write report.csv, forecast.csv, convergence.csv, forecast.svg."""
    out = Path(out_dir)
    paths = []
    try:
        out.mkdir(parents=True, exist_ok=True)
        for name, render in (("report.csv", _report_csv),
                             ("forecast.csv", _forecast_csv),
                             ("convergence.csv", _convergence_csv),
                             ("forecast.svg", _forecast_svg)):
            paths.append(out / name)
            paths[-1].write_text("\n".join(render(report)) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write report into {out}: {exc}") from exc
    return paths


def _report_csv(report: BenchReport) -> list:
    cfg = report.config
    lines = [
        "# demand forecasting benchmark",
        f"# protocol: worst of {cfg.n_samples} training samples of "
        f"{report.training_examples} examples; test window = final "
        f"{HOLDOUT_PERIODS} half-hours; RMSE on the normalized [0,1] "
        "demand scale",
        "# mlp test forecasts reuse their own predictions for lag-48 inputs "
        "inside the test window",
        "# arima: positive MA signs (y_t = ... + e_t + theta_1 e_{t-1}); "
        "fitted once on the contiguous training series, so per-sample "
        "columns repeat it; its epochs column counts estimation iterations",
    ]
    header = ["model", "learning_epochs", "train_rmse", "test_rmse", "flops"]
    for s in range(cfg.n_samples):
        header += [f"train_rmse_s{s}", f"test_rmse_s{s}", f"flops_s{s}"]
    lines.append(",".join(header))
    for name in cfg.models:
        w = report.worst[name]
        row = [name, _fmt(w.epochs), _fmt(w.train_rmse), _fmt(w.test_rmse),
               _fmt(w.flops)]
        per_sample = {o.sample: o for o in report.outcomes if o.model == name}
        for s in range(cfg.n_samples):
            o = per_sample[s]
            row += [_fmt(o.train_rmse), _fmt(o.test_rmse), _fmt(o.flops)]
        lines.append(",".join(row))
    return lines


def forecast_lines(timestamps, actual, columns: dict) -> list:
    """Forecast CSV: period, timestamp, actual demand, one column per entry."""
    lines = [",".join(["period", "timestamp", "actual_mwh", *columns])]
    for k, ts in enumerate(timestamps):
        row = [str(k + 1), ts.isoformat(), _fmt(actual[k])]
        lines.append(",".join(row + [_fmt(p[k]) for p in columns.values()]))
    return lines


def _forecast_csv(report: BenchReport) -> list:
    return forecast_lines(report.timestamps, report.actuals, {
        name.replace("-", "_") + "_mwh": report.worst[name].predictions
        for name in report.config.models})


def _convergence_csv(report: BenchReport) -> list:
    lines = ["trainer,epoch,rmse"]
    for name in FORECASTERS:
        if name in report.worst and report.worst[name].trace:
            for epoch, value in enumerate(report.worst[name].trace, start=1):
                lines.append(f"{name},{epoch},{_fmt(value)}")
    return lines


def _forecast_svg(report: BenchReport) -> list:
    """Minimal polyline chart of the test window, no plotting library."""
    width, height = 960, 420
    left, right, top, bottom = 60, 150, 20, 40
    plot_w = width - left - right
    plot_h = height - top - bottom
    series = [("actual", "#222222", report.actuals)]
    for name in report.config.models:
        series.append((name, FORECASTERS[name].color,
                       report.worst[name].predictions))
    lo = min(float(np.min(v)) for _, _, v in series)
    hi = max(float(np.max(v)) for _, _, v in series)
    if hi <= lo:
        hi = lo + 1.0

    def sx(i):
        return left + plot_w * i / (HOLDOUT_PERIODS - 1)

    def sy(v):
        return top + plot_h * (1.0 - (v - lo) / (hi - lo))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{top + plot_h}" '
        'stroke="#999"/>',
        f'<line x1="{left}" y1="{top + plot_h}" x2="{left + plot_w}" '
        f'y2="{top + plot_h}" stroke="#999"/>',
    ]
    for k in range(5):
        v = lo + (hi - lo) * k / 4
        y = sy(v)
        parts.append(
            f'<text x="{left - 8:.1f}" y="{y + 4:.1f}" text-anchor="end" '
            f'font-size="11" fill="#555">{v:.0f}</text>'
        )
        parts.append(
            f'<line x1="{left}" y1="{y:.1f}" x2="{left + plot_w}" '
            f'y2="{y:.1f}" stroke="#eee"/>'
        )
    for k in range(0, HOLDOUT_PERIODS, 12):
        x = sx(k)
        parts.append(
            f'<text x="{x:.1f}" y="{top + plot_h + 16}" text-anchor="middle" '
            f'font-size="11" fill="#555">{k + 1}</text>'
        )
    parts.append(
        f'<text x="{left + plot_w / 2:.1f}" y="{height - 6}" '
        'text-anchor="middle" font-size="12" fill="#333">half-hour period'
        "</text>"
    )
    for row, (name, color, values) in enumerate(series):
        pts = " ".join(
            f"{sx(i):.2f},{sy(float(v)):.2f}" for i, v in enumerate(values)
        )
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            'stroke-width="1.5"/>'
        )
        ly = top + 14 + 18 * row
        lx = left + plot_w + 12
        parts.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{lx + 28}" y="{ly}" font-size="12" '
            f'fill="#333">{name}</text>'
        )
    parts.append("</svg>")
    return parts
