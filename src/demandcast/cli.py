"""Command-line front end.

Five subcommands: ``synth`` writes a synthetic demand CSV, ``train``
fits one model and writes a text snapshot, ``forecast`` replays a
snapshot against a CSV, ``bench`` runs the full comparison, and
``rules`` prints the linguistic rules of a trained fuzzy network.

train and forecast share a holdout convention: the final 96 half-hours
(two days) of the CSV are never trained on, and forecast predicts
exactly that window. Exit codes: 0 on success, 1 for usage, config, or
data problems, 2 when an estimator fails to converge, and 141 (128 +
SIGPIPE, as the shell reports a command killed by it) when the reader
of standard output closes it early.
"""

import argparse
import dataclasses
import os
import sys

import numpy as np

from . import __version__
from . import arima as arima_mod
from . import bench, dataset, mlp, snapshot
from .bench import HOLDOUT_PERIODS
from .config import finite_float, read_config, scalar_fields
from .dataset import HALF_HOURS_PER_DAY, NormStats
from .efunn import EfunnConfig, EfunnModel
from .errors import (ConvergenceError, DataError, DemandcastError,
                     DivergenceError, ParseError)


class _Parser(argparse.ArgumentParser):
    # usage problems are exit code 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _seed(text: str) -> int:
    """A ``--seed``: numpy's generators take non-negative integers only."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {text!r}")
    return int(text)


def _parse_names(text: str) -> tuple:
    return tuple(text.replace(",", " ").split())


def _parse_layers(text: str) -> tuple:
    sizes = tuple(int(t) for t in _parse_names(text))
    if len(sizes) < 2 or sizes[0] != 6 or sizes[-1] != 1:
        raise ValueError(
            f"layer list must run from 6 inputs to 1 output, got {sizes}"
        )
    return sizes


# the ExperimentConfig field each mlp config key sets
_MLP_SETTINGS = dict(layers="mlp_layers", epsilon="bp_epsilon", alpha="bp_alpha")
_TRAIN_KEYS = {"efunn": scalar_fields(EfunnConfig),
               "mlp-bp": dict(layers=_parse_layers, epsilon=finite_float,
                              alpha=finite_float),
               "mlp-scg": dict(layers=_parse_layers),
               "arima": scalar_fields(arima_mod.ArimaSpec)}
_BENCH_KEYS = dict(training_fraction=finite_float, n_samples=int,
                   bp_epsilon=finite_float, bp_alpha=finite_float,
                   mlp_layers=_parse_layers, models=_parse_names)


def _norm_extra(stats: NormStats) -> dict:
    return {
        "norm.mins": snapshot.format_array(stats.mins),
        "norm.maxs": snapshot.format_array(stats.maxs),
    }


def _stats_from_extra(extra: dict, path) -> NormStats:
    """The training bounds a snapshot carries: a finite min and max for
    each feature and the target, each max above its min."""
    if "norm.mins" not in extra or "norm.maxs" not in extra:
        raise DataError(
            f"snapshot {path} lacks normalization stats; retrain to forecast"
        )
    width = len(dataset.FEATURE_NAMES) + 1
    bounds = []
    for key in ("norm.mins", "norm.maxs"):
        where = f"{path}: snapshot key 'extra.{key}'"
        try:
            values = snapshot.parse_finite(extra[key])
        except ParseError as exc:
            raise ParseError(f"{where}: {exc}") from None
        if values.size != width:
            raise DataError(f"{where} holds {values.size} values, "
                            f"expected {width}")
        bounds.append(values)
    mins, maxs = bounds
    if not (maxs > mins).all():
        raise DataError(f"{path}: snapshot key 'extra.norm.maxs' is not "
                        "above 'extra.norm.mins' in every column")
    return NormStats(mins, maxs)


def _check_trained_on(fit, extra: dict, demand, test_start, path,
                      data) -> None:
    """Refuse an ARIMA fit on any CSV but its own: it forecasts its tail."""
    rows = extra.get("trained.rows")
    if rows is not None and rows != str(demand.size):
        raise DataError(f"snapshot {path} was trained on {rows} rows, "
                        f"{data} has {demand.size}")
    stages = fit.training_tail.stages
    if stages:
        lag, anchor = stages[0]
        if not np.array_equal(anchor, demand[test_start - lag:test_start]):
            raise DataError(f"snapshot {path} was not trained on {data}: "
                            "its last pre-holdout values differ")


# -- subcommands -----------------------------------------------------------


def _cmd_synth(args) -> int:
    cfg = dataset.SynthConfig.from_file(args.config) if args.config else None
    records = dataset.synthesize(args.days, args.seed, cfg)
    dataset.write_csv(records, args.out)
    print(f"wrote {len(records)} half-hourly records "
          f"({args.days} days, seed {args.seed}) to {args.out}")
    return 0


def _cmd_train(args) -> int:
    folder = os.path.dirname(args.out) or "."  # a bad --out fails at once
    if os.path.isdir(args.out) or not os.access(folder, os.W_OK | os.X_OK):
        raise DataError(f"cannot write snapshot {args.out}: it is a "
                        f"directory, or {folder} is not a writable one")
    kv = (read_config(args.config, _TRAIN_KEYS[args.model], args.model)
          if args.config else {})
    if args.model == "efunn":
        settings = {"efunn": EfunnConfig(**kv)}
    elif args.model == "arima":
        settings = {"arima": dataclasses.replace(bench.ExperimentConfig.arima,
                                                 **kv)}
    else:  # scg has no settings beyond the layers
        settings = {_MLP_SETTINGS[k]: v for k, v in kv.items()}
    config = bench.ExperimentConfig(epochs=args.epochs, **settings)
    records = dataset.parse_csv(args.data)
    if args.model == "arima":
        demand, test_start = bench.holdout(records, 0, args.data)
        data, extra = demand[:test_start], {"trained.rows": str(demand.size)}
    else:
        _, test_start = bench.holdout(records, HALF_HOURS_PER_DAY, args.data)
        train_x, train_y, stats = bench.training_pool(records, test_start)
        data, extra = (train_x, train_y), _norm_extra(stats)
        extra["trained.examples"] = str(len(train_y))
    # one BLAS thread gives the MLP bits of the protocol on any machine
    with bench.one_blas_thread():
        trained = bench.train_model(args.model, config, data, args.seed)
    if args.model == "arima":
        arima_mod.save(trained.model, args.out, extra=extra)
        print(f"fitted arima {config.arima.label()} in {trained.epochs} "
              f"iterations (sigma2 {trained.model.sigma2:.6g}); snapshot "
              f"{args.out}")
    elif args.model == "efunn":
        trained.model.save(args.out, extra=extra)
        print(f"trained efunn in 1 pass over {len(train_y)} examples: "
              f"{trained.model.n_nodes} rule nodes, train rmse "
              f"{trained.train_rmse:.4f}; snapshot {args.out}")
    else:
        mlp.save(trained.model, args.out, extra=extra)
        print(f"trained {args.model} for {args.epochs} epochs over "
              f"{len(train_y)} examples: train rmse {trained.train_rmse:.4f} "
              f"(first epoch {trained.trace[0]:.4f}); snapshot {args.out}")
    return 0


def _load(path):
    """(kind, model or fit, extra) of a snapshot forecast can replay: an
    ARIMA fit, or a network from the features to demand."""
    kind = snapshot.read_kind(path)
    if kind == "arima":
        return (kind, *arima_mod.load(path))
    if kind == "efunn":
        model, extra = EfunnModel.load(path)
        if not model.n_nodes:
            raise DataError(f"{path}: the efunn model has no rule nodes; "
                            "retrain it to forecast")
        n_in, n_out = len(model.input_partitions), 1
    elif kind == "mlp":
        model, extra = mlp.load(path)
        n_in, n_out = model.layer_sizes[0], model.layer_sizes[-1]
    else:
        raise ParseError(f"{path}: cannot forecast from snapshot kind {kind!r}")
    want = len(dataset.FEATURE_NAMES)
    if (n_in, n_out) != (want, 1):
        raise DataError(f"{path}: the {kind} model maps {n_in} inputs to "
                        f"{n_out} output(s); forecast needs {want} inputs "
                        "and one output")
    return kind, model, extra


def _cmd_forecast(args) -> int:
    kind, model, extra = _load(args.snapshot)
    records = dataset.parse_csv(args.data)
    lookback = 0 if kind == "arima" else HALF_HOURS_PER_DAY
    demand, test_start = bench.holdout(records, lookback, args.data)

    if kind == "arima":
        _check_trained_on(model, extra, demand, test_start, args.snapshot,
                          args.data)
        preds = arima_mod.forecast(model, HOLDOUT_PERIODS)
    else:
        predict = (model.predict if kind == "efunn"
                   else lambda x: mlp.forward(model, x))
        stats = _stats_from_extra(extra, args.snapshot)
        _, preds = bench.recursive_forecast(records, stats, predict,
                                            test_start)

    actual = demand[test_start:]
    lines = bench.forecast_lines([r.timestamp for r in records[test_start:]],
                                 actual, {"predicted_mwh": preds})
    with open(args.out, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    err = mlp.rmse(preds, actual)
    print(f"forecast {HOLDOUT_PERIODS} periods from {kind} snapshot: "
          f"rmse {err:.1f} MWh; wrote {args.out}")
    return 0


def _cmd_bench(args) -> int:
    cfg_kwargs = (read_config(args.config, _BENCH_KEYS, "bench")
                  if args.config else {})
    cfg_kwargs.update(seed=args.seed, epochs=args.epochs)
    if args.data:
        cfg_kwargs["csv_path"] = args.data
    else:
        cfg_kwargs["synth_days"] = args.days
    config = bench.ExperimentConfig(**cfg_kwargs)
    folder = os.path.abspath(args.out)  # it or a parent may be a file
    while not os.path.exists(folder):
        folder = os.path.dirname(folder)
    if not os.path.isdir(folder):
        raise DataError(f"cannot write report into {args.out}: not a directory")
    report = bench.run_experiment(config)
    paths = bench.emit_report(report, args.out)
    print(f"benchmark on {report.test_start + HOLDOUT_PERIODS} records "
          f"({report.training_examples} training examples per sample, "
          f"worst of {config.n_samples}):")
    for name in config.models:
        w = report.worst[name]
        detail = (f"{w.epochs} epochs" if w.nodes is None
                  else f"{w.nodes} rule nodes")
        print(f"  {name:8s} test rmse {w.test_rmse:.4f}  ({detail})")
    for p in paths:
        print(f"wrote {p}")
    return 0


def _cmd_rules(args) -> int:
    model, _ = EfunnModel.load(args.snapshot)
    rules = model.extract_rules()
    lines = [r.text() for r in rules]
    if args.out:
        with open(args.out, "w") as fh:
            fh.write("\n".join(lines) + ("\n" if lines else ""))
        print(f"wrote {len(lines)} rules to {args.out}")
    else:
        for line in lines:
            print(line)
    return 0


# -- wiring ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="demandcast",
                     description="short-term electricity demand forecasting")
    parser.add_argument("--version", action="version",
                        version=f"demandcast {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic demand CSV")
    p.add_argument("--days", type=int, default=90)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--config", help="generator settings, key=value lines")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser(
        "train",
        help="train one model, holding out the final 96 half-hours",
    )
    p.add_argument("--model", required=True, choices=bench.FORECASTERS)
    p.add_argument("--data", required=True, help="demand CSV")
    p.add_argument("--out", required=True, help="snapshot path")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--epochs", type=int, default=2500)
    p.add_argument("--config", help="model settings, key=value lines")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser(
        "forecast",
        help="predict the final 96 half-hours of a CSV from a snapshot",
    )
    p.add_argument("--snapshot", required=True)
    p.add_argument("--data", required=True,
                   help="demand CSV (for arima, the training CSV)")
    p.add_argument("--out", required=True, help="forecast CSV path")
    p.set_defaults(func=_cmd_forecast)

    p = sub.add_parser("bench", help="run the full model comparison")
    src = p.add_mutually_exclusive_group()
    src.add_argument("--data", help="demand CSV; default is synthetic data")
    src.add_argument("--days", type=int, default=90,
                     help="synthetic series length")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--epochs", type=int, default=2500)
    p.add_argument("--out", required=True, help="report directory")
    p.add_argument("--config", help="protocol settings, key=value lines")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("rules", help="print the rules of a fuzzy snapshot")
    p.add_argument("--snapshot", required=True)
    p.add_argument("--out", help="write rules here instead of stdout")
    p.set_defaults(func=_cmd_rules)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # --help, --version, or a usage error
        return int(exc.code or 0)
    try:
        code = args.func(args)
        sys.stdout.flush()  # so that a closed pipe raises here at the latest
        return code
    except BrokenPipeError:
        # the reader of stdout stopped early (``| head``): exit as the shell
        # reports a command killed by SIGPIPE (128 + 13), writing nothing
        # more to the pipe, not even at the interpreter's final flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ConvergenceError, DivergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DemandcastError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
