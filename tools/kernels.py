"""EFuNN kernel timings, written to a JSON trend file.

    PYTHONPATH=src python3 tools/kernels.py --out BENCH_<n>.json

The data is the training pool of ``synth --days 90 --seed 0``, as
``train`` and ``bench`` build it (4176 normalized examples before the
two-day test window). For each prefix length in ``EXAMPLES`` the
script times, on one BLAS thread and through public entry points only:

- ``learn``: a fresh ``EfunnModel`` learning the prefix with
  ``learn_one``, one example at a time (the defaults grow 100, 800 and
  3619 rule nodes);
- ``predict_block``: ``predict`` of the test window's first day (48
  rows, the block ``recursive_forecast`` scores first);
- ``predict_train``: ``predict`` of the prefix's own rows.

Each time is the minimum over ``REPEATS`` runs, in seconds, with the
flops the run counted beside it. The file also records the numpy
version and the OpenBLAS core numpy loaded.
"""

import argparse
import ctypes
import json
import platform
import sys
import time
from pathlib import Path

import numpy as np

from demandcast import bench, dataset
from demandcast.efunn import EfunnConfig, EfunnModel
from demandcast.flops import FlopCounter

EXAMPLES = (117, 922, 4176)
REPEATS = 5


def blas_core() -> str:
    """The OpenBLAS kernel numpy loaded, found by its mapping in
    /proc/self/maps; "unknown" without one."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({ln.split()[-1] for ln in fh if "openblas" in ln})
    except OSError:
        paths = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("scipy_openblas_get_corename64_", "openblas_get_corename"):
            get = getattr(lib, name, None)
            if get is not None:
                get.argtypes, get.restype = (), ctypes.c_char_p
                return get().decode()
    return "unknown"


def timed(run, repeats: int):
    """(minimum seconds, flops, result) of ``run(counter)`` over
    ``repeats`` calls; the flops are the last call's."""
    best = float("inf")
    for _ in range(repeats):
        counter = FlopCounter()
        t0 = time.perf_counter()
        result = run(counter)
        best = min(best, time.perf_counter() - t0)
    return best, counter.total, result


def learn(x, y, counter) -> EfunnModel:
    model = EfunnModel(EfunnConfig(), *bench.make_partitions())
    for row, target in zip(x, y):
        model.learn_one(row, target, counter)
    return model


def measure(examples, repeats: int) -> dict:
    records = dataset.synthesize(90, 0)
    _, test_start = bench.holdout(records, dataset.HALF_HOURS_PER_DAY, "synth")
    x, y, stats = bench.training_pool(records, test_start)
    block = dataset.apply_norm(dataset.encode_features(
        records, test_start, test_start + dataset.HALF_HOURS_PER_DAY), stats)[0]
    rows = []
    for k in examples:
        learn_s, learn_flops, model = timed(
            lambda c, k=k: learn(x[:k], y[:k], c), repeats)
        block_s, block_flops, _ = timed(
            lambda c: model.predict(block, c), repeats)
        train_s, train_flops, _ = timed(
            lambda c, k=k: model.predict(x[:k], c), repeats)
        rows.append(dict(examples=k, nodes=model.n_nodes,
                         learn_s=learn_s, learn_flops=learn_flops,
                         predict_block_s=block_s,
                         predict_block_flops=block_flops,
                         predict_train_s=train_s,
                         predict_train_flops=train_flops))
    return dict(numpy=np.__version__, openblas_core=blas_core(),
                python=platform.python_version(), repeats=repeats, efunn=rows)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True,
                        help="JSON file to write; the trend files are "
                        "BENCH_<n>.json at the repository root")
    args = parser.parse_args(argv)
    with bench.one_blas_thread():
        result = measure(EXAMPLES, REPEATS)
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    for row in result["efunn"]:
        print(f"{row['examples']:5d} examples {row['nodes']:5d} nodes: "
              f"learn {row['learn_s']:.4f} s, "
              f"predict 48 rows {row['predict_block_s']:.4f} s, "
              f"predict train {row['predict_train_s']:.4f} s")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
