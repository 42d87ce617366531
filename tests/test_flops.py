"""Counting flops never changes what is learned.

Every trainer takes an optional counter and discards the flops without
one. A real ``FlopCounter`` and the default must give the same bits:
EFuNN snapshots, MLP parameters and traces, ARIMA coefficients. Scoring
counts nothing, and a model keeps no counter once it has learned.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from demandcast import arima, bench, mlp
from demandcast.efunn import EfunnConfig, EfunnModel
from demandcast.errors import DemandcastError
from demandcast.flops import DISCARD, MAC_FLOPS, FlopCounter
from demandcast.fuzzy import build_partition

_PROPERTY = settings(max_examples=25, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])
_UNIT = st.floats(0.0, 1.0)


def test_discard_keeps_nothing():
    for count in (lambda c: c.add(3), lambda c: c.add_mac(4),
                  lambda c: c.add_gemm(2, 3, 4),
                  lambda c: c.add_transcendental(5)):
        count(DISCARD)
    assert DISCARD.total == 0


@st.composite
def efunn_streams(draw):
    """A small network's config and partitions, a stream, and inputs to
    score."""
    n_in = draw(st.integers(1, 3))
    mfs = draw(st.integers(2, 4))
    cfg = EfunnConfig(
        sthr=draw(st.floats(0.5, 0.99)), errthr=draw(st.floats(1e-4, 0.5)),
        lr1=draw(st.floats(0.0, 0.5)), lr2=draw(st.floats(0.0, 0.5)),
    )
    partitions = ([build_partition(0.0, 1.0, mfs, name=f"x{i}")
                   for i in range(n_in)], build_partition(0.0, 1.0, mfs, name="y"))
    inputs = st.lists(_UNIT, min_size=n_in, max_size=n_in).map(np.array)
    stream = draw(st.lists(st.tuples(inputs, _UNIT), min_size=1, max_size=30))
    return cfg, partitions, stream, draw(st.lists(inputs, min_size=1, max_size=8))


@_PROPERTY
@given(efunn_streams())
def test_efunn_learns_the_same_bits_with_and_without_a_counter(case):
    cfg, partitions, stream, xs = case
    counted, plain = (EfunnModel(cfg, *partitions) for _ in range(2))
    counter = FlopCounter()
    for x, y in stream:
        assert counted.learn_one(x, y, counter) == plain.learn_one(x, y)
    assert counter.total > 0
    assert counted.to_text() == plain.to_text()
    total = counter.total
    assert counted.predict(np.array(xs)).tolist() == [
        counted.predict(np.array([x]))[0] for x in xs]
    assert counter.total == total  # the model kept no counter


def test_a_stream_of_distinct_examples_learns_fixed_snapshot_bytes():
    # no two of these 400 examples lie within sthr of each other, so each
    # one creates a node
    m = EfunnModel(EfunnConfig(), *bench.make_partitions())
    rng = np.random.default_rng(3)
    created = [m.learn_one(x[:6], float(x[6])).created_node
               for x in rng.uniform(size=(400, 7))]
    assert created == [True] * 400 and m.n_nodes == 400
    assert hashlib.sha256(m.to_text().encode()).hexdigest() == (
        "a2d9bf9e750bce7bd6d047895629358a3505b64fc1856e9865ec4a76c10af8a8")


def test_an_absorbed_example_counts_its_update():
    # after one node, a repeat of its example is absorbed and a far
    # example creates a node, which counts nothing. Both fuzzify and
    # bound the node on its first 8 degrees; the repeat alone then scores
    # every degree of the node (4 flops a degree), blends its w2 and
    # updates it
    counts = {}
    for x in (0.0, 1.0):
        m = EfunnModel(EfunnConfig(), *bench.make_partitions())
        m.learn_one(np.zeros(6), 0.0)
        counter = FlopCounter()
        m.learn_one(np.full(6, x), x, counter)
        counts[x] = counter.total
    assert m.n_nodes == 2
    degrees, outputs = m.input_width, m.output_partition.size
    assert counts[0.0] - counts[1.0] == (4 * degrees + 2 * outputs
                                         + MAC_FLOPS * 2 * (degrees + outputs))


@st.composite
def mlp_problems(draw):
    sizes = (draw(st.integers(1, 4)), draw(st.integers(1, 6)),
             draw(st.integers(1, 2)))
    n = draw(st.integers(1, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return (sizes, draw(st.integers(0, 99)), rng.normal(size=(n, sizes[0])),
            rng.normal(size=(n, sizes[-1])), draw(st.integers(1, 30)))


@_PROPERTY
@given(mlp_problems())
def test_mlp_trains_the_same_bits_with_and_without_a_counter(problem):
    sizes, seed, X, Y, epochs = problem
    cfg = mlp.BpConfig(epochs=epochs)
    for train in (lambda m, c: mlp.bp_train(m, (X, Y), cfg, c),
                  lambda m, c: mlp.scg_train(m, (X, Y), epochs, c)):
        counted, plain = mlp.init_mlp(sizes, seed), mlp.init_mlp(sizes, seed)
        counter = FlopCounter()
        assert train(counted, counter) == train(plain, DISCARD)
        assert counter.total > 0
        assert counted.params.tobytes() == plain.params.tobytes()


def _fit_or_error(series, spec, *counter):
    try:
        return arima.fit(series, spec, *counter)
    except DemandcastError as exc:
        return f"{type(exc).__name__}: {exc}"


@_PROPERTY
@given(st.integers(0, 2**32 - 1),
       st.sampled_from((arima.ArimaSpec(p=1), arima.ArimaSpec(p=1, q=1),
                        arima.ArimaSpec(p=1, d=1, sq=1, season=4))))
def test_arima_fits_the_same_bits_with_and_without_a_counter(seed, spec):
    rng = np.random.default_rng(seed)
    series = np.cumsum(rng.normal(size=80)) + np.tile(rng.normal(size=4), 20)
    counter = FlopCounter()
    counted = _fit_or_error(series, spec, counter)
    plain = _fit_or_error(series, spec)
    if isinstance(plain, str):
        assert counted == plain
        return
    assert counter.total > 0
    for name in ("intercept", "ar", "ma", "seasonal_ar", "seasonal_ma",
                 "residuals", "sigma2", "iterations"):
        assert np.array_equal(getattr(counted, name), getattr(plain, name),
                              equal_nan=True), name


@pytest.mark.parametrize("name", ["efunn", "mlp-bp", "mlp-scg", "arima"])
def test_train_model_counts_learning_only(name):
    config = bench.ExperimentConfig(epochs=3, mlp_layers=(6, 3, 1),
                                    arima=arima.ArimaSpec(p=1))
    rng = np.random.default_rng(0)
    X, y = rng.uniform(size=(20, 6)), rng.uniform(size=20)
    data = y if name == "arima" else (X, y)  # ARIMA fits the series
    counter = FlopCounter()
    counted = bench.train_model(name, config, data, seed=1, counter=counter)
    total = counter.total
    plain = bench.train_model(name, config, data, seed=1)
    assert total > 0
    assert counted.train_rmse == plain.train_rmse
    assert counter.total == total
    if name == "arima":
        assert counted.train_rmse is counted.predict is None
        assert counted.epochs == counted.model.iterations
        assert counted.model.ar.tolist() == plain.model.ar.tolist()
    else:
        assert counted.predict(X).tolist() == plain.predict(X).tolist()
