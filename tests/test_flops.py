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
    score. Small budgets send the stream down the at-budget branch."""
    n_in = draw(st.integers(1, 3))
    mfs = draw(st.integers(2, 4))
    cfg = EfunnConfig(
        sthr=draw(st.floats(0.5, 0.99)), errthr=draw(st.floats(1e-4, 0.5)),
        lr1=draw(st.floats(0.0, 0.5)), lr2=draw(st.floats(0.0, 0.5)),
        max_nodes=draw(st.sampled_from((1, 3, 100000))),
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


def test_at_budget_stream_learns_fixed_snapshot_bytes():
    # every example past the first 20 is absorbed by the nearest node
    m = EfunnModel(EfunnConfig(max_nodes=20), *bench.make_partitions())
    rng = np.random.default_rng(3)
    created = [m.learn_one(x[:6], float(x[6])).created_node
               for x in rng.uniform(size=(400, 7))]
    assert created == [True] * 20 + [False] * 380 and m.n_nodes == 20
    assert hashlib.sha256(m.to_text().encode()).hexdigest() == (
        "e701139d64df3efea6b1e77241e42783c9bda1ac7b562dbf574bf8a77cd7514e")


def test_an_update_at_the_node_budget_counts_its_flops():
    # the second example is far from the first node: a network at its
    # budget updates that node where an unbounded one creates a node,
    # which counts nothing. The network at its budget reads every input
    # degree of the node (4 flops a degree), the unbounded one only the
    # 8 its bound reads before it drops the node; beyond that only the
    # update tells the counts apart
    models, counts = {}, {}
    for max_nodes in (1, 100000):
        m = models[max_nodes] = EfunnModel(EfunnConfig(max_nodes=max_nodes),
                                           *bench.make_partitions())
        m.learn_one(np.zeros(6), 0.0)
        counter = FlopCounter()
        m.learn_one(np.ones(6), 1.0, counter)
        counts[max_nodes] = counter.total
    m = models[1]
    assert m.n_nodes == 1  # its one node moved toward the second example
    assert m.w1[0].tolist() != m.fuzzify_input(np.zeros(6)).tolist()
    assert models[100000].n_nodes == 2
    degrees = m.fuzzify_input(np.ones(6)).size
    width = degrees + m.output_partition.size
    assert counts[1] - counts[100000] == (4 * (degrees - 8)
                                          + MAC_FLOPS * 2 * width)


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
