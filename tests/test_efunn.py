import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from demandcast import efunn
from demandcast.efunn import (_SCRATCH, EfunnConfig, EfunnModel, LearnOutcome,
                              _differences)
from demandcast.errors import (CapacityError, ConfigError, DataError,
                               EmptyModelError, ParseError, ShapeError)
from demandcast.fuzzy import (build_partition, defuzzify, fuzzify,
                              fuzzy_difference, mf_labels, satlin)


def make_model(n_inputs=1, mfs=3, **cfg_kwargs):
    inputs = [build_partition(0.0, 1.0, mfs, name=f"x{i}")
              for i in range(n_inputs)]
    output = build_partition(0.0, 1.0, mfs, name="y")
    return EfunnModel(EfunnConfig(**cfg_kwargs), inputs, output)


def _a1(m, ex):
    """A1 activation of every rule node for one fuzzified input."""
    return m._activations(np.asarray(ex, dtype=float)[None, :], m._scratch)[0]


def _distances(m, ex):
    """``m._distances`` of the rows ``ex``, in scratch of their own."""
    return m._distances(ex, np.empty(_SCRATCH * len(ex) * m.n_nodes))


def test_first_example_creates_a_memorizing_node():
    m = make_model()
    out = m.learn_one(np.array([0.3]), 0.7)
    assert out.created_node and out.nodes_total == 1
    assert np.allclose(m.w1[0], fuzzify(0.3, m.input_partitions[0]))
    assert np.allclose(m.w2[0], fuzzify(0.7, m.output_partition))


def test_repeated_example_is_absorbed_without_growth():
    m = make_model()
    m.learn_one(np.array([0.3]), 0.7)
    out = m.learn_one(np.array([0.3]), 0.7)
    assert not out.created_node
    assert out.output_error == pytest.approx(0.0, abs=1e-12)
    assert m.n_nodes == 1


def test_distant_example_creates_a_second_node():
    m = make_model()
    m.learn_one(np.array([0.2]), 0.5)
    out = m.learn_one(np.array([0.5]), 0.5)
    assert out.created_node and m.n_nodes == 2


def _one_node(w1, w2, lr1, lr2):
    m = make_model(mfs=2, lr1=lr1, lr2=lr2)
    m.create_rule_node(np.array(w1), np.array(w2))
    return m


def test_update_node_input_centroid_drift_oracle():
    m = _one_node([0.4, 0.4], [0.5, 0.5], lr1=0.05, lr2=0.0)
    m._absorb(0, np.array([0.8, 0.8]), np.array([0.6, 0.6]), 1.0)
    assert m.w1[0, 0] == pytest.approx(0.42)
    assert m._absorbed[0] == 2


def test_update_node_output_drift_scales_with_activation():
    m = _one_node([0.5, 0.5], [0.2, 0.2], lr1=0.0, lr2=0.1)
    m._absorb(0, np.array([0.5, 0.5]), np.array([1.0, 1.0]), 0.5)
    # w2 += lr2 * (te - satlin(w2)) * a1 = 0.1 * 0.8 * 0.5
    assert m.w2[0, 0] == pytest.approx(0.24)


def test_output_error_above_threshold_creates_despite_spatial_match():
    # same input, contradictory target: the input hyper-sphere matches
    # but the output error forces a fresh node
    m = make_model(errthr=0.001)
    m.learn_one(np.array([0.3]), 0.2)
    out = m.learn_one(np.array([0.3]), 0.8)
    assert out.created_node and m.n_nodes == 2


def test_node_age_counts_the_examples_since_its_creation():
    m = make_model()
    m.learn_one(np.array([0.1]), 0.2)
    assert m._age[0] == 0
    m.learn_one(np.array([0.9]), 0.8)  # far away: a second node
    m.learn_one(np.array([0.9]), 0.8)  # absorbed by it
    assert m.n_nodes == 2
    assert m._age[:2].tolist() == [2, 1]


def test_all_above_threshold_falls_back_to_argmax():
    m = make_model(sthr=0.999999)
    m.learn_one(np.array([0.2]), 0.1)
    a1 = _a1(m, m.fuzzify_input(np.array([0.8])))
    assert m._select(a1).size == 1


def test_single_node_propagation_reproduces_its_centroid():
    # normalizing the activation weights makes one selected node output
    # exactly its own w2, so a memorized example predicts its own target
    m = make_model(mfs=4)
    m.learn_one(np.array([0.37]), 0.63)
    a2 = m._propagate(np.array([0.42]), np.array([0]))
    assert np.allclose(a2, satlin(m.w2[0]), atol=1e-15)


def test_node_budget_updates_nearest_instead_of_raising():
    m = make_model(max_nodes=1)
    m.learn_one(np.array([0.2]), 0.2)
    w1_before = m.w1[0].copy()
    out = m.learn_one(np.array([0.9]), 0.9)
    assert not out.created_node and m.n_nodes == 1
    assert not np.allclose(m.w1[0], w1_before)


def test_create_rule_node_raises_at_budget():
    m = make_model(max_nodes=1)
    m.learn_one(np.array([0.2]), 0.2)
    with pytest.raises(CapacityError):
        m.create_rule_node(m.fuzzify_input(np.array([0.9])),
                           fuzzify(0.9, m.output_partition))


def test_learning_grows_past_initial_capacity():
    m = make_model()
    xs = np.linspace(0.0, 1.0, 9)
    for x in xs:
        m.learn_one(np.array([x]), float(x))
    assert m.n_nodes == 9


def test_learn_one_validates_shape_and_range():
    m = make_model(n_inputs=2)
    with pytest.raises(ShapeError):
        m.learn_one(np.array([0.1]), 0.5)
    with pytest.raises(DataError):
        m.learn_one(np.array([0.1, 7.0]), 0.5)
    with pytest.raises(DataError):
        m.learn_one(np.array([0.1, 0.2]), -2.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_learn_one_refuses_nan_and_inf_before_changing_the_model(bad):
    m = make_model(n_inputs=6)
    m.learn_one(np.full(6, 0.5), 0.5)
    w1, n, seen = m.w1.copy(), m.n_nodes, m.examples_seen
    for x, y in (([bad] + [0.5] * 5, 0.5), ([0.5] * 6, bad)):
        with pytest.raises(DataError):
            m.learn_one(np.array(x), y)
        assert m.w1.tobytes() == w1.tobytes()
        assert (m.n_nodes, m.examples_seen) == (n, seen)
    assert m.predict(np.full((1, 6), 0.5))[0] == pytest.approx(0.5, abs=0.05)


def test_predict_requires_a_trained_model():
    m = make_model()
    with pytest.raises(EmptyModelError):
        m.predict(np.array([[0.5]]))
    with pytest.raises(EmptyModelError):
        _a1(m, np.zeros(3))


def test_predict_recovers_memorized_targets():
    m = make_model(mfs=4)
    for x, y in [(0.1, 0.8), (0.5, 0.3), (0.9, 0.6)]:
        m.learn_one(np.array([x]), y)
    assert m.predict(np.array([[0.1], [0.5], [0.9]])) == pytest.approx(
        [0.8, 0.3, 0.6], abs=0.05)


def test_aggregate_merges_close_pair_to_elementwise_average():
    m = make_model(mfs=2)
    m.create_rule_node(np.array([0.2, 0.8]), np.array([0.5, 0.5]))
    m.create_rule_node(np.array([0.4, 0.6]), np.array([0.5, 0.5]))
    m._age[:2] = 3, 7
    assert m.aggregate(0.5, 0.5) == 1
    assert m.n_nodes == 1
    assert np.allclose(m.w1[0], [0.3, 0.7])
    assert m._age[0] == 7
    assert m._absorbed[0] == 2


def test_aggregate_never_increases_node_count():
    rng = np.random.default_rng(3)
    m = make_model(mfs=3)
    for _ in range(30):
        m.learn_one(rng.uniform(size=1), float(rng.uniform()))
    before = m.n_nodes
    m.aggregate(0.2, 0.2)
    assert m.n_nodes <= before


def test_node_count_non_decreasing_as_sthr_tightens():
    rng = np.random.default_rng(9)
    data = [(rng.uniform(size=1), float(rng.uniform())) for _ in range(60)]
    counts = []
    for sthr in (0.7, 0.9, 0.99):
        m = make_model(sthr=sthr, errthr=0.5)
        for x, y in data:
            m.learn_one(x, y)
        counts.append(m.n_nodes)
    assert counts == sorted(counts)


def test_rule_text_reads_as_if_then():
    m = make_model(n_inputs=2, mfs=4)
    m.learn_one(np.array([0.05, 0.95]), 0.5)
    rules = m.extract_rules()
    assert len(rules) == 1
    assert rules[0].text() == ("IF x0 is LOW AND x1 is HIGH "
                               "THEN y is MEDIUM-HIGH")


def test_rule_round_trip_rebuilds_identical_predictions():
    rng = np.random.default_rng(21)
    m = make_model(n_inputs=3, mfs=4, errthr=0.05)
    for _ in range(40):
        m.learn_one(rng.uniform(size=3), float(rng.uniform()))
    rules = m.extract_rules()
    rebuilt = make_model(n_inputs=3, mfs=4, errthr=0.05)
    for rule in rules:
        rebuilt.insert_rule(rule)
    assert rebuilt.n_nodes == m.n_nodes
    xs = rng.uniform(size=(20, 3))
    assert rebuilt.predict(xs) == pytest.approx(m.predict(xs), abs=1e-12)


def test_snapshot_round_trip_is_byte_identical():
    rng = np.random.default_rng(8)
    m = make_model(n_inputs=2, mfs=4, errthr=0.01)
    for _ in range(25):
        m.learn_one(rng.uniform(size=2), float(rng.uniform()))
    text = m.to_text(extra={"note": "hello"})
    m2, extra = EfunnModel.from_text(text)
    assert extra == {"note": "hello"}
    assert m2.to_text(extra=extra) == text
    assert m2.examples_seen == m.examples_seen
    xs = rng.uniform(size=(10, 2))
    assert m2.predict(xs).tolist() == m.predict(xs).tolist()


def test_snapshot_save_load_file(tmp_path):
    m = make_model()
    m.learn_one(np.array([0.5]), 0.5)
    path = tmp_path / "model.snap"
    m.save(path)
    m2, extra = EfunnModel.load(path)
    assert extra == {}
    assert m2.n_nodes == 1


@pytest.mark.parametrize("key, value, message", [
    ("nodes.w1", "0.5", "'nodes.w1' holds 1 values, expected 3"),
    ("nodes.age", "9" * 20, "'nodes.age' is out of range"),
    ("nodes.absorbed", "9" * 400, "'nodes.absorbed' is out of range"),
], ids=["short w1", "age past int64", "absorbed past float"])
def test_snapshot_rejects_node_fields_that_do_not_fit(key, value, message):
    m = make_model()
    m.learn_one(np.array([0.5]), 0.5)
    lines = [f"{key}={value}" if line.startswith(key + "=") else line
             for line in m.to_text().splitlines()]
    with pytest.raises(ParseError, match=message):
        EfunnModel.from_text("\n".join(lines))


def test_snapshot_rejects_wrong_kind():
    with pytest.raises(ParseError):
        EfunnModel.from_text("demandcast-snapshot v1 kind=mlp\n")


def test_config_validation():
    with pytest.raises(ConfigError):
        EfunnConfig(sthr=1.5)
    with pytest.raises(ConfigError):
        EfunnConfig(errthr=0.0)
    with pytest.raises(ConfigError):
        EfunnConfig(max_nodes=0)
    # nan passes every range check
    for bad in ({"errthr": np.nan}, {"lr1": np.nan}, {"lr2": np.inf}):
        with pytest.raises(ConfigError, match="must be finite"):
            EfunnConfig(**bad)
    with pytest.raises(ConfigError):
        make_model().aggregate(-0.1, 0.0)
    with pytest.raises(ConfigError):
        make_model().aggregate(0.0, float("nan"))


# -- the rule layer as arrays --------------------------------------------

_PROPERTY = settings(max_examples=40, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])
_UNIT = st.floats(0.0, 1.0)


@st.composite
def trained_models(draw):
    """Random small models, and inputs to score."""
    n_in = draw(st.integers(1, 3))
    m = make_model(
        n_inputs=n_in, mfs=draw(st.integers(2, 4)),
        sthr=draw(st.floats(0.5, 0.99)), errthr=draw(st.floats(1e-4, 0.5)),
        lr1=draw(st.floats(0.0, 0.5)), lr2=draw(st.floats(0.0, 0.5)),
    )
    inputs = st.lists(_UNIT, min_size=n_in, max_size=n_in).map(np.array)
    for _ in range(draw(st.integers(1, 30))):
        m.learn_one(draw(inputs), draw(_UNIT))
    return m, draw(st.lists(inputs, min_size=1, max_size=20))


@_PROPERTY
@given(trained_models())
def test_predict_batch_equals_predict_bit_for_bit(model_and_xs):
    m, xs = model_and_xs
    batch = m.predict(np.array(xs))
    assert batch.tolist() == [m.predict(np.array([x]))[0] for x in xs]


def test_predict_batch_spans_several_chunks():
    # 1500 nodes: a 2 MB budget of distance scratch scores 10 rows a chunk
    rng = np.random.default_rng(5)
    m = make_model(n_inputs=6, mfs=4, sthr=0.5)
    for _ in range(1500):
        m.create_rule_node(rng.uniform(size=24), rng.uniform(size=4))
    xs = rng.uniform(size=(40, 6))
    assert m.predict(xs).tolist() == [m.predict(xs[k : k + 1])[0]
                                      for k in range(len(xs))]
    assert m.predict(np.empty((0, 6))).size == 0
    with pytest.raises(ShapeError):
        m.predict(xs[:, :5])
    with pytest.raises(ShapeError):
        m.predict(xs[0])


@pytest.mark.parametrize("n_nodes", [3000, 17000])
def test_predict_stays_within_the_memory_its_docstring_states(n_nodes):
    # above 16384 nodes the scratch of one row alone exceeds 2 MiB; at
    # sthr 0.05 the candidate bound drops next to no node
    rng = np.random.default_rng(7)
    m = make_model(n_inputs=6, mfs=4)
    for _ in range(n_nodes):
        m.create_rule_node(rng.uniform(size=24), rng.uniform(size=4))
    xs = rng.uniform(size=(500, 6))
    for sthr in (0.99, 0.05):
        m.config.sthr = sthr
        tracemalloc.start()
        try:
            m.predict(xs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - 8 * len(xs) <= 1.5 * max(2 * 2**20, 128 * n_nodes)


def test_rows_survive_capacity_growth():
    m = make_model(mfs=2)
    xs = np.linspace(0.0, 1.0, 9)
    for k, x in enumerate(xs):  # grows capacity from 4 past 8 nodes
        m.create_rule_node(np.array([x, 1.0 - x]), np.array([1.0 - x, x]))
        m._age[k] = k
    assert m._age.size > 8 and m.n_nodes == 9
    assert m.w1.tolist() == [[x, 1.0 - x] for x in xs]
    assert m.w2.tolist() == [[1.0 - x, x] for x in xs]
    assert m._age[:9].tolist() == list(range(9))
    m._put_w1(0, m.w1[0] + 1.0)
    assert m.w1[0].tolist() == [1.0, 2.0] and m._w1sum[0] == 3.0


def _rows(m):
    """Each live rule node's row of every array, as plain values."""
    n = m.n_nodes
    return [dict(w1=w1.copy(), w2=w2.copy(), age=int(age),
                 absorbed=int(absorbed))
            for w1, w2, age, absorbed in zip(
                m.w1, m.w2, m._age[:n], m._absorbed[:n])]


def _old_aggregate(m, thr1, thr2):
    """The pair loop aggregate used to run, on plain lists."""
    nodes = _rows(m)
    i = 0
    while i < len(nodes):
        j = i + 1
        while j < len(nodes):
            a, b = nodes[i], nodes[j]
            if (fuzzy_difference(a["w1"], b["w1"]) <= thr1
                    and fuzzy_difference(a["w2"], b["w2"]) <= thr2):
                a["w1"] = (a["w1"] + b["w1"]) / 2.0
                a["w2"] = (a["w2"] + b["w2"]) / 2.0
                a["age"] = max(a["age"], b["age"])
                a["absorbed"] += b["absorbed"]
                del nodes[j]
            else:
                j += 1
        i += 1
    return nodes


@_PROPERTY
@given(trained_models(), st.floats(0.0, 0.6), st.floats(0.0, 0.6))
def test_aggregate_matches_the_pair_loop(model_and_xs, thr1, thr2):
    m, _ = model_and_xs
    nodes = _old_aggregate(m, thr1, thr2)
    before = m.n_nodes
    assert m.aggregate(thr1, thr2) == before - len(nodes)
    for row, node in zip(_rows(m), nodes, strict=True):
        assert row["w1"].tolist() == node["w1"].tolist()
        assert row["w2"].tolist() == node["w2"].tolist()
        assert (row["age"], row["absorbed"]) == (node["age"], node["absorbed"])


def test_aggregate_skips_nodes_already_merged():
    # node 0 absorbs node 2 first; node 1, within reach of node 2 but not
    # of node 0, must not absorb it again
    m = make_model(mfs=2)
    for w1 in ([0.9, 0.1], [0.5, 0.5], [0.8, 0.2]):
        m.create_rule_node(np.array(w1), np.array([0.5, 0.5]))
    nodes = _old_aggregate(m, 0.3, 0.3)
    assert m.aggregate(0.3, 0.3) == 1
    assert m.w1.tolist() == [n["w1"].tolist() for n in nodes]
    assert m._absorbed[1] == 1


def test_remove_nodes_moves_kept_rows():
    rng = np.random.default_rng(12)
    m = make_model(n_inputs=6, mfs=4)
    for _ in range(1000):
        m.create_rule_node(rng.uniform(size=24), rng.uniform(size=4))
    m._absorbed[:1000] = np.arange(1000)  # the id rides in absorbed
    w1 = m.w1.copy()
    m._remove_nodes(rng.choice(1000, size=400, replace=False))
    assert m.n_nodes == 600
    ids = m._absorbed[: m.n_nodes].copy()
    assert np.all(np.diff(ids) > 0)
    assert np.array_equal(m.w1, w1[ids])


def test_aggregate_stays_bounded_at_4000_nodes():
    rng = np.random.default_rng(11)
    m = make_model(n_inputs=6, mfs=4)
    for _ in range(4000):
        m.create_rule_node(rng.uniform(size=24), rng.uniform(size=4))
    tracemalloc.start()
    try:
        merged = m.aggregate(0.2, 0.2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert merged > 0
    assert m.n_nodes == 4000 - merged
    assert peak < 200 * 2**20


# -- the degree-major rule layer ------------------------------------------

def _bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


def _old_distances(w1, ex):
    """The row-major distance formula over C-ordered copies, capped at 1
    as ``fuzzy_difference`` is."""
    w1, ex = np.ascontiguousarray(w1), np.ascontiguousarray(ex)
    diff = w1 - ex[:, None, :]
    np.abs(diff, out=diff)
    return np.minimum(diff.sum(axis=2)
                      / (w1.sum(axis=1) + ex.sum(axis=1)[:, None]), 1.0)


@_PROPERTY
@given(st.integers(1, 6), st.integers(2, 5), st.integers(1, 300),
       st.integers(1, 5), st.integers(0, 2**32 - 1))
# wide partitions, as a snapshot may carry: above 128 degrees the kernel
# sums the two halves apart, and at 300 each half again
@example(n_in=2, mfs=70, nodes=40, rows=3, seed=7)
@example(n_in=3, mfs=100, nodes=9, rows=2, seed=8)
def test_distances_equal_the_row_major_formula_in_any_layout(
        n_in, mfs, nodes, rows, seed):
    rng = np.random.default_rng(seed)
    m = make_model(n_inputs=n_in, mfs=mfs)
    width = n_in * mfs
    for _ in range(nodes):  # some degrees exactly zero, as far from centers
        m.create_rule_node(rng.uniform(size=width) * (rng.uniform(size=width)
                                                      > 0.2),
                           rng.uniform(size=mfs))
    ex = rng.uniform(size=(rows, width))
    want = _bits(_old_distances(m.w1, ex))
    strided = np.zeros((2 * rows, 3 * width))[::2, ::3]
    strided[:] = ex
    for layout in (np.ascontiguousarray(ex), np.asfortranarray(ex), strided,
                   ex[::-1][::-1]):
        assert np.array_equal(_bits(_distances(m, layout)), want)
    w1 = np.ascontiguousarray(m.w1)
    d, bad = _differences(m.w1[0], m.w1[1:])
    # two all-zero rows give 0 / 0 here as in _differences, which flags it
    with np.errstate(invalid="ignore"):
        assert np.array_equal(_bits(d), _bits(np.minimum(
            np.abs(w1[0] - w1[1:]).sum(axis=1)
            / (w1[0].sum() + w1[1:].sum(axis=1)), 1.0)))


def test_disjoint_supports_lie_at_distance_one():
    # the two sums add the same values in different orders and round an
    # ulp apart; uncapped, the quotient was 1.0000000000000002
    v = np.array([0.5884578316577732, 0.0, 0.5884578316577732])
    rows = np.array([[0.0, 0.5, 0.0]])
    assert _differences(v, rows)[0].tolist() == [1.0]
    m = make_model()
    m.create_rule_node(v, np.array([0.0, 1.0, 0.0]))
    m.create_rule_node(rows[0], np.array([0.0, 1.0, 0.0]))
    assert _distances(m, v[None, :]).tolist() == [[0.0, 1.0]]
    assert m.aggregate(1.0, 1.0) == 1  # every pair lies within thr1 = thr2 = 1


def test_w1_is_degree_major_across_growth():
    m = make_model(n_inputs=2, mfs=4)
    rng = np.random.default_rng(3)
    for _ in range(9):  # past the initial capacity of 4
        m.create_rule_node(rng.uniform(size=8), rng.uniform(size=4))
    assert m.w1.strides[0] == m.w1.itemsize  # one degree's nodes adjoin


def test_2000_nodes_take_no_square_storage_or_line_per_node():
    # a dense 2000 x 2000 array of node pairs would take 32 MB
    rng = np.random.default_rng(4)
    m = make_model(n_inputs=6, mfs=4)
    tracemalloc.start()
    try:
        for _ in range(2000):
            m.create_rule_node(rng.uniform(size=24), rng.uniform(size=4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    text = m.to_text()
    lines = text.splitlines()
    assert len(lines) < 100  # no line per node
    assert not any(line.startswith("w3=") for line in lines)
    m2, _ = EfunnModel.from_text(text)
    assert m2.to_text() == text


# -- stored degree sums, the fused kernel -----------------------------------

@pytest.mark.parametrize("nodes", [1, 100, 800, 3600])
def test_distances_equal_the_row_major_formula_at_thousands_of_nodes(nodes):
    rng = np.random.default_rng(nodes)
    m = make_model(n_inputs=6, mfs=4)
    for _ in range(nodes):
        m.create_rule_node(rng.uniform(size=24) * (rng.uniform(size=24) > 0.2),
                           rng.uniform(size=4))
    for rows in (1, 2, 7, 16):
        ex = rng.uniform(size=(rows, 24))
        want = _bits(_old_distances(m.w1, ex))
        assert np.array_equal(_bits(_distances(m, ex)), want)
    # one row in the model's own scratch, as learning scores it
    assert np.array_equal(_bits(m._distances(ex[:1], m._scratch)), want[:1])


def _assert_sums_fresh(m):
    assert np.array_equal(_bits(m._w1sum[: m.n_nodes]),
                          _bits(np.ascontiguousarray(m.w1).sum(axis=1)))


@_PROPERTY
@given(trained_models(), st.lists(st.sampled_from(
    ("learn", "aggregate", "reload", "write")), max_size=8),
    st.floats(0.0, 0.6), st.integers(0, 2**32 - 1))
def test_stored_degree_sums_stay_fresh(model_and_xs, ops, thr, seed):
    m, xs = model_and_xs
    rng = np.random.default_rng(seed)
    _assert_sums_fresh(m)
    for op in ops:
        if op == "learn":
            for x in xs:
                m.learn_one(x, float(rng.uniform()))
        elif op == "aggregate":
            m.aggregate(thr, thr)
        elif op == "reload":
            m, _ = EfunnModel.from_text(m.to_text())
        elif m.n_nodes:  # write a centroid
            m._put_w1(int(rng.integers(m.n_nodes)),
                      rng.uniform(size=m.input_width))
        _assert_sums_fresh(m)


def test_w1_is_read_only_outside_put_w1():
    m = make_model(mfs=2)
    m.learn_one(np.array([0.2]), 0.2)
    with pytest.raises(ValueError):
        m.w1[0, 0] = 0.5
    assert m.w1[0, 0] != 0.5
    m._put_w1(0, [0.5, 0.25])
    assert m.w1[0].tolist() == [0.5, 0.25]
    assert m._w1sum[0] == 0.75


@_PROPERTY
@given(trained_models())
def test_activation_equals_the_dense_formula(model_and_xs):
    m, xs = model_and_xs
    for x in xs:
        ex = m.fuzzify_input(x)
        dist = _old_distances(m.w1, ex[None, :])[0]
        want = satlin(1.0 - dist)
        assert np.array_equal(_bits(_a1(m, ex)), _bits(want))


def _old_rules(m):
    """(antecedents, consequent) per node, read one node at a time."""
    ends = np.cumsum([p.size for p in m.input_partitions])[:-1]
    out = []
    for w1, w2 in zip(m.w1, m.w2):
        out.append((tuple(mf_labels(p.size)[int(np.argmax(seg))]
                          for seg, p in zip(np.split(w1, ends),
                                            m.input_partitions)),
                    mf_labels(m.output_partition.size)[int(np.argmax(w2))]))
    return out


@_PROPERTY
@given(trained_models())
def test_extract_rules_labels_each_node_by_its_argmax(model_and_xs):
    m, _ = model_and_xs
    rules = m.extract_rules()
    assert [(r.antecedents, r.consequent) for r in rules] == _old_rules(m)
    for rule, w1, w2 in zip(rules, m.w1, m.w2, strict=True):
        assert rule.w1.tolist() == w1.tolist()
        assert rule.w2.tolist() == w2.tolist()


# -- the candidate filter ---------------------------------------------------

def _dense_a1(m, ex):
    """Every node's activation for one fuzzified input, by the dense
    row-major formula."""
    return satlin(1.0 - _old_distances(m.w1, ex[None, :])[0])


def _dense_output(m, a1):
    """The crisp output of the nodes above sthr, else the first most
    activated node."""
    sel = np.flatnonzero(a1 > m.config.sthr)
    if sel.size == 0:
        sel = np.array([int(np.argmax(a1))])
    total = a1[sel].sum()
    return satlin(a1[sel] @ m.w2[sel] / total if total > 0.0
                  else m.w2[sel].mean(axis=0))


def _dense_learn_one(m, x, y):
    """One learning step scored by every node's activation, as learning
    ran before the candidate filter."""
    cfg = m.config
    ex, te = m.fuzzify_input(x), fuzzify(y, m.output_partition)
    m.examples_seen += 1
    n = m.n_nodes
    if not n:
        m.create_rule_node(ex, te)
        return LearnOutcome(True, 0.0, 1)
    m._age[:n] += 1
    a1 = _dense_a1(m, ex)
    err = 0.0
    if a1.max() >= cfg.sthr:
        err = float(fuzzy_difference(_dense_output(m, a1), te))
        if err <= cfg.errthr:
            sel = np.flatnonzero(a1 > cfg.sthr)
            if sel.size == 0:
                sel = np.array([int(np.argmax(a1))])
            m._absorb(sel, ex, te, a1[sel, None])
            return LearnOutcome(False, err, n)
    if n < cfg.max_nodes:
        m.create_rule_node(ex, te)
        return LearnOutcome(True, err, n + 1)
    k = int(np.argmax(a1))
    m._absorb(k, ex, te, float(a1[k]))
    return LearnOutcome(False, err, n)


@st.composite
def filter_cases(draw):
    """A config, nodes to insert twice each (so that the most activated
    node ties), a stream that repeats inputs and comes near them, and
    inputs to score."""
    n_in, mfs = draw(st.integers(1, 4)), draw(st.integers(2, 5))
    cfg = EfunnConfig(
        sthr=draw(st.floats(0.05, 0.995)), errthr=draw(st.floats(1e-4, 0.3)),
        lr1=draw(st.floats(0.0, 0.5)), lr2=draw(st.floats(0.0, 0.5)),
        max_nodes=draw(st.sampled_from((1, 2, 5, 100000))))
    inputs = st.lists(_UNIT, min_size=n_in, max_size=n_in).map(np.array)
    seen = draw(st.lists(inputs, min_size=1, max_size=4))
    near = st.tuples(st.sampled_from(seen), st.floats(-0.1, 0.1)).map(
        lambda xd: np.clip(xd[0] + xd[1], 0.0, 1.0))
    either = st.one_of(st.sampled_from(seen), near, inputs)
    twice = draw(st.lists(st.tuples(st.sampled_from(seen), _UNIT),
                          max_size=3))
    stream = draw(st.lists(st.tuples(either, _UNIT), min_size=1, max_size=40))
    xs = draw(st.lists(either, min_size=1, max_size=12))
    return cfg, n_in, mfs, twice, stream, xs


@settings(max_examples=80, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(filter_cases(), st.booleans())
def test_candidate_filter_matches_the_full_kernel_bit_for_bit(case, gather):
    # gather=True lifts the cap on candidates, so that small models,
    # whose candidates are many for their size, take the filter too
    cfg, n_in, mfs, twice, stream, xs = case
    inputs = [build_partition(0.0, 1.0, mfs, name=f"x{i}")
              for i in range(n_in)]
    output = build_partition(0.0, 1.0, mfs, name="y")
    filtered, dense = (EfunnModel(cfg, inputs, output) for _ in range(2))
    for m in (filtered, dense):
        for x, y in twice[: cfg.max_nodes // 2]:
            for _ in range(2):
                m.create_rule_node(m.fuzzify_input(x),
                                   fuzzify(y, m.output_partition))
    cap = float("inf") if gather else efunn._GATHER
    with mock.patch.object(efunn, "_GATHER", cap):
        for x, y in stream:
            assert filtered.learn_one(x, y) == _dense_learn_one(dense, x, y)
        n = dense.n_nodes
        for name in ("_w1", "_w2", "_absorbed", "_age"):
            assert (getattr(filtered, name)[:n].tobytes()
                    == getattr(dense, name)[:n].tobytes()), name
        got = filtered.predict(np.array(xs))
    want = [defuzzify(_dense_output(dense, _dense_a1(dense,
                                                     dense.fuzzify_input(x))),
                      dense.output_partition) for x in xs]
    assert np.array_equal(_bits(got), _bits(want))


def test_a_row_no_node_fires_for_takes_the_nearest_of_all_nodes():
    # node 0 shares the first block of degrees with the input and passes
    # the bound, node 1 is cut by it; neither fires, and node 1, the
    # nearer over all degrees, alone propagates its w2
    m = make_model(n_inputs=3, mfs=4, sthr=0.99)
    for w1, k in (([0.5, 0.5, 1.0], 0), ([0.4, 0.4, 0.5], 1)):
        m.create_rule_node(m.fuzzify_input(np.array(w1)), np.eye(4)[k])
    x = np.array([0.5, 0.5, 0.5])
    ex = m.fuzzify_input(x)
    dense = _dense_a1(m, ex)
    assert np.argmax(dense) == 1 and dense.max() < 0.99
    # two nodes are too few for the cap on candidates to let one through
    with mock.patch.object(efunn, "_GATHER", float("inf")):
        _, nodes, a1 = m._candidates(ex[None, :], m._scratch)
        assert nodes.tolist() == [0] and a1.max() < 0.99
        assert m.predict(x[None, :]).tolist() == [
            defuzzify(satlin(np.eye(4)[1]), m.output_partition)]
