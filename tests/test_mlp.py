import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from demandcast import mlp
from demandcast.errors import (ConfigError, DataError, DivergenceError,
                               ParseError, ShapeError)
from demandcast.flops import FlopCounter
from demandcast.mlp import (BpConfig, MlpModel, bp_train, forward,
                            gradient, hessian_vector_estimate,
                            init_mlp, rmse, scg_minimize, scg_train)


def tiny_batch(seed=0, n=12, n_in=3):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, n_in))
    y = rng.normal(size=(n, 1))
    return X, y


def test_init_shapes_for_demand_network():
    m = init_mlp((6, 40, 40, 1), seed=3)
    assert [w.shape for w in m.weights] == [(40, 6), (40, 40), (1, 40)]
    assert [b.shape for b in m.biases] == [(40,), (40,), (1,)]
    assert m.n_params == 40 * 6 + 40 * 40 + 40 + 40 + 40 + 1


def test_init_is_seeded_and_bounded():
    a = init_mlp((4, 8, 1), seed=5)
    b = init_mlp((4, 8, 1), seed=5)
    c = init_mlp((4, 8, 1), seed=6)
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)
    assert any(not np.array_equal(wa, wc)
               for wa, wc in zip(a.weights, c.weights))
    for w in a.weights:
        bound = 1.0 / math.sqrt(w.shape[1])
        assert np.all(np.abs(w) <= bound)
    assert all(np.all(b_ == 0.0) for b_ in a.biases)


def test_parameters_are_views_that_cannot_be_rebound():
    m = init_mlp((2, 3, 1), seed=0)
    m.weights[1][0, 2] = 7.0
    m.biases[0][1] = -2.0
    assert m.layers[1][0, 2] == m.params[3 * 3 + 2] == 7.0
    assert m.layers[0][1, 2] == m.params[5] == -2.0
    for name in ("params", "layers", "weights", "biases"):
        with pytest.raises(AttributeError):
            setattr(m, name, getattr(m, name))


def test_model_rejects_parameters_that_do_not_fit_the_layers():
    w, b = [np.zeros((3, 2)), np.zeros((1, 3))], [np.zeros(3), np.zeros(1)]
    with pytest.raises(ShapeError):
        MlpModel((2, 3, 1), w[:1], b[:1])
    with pytest.raises(ShapeError):
        MlpModel((2, 3, 1), [w[0].T, w[1]], b)
    with pytest.raises(ShapeError):
        MlpModel((2, 3, 1), w, [np.zeros(1), np.zeros(1)])


def test_init_rejects_degenerate_layer_lists():
    with pytest.raises(ConfigError):
        init_mlp((5,))
    with pytest.raises(ConfigError):
        init_mlp((5, 0, 1))


def test_forward_returns_a_vector_for_single_output():
    m = init_mlp((3, 4, 1), seed=0)
    out = forward(m, np.zeros((1, 3)))
    assert out.shape == (1,)
    assert out[0] == 0.0  # zero biases, zero input
    two = init_mlp((3, 4, 2), seed=0)
    assert forward(two, np.zeros((5, 3))).shape == (5, 2)


def test_forward_batch_matches_single_forward():
    # a gemm over the rows rounds unlike one-row products
    m = init_mlp((3, 5, 1), seed=1)
    X, _ = tiny_batch()
    batch = forward(m, X)
    assert batch.shape == (12,)
    for i in range(len(X)):
        row = forward(m, X[i : i + 1])
        assert batch[i] == pytest.approx(row[0], abs=1e-14)


def test_forward_shape_errors():
    m = init_mlp((3, 4, 1), seed=0)
    with pytest.raises(ShapeError):
        forward(m, np.zeros(3))
    with pytest.raises(ShapeError):
        forward(m, np.zeros((2, 5)))


def test_gradient_identity_net_oracle():
    # one linear weight w=1, example (1, 0): E = 1, dE/dw = 2
    m = MlpModel((1, 1), [np.array([[1.0]])], [np.array([0.0])])
    gw, gb, e_value = gradient(m, ([np.array([1.0])], [np.array([0.0])]))
    assert e_value == 1.0
    assert gw[0][0, 0] == 2.0
    assert gb[0][0] == 2.0


def test_gradient_matches_central_differences():
    m = init_mlp((3, 6, 4, 1), seed=2)
    X, y = tiny_batch(seed=7)
    batch = mlp.Batch(m, (X, y))
    gw, gb, _ = gradient(m, batch)
    g = batch.grad
    # the returned weight and bias gradients are the layers of grad
    assert np.array_equal(np.concatenate(
        [np.column_stack([w, b]).ravel() for w, b in zip(gw, gb)]), g)
    w0 = m.params.copy()
    fd = np.empty_like(w0)
    h = 1e-6
    for i in range(w0.size):
        for sign, store in ((+1, 0), (-1, 1)):
            w = w0.copy()
            w[i] += sign * h
            np.copyto(m.params, w)
            _, _, e_val = gradient(m, (X, y))
            if sign > 0:
                up = e_val
            else:
                fd[i] = (up - e_val) / (2 * h)
    np.copyto(m.params, w0)
    rel = np.linalg.norm(g - fd) / np.linalg.norm(g)
    assert rel < 1e-7


def test_gradient_accepts_pair_sequences():
    m = init_mlp((2, 3, 1), seed=0)
    pairs = [(np.array([0.1, 0.2]), 0.5), (np.array([0.3, 0.4]), 0.1)]
    gw1, _, e1 = gradient(m, pairs)
    X = np.array([[0.1, 0.2], [0.3, 0.4]])
    y = np.array([[0.5], [0.1]])
    gw2, _, e2 = gradient(m, (X, y))
    assert e1 == e2
    assert np.allclose(gw1[0], gw2[0])


@pytest.mark.parametrize("sizes, per_example", [
    ((6, 40, 40, 1), 11840), ((3, 7, 5, 2), 510)])
def test_gradient_flops_follow_the_layer_shapes(sizes, per_example):
    # forward and weight-gradient gemms cover every layer, the hidden-delta
    # gemm (N x out)(out x in) every layer but the first; each hidden unit
    # costs one tanh (10 flops) and three flops of its derivative
    macs = [a * b for a, b in zip(sizes[:-1], sizes[1:])]
    hidden = sum(sizes[1:-1])
    assert 2 * (2 * sum(macs) + sum(macs[1:])) + 13 * hidden == per_example
    n = 5
    counter = FlopCounter()
    X, y = tiny_batch(n=n, n_in=sizes[0])
    gradient(init_mlp(sizes, seed=0), (X, np.repeat(y, sizes[-1], axis=1)),
             counter)
    assert counter.total == n * per_example


def test_gradient_batch_errors():
    m = init_mlp((2, 3, 1), seed=0)
    with pytest.raises(DataError):
        gradient(m, [])
    with pytest.raises(ShapeError):
        gradient(m, (np.zeros((3, 5)), np.zeros((3, 1))))


def test_bp_one_step_quadratic_oracle():
    # E(w) = w^2 via the identity net: one step at epsilon=0.1 gives 0.8
    m = MlpModel((1, 1), [np.array([[1.0]])], [np.array([0.0])])
    data = ([np.array([1.0])], [np.array([0.0])])
    trace = bp_train(m, data, BpConfig(epsilon=0.1, alpha=0.0, epochs=1))
    assert m.weights[0][0, 0] == pytest.approx(0.8)
    assert m.biases[0][0] == pytest.approx(-0.2)
    assert trace == [1.0]  # rmse at epoch start


def test_bp_momentum_accumulates_previous_update():
    m = MlpModel((1, 1), [np.array([[1.0]])], [np.array([0.0])])
    # freeze the bias path by training on x=1, y=0 and checking w by hand:
    # w0=1, b0=0: out=1, g_w=2, g_b=2
    # step1: d=-0.2 -> w=0.8, b=-0.2
    # out2=0.6: g=1.2; step2: d=0.5*(-0.2)-0.1*1.2=-0.22 -> w=0.58
    bp_train(m, ([np.array([1.0])], [np.array([0.0])]),
             BpConfig(epsilon=0.1, alpha=0.5, epochs=2))
    assert m.weights[0][0, 0] == pytest.approx(0.58)
    assert m.biases[0][0] == pytest.approx(-0.42)


def test_bp_reduces_error_on_small_regression():
    m = init_mlp((3, 8, 1), seed=4)
    X, y = tiny_batch(seed=4)
    trace = bp_train(m, (X, y), BpConfig(epsilon=0.05, alpha=0.9, epochs=300))
    assert len(trace) == 300
    assert trace[-1] < trace[0]
    assert rmse(forward(m, X), y) < trace[0]


def test_bp_divergence_raises_with_epoch():
    m = init_mlp((3, 8, 1), seed=0)
    X, y = tiny_batch()
    with pytest.raises(DivergenceError, match="epoch"):
        bp_train(m, (X, y), BpConfig(epsilon=1e6, alpha=0.9, epochs=500))


def test_bp_config_validation():
    with pytest.raises(ConfigError):
        BpConfig(epsilon=0.0)
    with pytest.raises(ConfigError):
        BpConfig(alpha=-0.1)
    with pytest.raises(ConfigError):
        BpConfig(epochs=0)


def test_rmse_oracle_and_errors():
    assert rmse([1, 2, 3], [1, 2, 5]) == pytest.approx(math.sqrt(4 / 3))
    with pytest.raises(DataError):
        rmse([1, 2], [1, 2, 3])
    with pytest.raises(DataError):
        rmse([], [])


def test_scg_minimize_quadratic_finite_termination():
    rng = np.random.default_rng(7)
    A = rng.normal(size=(20, 20))
    A = A @ A.T + 20.0 * np.eye(20)
    b = rng.normal(size=20)

    def fg(w):
        return 0.5 * w @ A @ w - b @ w, A @ w - b

    res = scg_minimize(fg, np.zeros(20), iterations=200, grad_tol=1e-8)
    assert res.converged
    assert res.iterations <= 20
    assert res.grad_norm < 1e-8


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(1, 6), min_size=1, max_size=2),
       st.integers(0, 2**32 - 1), st.integers(1, 60))
def test_scg_trace_never_increases(hidden, seed, epochs):
    m = init_mlp((3, *hidden, 1), seed=seed)
    X, y = tiny_batch(seed=seed)
    trace = scg_train(m, (X, y), epochs)
    assert len(trace) == epochs
    for a, b in zip(trace, trace[1:]):
        assert b <= a


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 12), st.integers(0, 2**32 - 1), st.integers(1, 40))
def test_scg_trace_never_rises_on_quadratics(n, seed, iterations):
    rng = np.random.default_rng(seed)
    M = rng.normal(size=(n, n)) * 10.0 ** rng.integers(-3, 4)
    A = M @ M.T + 1e-3 * np.eye(n)  # positive definite, often ill conditioned
    b = rng.normal(size=n)

    def fg(w):
        return 0.5 * w @ A @ w - b @ w, A @ w - b

    trace = scg_minimize(fg, rng.normal(size=n), iterations=iterations).trace
    for before, after in zip(trace, trace[1:]):
        assert after <= before


def test_scg_solves_xor_exactly_enough():
    X = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=float)
    y = np.array([[0], [1], [1], [0]], dtype=float)
    m = init_mlp((2, 4, 1), seed=0)
    scg_train(m, (X, y), 200)
    assert rmse(forward(m, X), y) < 0.05


def test_scg_beats_bp_on_matched_budget():
    X, y = tiny_batch(seed=9, n=30)
    mb = init_mlp((3, 8, 1), seed=1)
    ms = init_mlp((3, 8, 1), seed=1)
    bp_train(mb, (X, y), BpConfig(epochs=200))
    scg_train(ms, (X, y), 200)
    assert rmse(forward(ms, X), y) <= rmse(forward(mb, X), y)


def test_hessian_vector_estimate_exact_for_quadratic():
    rng = np.random.default_rng(2)
    A = rng.normal(size=(6, 6))
    A = A @ A.T + np.eye(6)

    def fg(w):
        return 0.5 * w @ A @ w, A @ w

    w = rng.normal(size=6)
    p = rng.normal(size=6)
    # the gradient is linear, so the finite difference is exact in sigma
    for sigma in (1e-2, 1e-5):
        est = hessian_vector_estimate(fg, w, p, sigma)
        assert np.allclose(est, A @ p, atol=1e-6)
    est = hessian_vector_estimate(fg, w, p, 1e-5, lam=2.0)
    assert np.allclose(est, A @ p + 2.0 * p, atol=1e-6)


def test_hessian_vector_estimate_rejects_bad_sigma():
    with pytest.raises(ConfigError):
        hessian_vector_estimate(lambda w: (0.0, w), np.zeros(2), np.ones(2), 0.0)


def test_param_flatten_round_trip():
    # params is every weight and bias: copying it copies the network, and
    # the layer arrays rebuild the same vector
    m = init_mlp((4, 7, 2), seed=11)
    m.params[:] = np.random.default_rng(0).normal(size=m.n_params)
    m2 = init_mlp((4, 7, 2), seed=99)
    np.copyto(m2.params, m.params)
    for a, b in zip(m.weights + m.biases, m2.weights + m2.biases, strict=True):
        assert np.array_equal(a, b)
    assert np.array_equal(MlpModel(m.layer_sizes, m.weights, m.biases).params,
                          m.params)
    with pytest.raises(ShapeError):
        MlpModel(m.layer_sizes, [w[:, :-1] for w in m.weights], m.biases)


def test_snapshot_round_trip_byte_identical(tmp_path):
    m = init_mlp((3, 5, 1), seed=13)
    text = mlp.to_text(m, extra={"norm.mins": "0 0 0"})
    m2, extra = mlp.from_text(text)
    assert extra == {"norm.mins": "0 0 0"}
    assert mlp.to_text(m2, extra=extra) == text
    X, _ = tiny_batch()
    assert np.array_equal(forward(m, X), forward(m2, X))
    path = tmp_path / "net.snap"
    mlp.save(m, path)
    m3, _ = mlp.load(path)
    assert np.array_equal(forward(m, X), forward(m3, X))


def test_snapshot_parse_errors():
    with pytest.raises(ParseError):
        mlp.from_text("demandcast-snapshot v1 kind=efunn\n")
    with pytest.raises(ParseError):
        mlp.from_text("demandcast-snapshot v1 kind=mlp\nlayers=2 1\n")
    good = mlp.to_text(init_mlp((2, 1), seed=0))
    with pytest.raises(ParseError):
        mlp.from_text(good.replace("layers=2 1", "layers=3 1"))


# -- the prepared-batch gradient is the allocate-per-call one, bit for bit -


def _gradient_per_call(model, X, Y):
    """gradient with every array allocated per call: feature-major
    activations under a row of ones, one (out, in + 1) matrix per layer."""
    n = X.shape[0]
    ones = np.ones((1, n))
    # C order, as a Batch holds it: a product rounds by the memory order
    # of its operands, and vstack of X.T would be Fortran-ordered
    acts = [np.ascontiguousarray(np.vstack([X.T, ones]))]
    last = len(model.layers) - 1
    for l, layer in enumerate(model.layers):
        z = layer @ acts[-1]
        acts.append(z if l == last else np.vstack([np.tanh(z), ones]))
    diff = acts[-1] - Y.T
    e_value = float((diff * diff).sum()) / n
    delta = 2.0 * diff / n
    grads = [None] * (last + 1)
    for l in range(last, -1, -1):
        grads[l] = delta @ acts[l].T
        if l > 0:
            a, w = acts[l][:-1], model.weights[l]
            if delta.shape[0] == 1:  # an outer product, as a broadcast
                delta = (1.0 - a * a) * w.T * delta
            else:
                delta = (w.T @ delta) * (1.0 - a * a)
    return [g[:, :-1] for g in grads], [g[:, -1] for g in grads], e_value


def _gradient_row_major(model, X, Y):
    """gradient as first written: row-major activations, separate biases."""
    acts = [X]
    last = len(model.weights) - 1
    for l, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = acts[-1] @ w.T + b
        acts.append(z if l == last else np.tanh(z))
    diff = acts[-1] - Y
    e_value = float((diff * diff).sum(axis=1).mean())
    delta = 2.0 * diff / X.shape[0]
    grads_w, grads_b = [None] * (last + 1), [None] * (last + 1)
    for l in range(last, -1, -1):
        grads_w[l] = delta.T @ acts[l]
        grads_b[l] = delta.sum(axis=0)
        if l > 0:
            delta = (delta @ model.weights[l]) * (1.0 - acts[l] * acts[l])
    return grads_w, grads_b, e_value


def _flat(grads_w, grads_b):
    """Gradients in the order of the model's params: each layer's
    (out, in + 1) matrix, bias last in every row."""
    return np.concatenate([np.column_stack([w, b]).ravel()
                           for w, b in zip(grads_w, grads_b)])


def _grad_bits(result):
    grads_w, grads_b, e_value = result
    return _flat(grads_w, grads_b).tobytes(), e_value.hex()


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(1, 48), min_size=2, max_size=4),
       st.integers(1, 300), st.integers(0, 2**16))
# equal hidden widths: a hidden delta reuses a spent activation buffer
@example([6, 40, 40, 1], 167, 0)
@example([2, 5, 5, 5, 5, 3], 30, 1)
# one-unit layers: the delta below them is a broadcast product
@example([3, 4, 1, 5, 1], 20, 2)
@example([2, 1, 1], 9, 3)
@example([6, 40, 40, 1], 1, 4)
def test_prepared_batch_gradient_equals_tuple_gradient_bit_for_bit(
        sizes, n, seed):
    rng = np.random.default_rng(seed)
    model = init_mlp(sizes, seed=seed)
    X = rng.normal(size=(n, sizes[0]))
    Y = rng.normal(size=(n, sizes[-1]))
    batch = mlp.Batch(model, (X, Y))
    for _ in range(3):  # fresh weights each round, same buffers
        for param in model.weights + model.biases:
            param += rng.normal(scale=0.5, size=param.shape)
        got = _grad_bits(gradient(model, batch))
        assert got == _grad_bits(gradient(model, (X, Y)))
        assert got == _grad_bits(_gradient_per_call(model, X, Y))
        assert batch.grad.tobytes() == got[0]  # the flat layout


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(1, 48), min_size=2, max_size=4),
       st.integers(1, 300), st.integers(0, 2**16))
@example([6, 40, 40, 1], 835, 0)
@example([3, 4, 1, 5, 1], 20, 2)
def test_gradient_agrees_with_the_row_major_formula(sizes, n, seed):
    # folding each bias into its layer's product reorders the sums, so
    # the two layouts agree to rounding, not bit for bit
    rng = np.random.default_rng(seed)
    model = init_mlp(sizes, seed=seed)
    for b in model.biases:
        b += rng.normal(scale=0.5, size=b.shape)
    X = rng.normal(size=(n, sizes[0]))
    Y = rng.normal(size=(n, sizes[-1]))
    grads_w, grads_b, e_value = gradient(model, (X, Y))
    ref_w, ref_b, ref_e = _gradient_row_major(model, X, Y)
    got, want = _flat(grads_w, grads_b), _flat(ref_w, ref_b)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
    assert e_value == pytest.approx(ref_e, rel=1e-12)


def test_batch_prepared_for_other_layers_is_refused():
    batch = mlp.Batch(init_mlp((3, 4, 1), seed=0), tiny_batch())
    with pytest.raises(ShapeError, match="prepared for layers"):
        gradient(init_mlp((3, 5, 1), seed=0), batch)


# a hidden layer of one unit, and a batch of one row, take the broadcast
# and the single-column paths
_PROBLEMS = [((3, 8, 6, 1), 40), ((3, 4, 1, 5, 1), 40), ((3, 8, 6, 1), 1)]


def _fixed_problem(sizes, n):
    X, y = tiny_batch(seed=7, n=n, n_in=3)
    return init_mlp(sizes, seed=2), X, y


def test_bp_trace_equals_training_on_the_per_call_gradient():
    cfg = BpConfig(epsilon=0.05, alpha=0.8, epochs=60)
    for sizes, n in _PROBLEMS:
        model, X, y = _fixed_problem(sizes, n)
        trace = bp_train(model, (X, y), cfg)

        ref, _, _ = _fixed_problem(sizes, n)
        steps = [np.zeros_like(p) for p in ref.weights + ref.biases]
        ref_trace = []
        for _ in range(cfg.epochs):
            grads_w, grads_b, e_value = _gradient_per_call(ref, X, y)
            ref_trace.append(math.sqrt(e_value))
            for param, g, step in zip(ref.weights + ref.biases,
                                      grads_w + grads_b, steps):
                step *= cfg.alpha
                step -= cfg.epsilon * g
                param += step
        assert trace == ref_trace
        assert model.params.tobytes() == ref.params.tobytes()


def test_scg_trace_equals_training_on_the_per_call_gradient():
    for sizes, n in _PROBLEMS:
        model, X, y = _fixed_problem(sizes, n)
        trace = scg_train(model, (X, y), epochs=60)

        ref, _, _ = _fixed_problem(sizes, n)

        def fun_grad(vec):
            np.copyto(ref.params, vec)
            grads_w, grads_b, e_value = _gradient_per_call(ref, X, y)
            return e_value, _flat(grads_w, grads_b)

        result = scg_minimize(fun_grad, ref.params.copy(), iterations=60)
        if n > 1:  # the one-row problem converges early
            assert result.iterations == 60
        want = [math.sqrt(e) for e in result.trace]  # a converged run is padded
        assert trace == want + want[-1:] * (60 - len(want))
        assert model.params.tobytes() == result.w.tobytes()
