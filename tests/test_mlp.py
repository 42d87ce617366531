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
                            forward_batch, gradient, hessian_vector_estimate,
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


def test_init_rejects_degenerate_layer_lists():
    with pytest.raises(ConfigError):
        init_mlp((5,))
    with pytest.raises(ConfigError):
        init_mlp((5, 0, 1))


def test_forward_returns_scalar_for_single_output():
    m = init_mlp((3, 4, 1), seed=0)
    out = forward(m, np.zeros(3))
    assert isinstance(out, float)
    assert out == pytest.approx(0.0)  # zero biases, zero input


def test_forward_batch_matches_single_forward():
    m = init_mlp((3, 5, 1), seed=1)
    X, _ = tiny_batch()
    batch = forward_batch(m, X)
    assert batch.shape == (12,)
    for i in range(len(X)):
        assert batch[i] == pytest.approx(forward(m, X[i]), abs=1e-14)


def test_forward_shape_errors():
    m = init_mlp((3, 4, 1), seed=0)
    with pytest.raises(ShapeError):
        forward(m, np.zeros(4))
    with pytest.raises(ShapeError):
        forward_batch(m, np.zeros((2, 5)))


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
    gw, gb, _ = gradient(m, (X, y))
    g = np.concatenate([a.ravel() for a in gw] + [a.ravel() for a in gb])
    w0 = mlp.flatten_params(m)
    fd = np.empty_like(w0)
    h = 1e-6
    for i in range(w0.size):
        for sign, store in ((+1, 0), (-1, 1)):
            w = w0.copy()
            w[i] += sign * h
            mlp.set_params(m, w)
            _, _, e_val = gradient(m, (X, y))
            if sign > 0:
                up = e_val
            else:
                fd[i] = (up - e_val) / (2 * h)
    mlp.set_params(m, w0)
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
    assert rmse(forward_batch(m, X), y) < trace[0]


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
    assert rmse(forward_batch(m, X), y) < 0.05


def test_scg_beats_bp_on_matched_budget():
    X, y = tiny_batch(seed=9, n=30)
    mb = init_mlp((3, 8, 1), seed=1)
    ms = init_mlp((3, 8, 1), seed=1)
    bp_train(mb, (X, y), BpConfig(epochs=200))
    scg_train(ms, (X, y), 200)
    assert rmse(forward_batch(ms, X), y) <= rmse(forward_batch(mb, X), y)


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
    m = init_mlp((4, 7, 2), seed=11)
    vec = mlp.flatten_params(m)
    m2 = init_mlp((4, 7, 2), seed=99)
    mlp.set_params(m2, vec)
    assert np.array_equal(mlp.flatten_params(m2), vec)
    with pytest.raises(ShapeError):
        mlp.set_params(m2, vec[:-1])


def test_snapshot_round_trip_byte_identical(tmp_path):
    m = init_mlp((3, 5, 1), seed=13)
    text = mlp.to_text(m, extra={"norm.mins": "0 0 0"})
    m2, extra = mlp.from_text(text)
    assert extra == {"norm.mins": "0 0 0"}
    assert mlp.to_text(m2, extra=extra) == text
    X, _ = tiny_batch()
    assert np.array_equal(forward_batch(m, X), forward_batch(m2, X))
    path = tmp_path / "net.snap"
    mlp.save(m, path)
    m3, _ = mlp.load(path)
    assert np.array_equal(forward_batch(m, X), forward_batch(m3, X))


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
    """gradient as first written: every array allocated per call."""
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


def _grad_bits(result):
    grads_w, grads_b, e_value = result
    return [g.tobytes() for g in grads_w + grads_b], e_value.hex()


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(1, 48), min_size=2, max_size=4),
       st.integers(1, 300), st.integers(0, 2**16))
# equal hidden widths: a hidden delta reuses a spent activation buffer
@example([6, 40, 40, 1], 167, 0)
@example([2, 5, 5, 5, 5, 3], 30, 1)
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
        assert batch.grad.tobytes() == b"".join(got[0])  # the flat layout


def test_batch_prepared_for_other_layers_is_refused():
    batch = mlp.Batch(init_mlp((3, 4, 1), seed=0), tiny_batch())
    with pytest.raises(ShapeError, match="prepared for layers"):
        gradient(init_mlp((3, 5, 1), seed=0), batch)


def _fixed_problem():
    X, y = tiny_batch(seed=7, n=40, n_in=3)
    return init_mlp((3, 8, 6, 1), seed=2), X, y


def test_bp_trace_equals_training_on_the_per_call_gradient():
    cfg = BpConfig(epsilon=0.05, alpha=0.8, epochs=60)
    model, X, y = _fixed_problem()
    trace = bp_train(model, (X, y), cfg)

    ref, _, _ = _fixed_problem()
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
    assert mlp.flatten_params(model).tobytes() == \
        mlp.flatten_params(ref).tobytes()


def test_scg_trace_equals_training_on_the_per_call_gradient():
    model, X, y = _fixed_problem()
    trace = scg_train(model, (X, y), epochs=60)

    ref, _, _ = _fixed_problem()

    def fun_grad(vec):
        mlp.set_params(ref, vec)
        grads_w, grads_b, e_value = _gradient_per_call(ref, X, y)
        return e_value, np.concatenate([g.ravel() for g in grads_w + grads_b])

    result = scg_minimize(fun_grad, mlp.flatten_params(ref), iterations=60)
    assert result.iterations == 60
    assert trace == [math.sqrt(e) for e in result.trace]
    assert mlp.flatten_params(model).tobytes() == result.w.tobytes()
