"""Feedforward demand regressor with two batch trainers.

The network is dense layers with tanh hidden units and a linear output.
Training minimizes the batch mean squared error E either by gradient
descent with momentum,

    delta_w(n) = -epsilon * dE/dw + alpha * delta_w(n-1),

or by the scaled conjugate gradient method, which replaces a line
search with the finite-difference curvature estimate

    H p ~= (E'(w + sigma p) - E'(w)) / sigma + lambda p

regulated by raising and lowering lambda. The SCG core works on any
(value, gradient) callable, so it is reusable outside the network.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import snapshot
from .config import check_finite
from .errors import (
    ConfigError,
    DataError,
    DivergenceError,
    ParseError,
    ShapeError,
)
from .flops import DISCARD, MAC_FLOPS, TRANSCENDENTAL_FLOPS

_LAMBDA_FLOOR = 1e-20
# SCG's curvature step length (sigma, divided by |p| each step) and its
# starting lambda
_SIGMA0 = 1e-5
_LAMBDA0 = 1e-6


class MlpModel:
    """Dense layers held in one flat parameter vector ``params``.

    ``layers[l]`` is the (out, in + 1) view of ``params`` that maps layer
    l to layer l + 1: its weights in columns ``:in`` and its bias in the
    last column, so one matrix product with an input that ends in a row
    of ones applies both. ``weights[l]`` and ``biases[l]`` are views of
    those columns; writing into any of them writes ``params``, and none
    of the three can be rebound.
    """

    hidden_activation = "tanh_sigmoid"
    output_activation = "linear"

    def __init__(self, layer_sizes, weights, biases):
        sizes = self.layer_sizes = tuple(layer_sizes)
        if any(s < 1 for s in sizes):
            raise ConfigError(f"layer sizes must be >= 1, got {sizes}")
        self._params = np.empty(
            sum(o * (i + 1) for i, o in zip(sizes, sizes[1:])))
        self._layers = _layer_views(self._params, sizes)
        self._weights = tuple(a[:, :-1] for a in self._layers)
        self._biases = tuple(a[:, -1] for a in self._layers)
        values = list(weights) + list(biases)
        if len(values) != 2 * len(self._layers):
            raise ShapeError(f"{len(sizes)} layer sizes need "
                             f"{len(self._layers)} weight matrices and "
                             f"bias vectors each")
        for view, value in zip(self._weights + self._biases, values):
            value = np.asarray(value, dtype=float)
            if value.shape not in (view.shape, ()):
                raise ShapeError(f"parameter of shape {value.shape}, "
                                 f"expected {view.shape}")
            view[...] = value

    params = property(lambda self: self._params)
    layers = property(lambda self: self._layers)
    weights = property(lambda self: self._weights)
    biases = property(lambda self: self._biases)

    @property
    def n_params(self) -> int:
        return self.params.size


def _layer_views(flat: np.ndarray, sizes) -> list:
    """(out, in + 1) views of consecutive blocks of ``flat``, one per layer."""
    views, pos = [], 0
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        end = pos + fan_out * (fan_in + 1)
        views.append(flat[pos:end].reshape(fan_out, fan_in + 1))
        pos = end
    return views


def init_mlp(layer_sizes, seed: int = 0) -> MlpModel:
    """Seeded uniform init in +-1/sqrt(fan_in); biases start at zero."""
    sizes = tuple(int(s) for s in layer_sizes)
    if len(sizes) < 2:
        raise ConfigError(f"need input and output layers, got {sizes}")
    zeros = [0.0] * (len(sizes) - 1)
    model = MlpModel(sizes, zeros, zeros)
    rng = np.random.default_rng(seed)
    for w in model.weights:
        bound = 1.0 / math.sqrt(w.shape[1])
        w[...] = rng.uniform(-bound, bound, size=w.shape)
    return model


def _activations(sizes, X: np.ndarray) -> list:
    """Feature-major buffers of every layer for the (N, in) batch X.

    The input and each hidden layer get (size + 1, N) with a last row of
    ones, the bias input of the next layer; the output gets (size, N).
    acts[0] holds X transposed.
    """
    n = X.shape[0]
    acts = [np.ones((s + 1, n)) for s in sizes[:-1]] + [np.empty((sizes[-1], n))]
    acts[0][:-1] = X.T
    return acts


def _forward_layers(model: MlpModel, acts: list) -> np.ndarray:
    """Fill ``acts[1:]`` from ``acts[0]``; hidden tanh, output linear.

    Each layer is one matrix product into the rows above the ones row.
    Returns the (out, N) output.
    """
    last = len(model.layers) - 1
    for l, layer in enumerate(model.layers):
        z = acts[l + 1][: layer.shape[0]]
        np.matmul(layer, acts[l], out=z)
        if l != last:
            np.tanh(z, out=z)
    return acts[-1]


def forward(model: MlpModel, X) -> np.ndarray:
    """Outputs for the (N, in) batch X, (N,) when the network has a
    single output; pure."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.layer_sizes[0]:
        raise ShapeError(
            f"batch has shape {X.shape}, network expects (N, {model.layer_sizes[0]})"
        )
    out = _forward_layers(model, _activations(model.layer_sizes, X))
    return out[0] if model.layer_sizes[-1] == 1 else out.T


def _as_batch(model: MlpModel, data):
    """The float (X, Y) arrays of ``(X, y)`` training data."""
    if not (isinstance(data, tuple) and len(data) == 2):
        raise DataError("training data must be an (X, y) tuple of arrays, "
                        f"got {type(data).__name__}")
    X, Y = (np.asarray(a, dtype=float) for a in data)
    if X.shape[1:] != model.layer_sizes[:1]:
        raise ShapeError(
            f"batch inputs have shape {X.shape}, network expects "
            f"(N, {model.layer_sizes[0]})"
        )
    if X.shape[0] == 0:
        raise DataError("empty training batch")
    if Y.ndim == 1:
        Y = Y[:, None]
    if Y.shape != (X.shape[0], model.layer_sizes[-1]):
        raise ShapeError(
            f"batch targets have shape {Y.shape}, expected "
            f"({X.shape[0]}, {model.layer_sizes[-1]})"
        )
    return X, Y


class Batch:
    """Training inputs and targets with the buffers one gradient writes.

    ``gradient`` of a Batch fills the same activation and delta buffers
    and the same flat gradient vector ``grad`` (in the order of the
    model's ``params``) on every call, so a trainer that prepares its
    batch once allocates nothing per evaluation. ``flops`` is what one
    gradient costs.
    """

    def __init__(self, model: MlpModel, data):
        self.layer_sizes = sizes = model.layer_sizes
        X, Y = _as_batch(model, data)
        n = X.shape[0]
        self.acts = _activations(sizes, X)
        self.Y = np.ascontiguousarray(Y.T)
        # deltas[l], the error at the output of layers[l], is written by
        # the backward step of layers[l + 1] once its weight gradient is
        # taken: over the tanh outputs in acts[l + 1] when layers[l + 1]
        # has one output (a broadcast product needs no other buffer),
        # else into a buffer of its own; the output error overwrites the
        # output
        self.deltas = [self.acts[l + 1][:-1] if sizes[l + 2] == 1
                       else np.empty((sizes[l + 1], n))
                       for l in range(len(sizes) - 2)] + [self.acts[-1]]
        self.grad = np.empty(model.n_params)
        self.grads = _layer_views(self.grad, sizes)
        self.grads_w = [g[:, :-1] for g in self.grads]
        self.grads_b = [g[:, -1] for g in self.grads]
        # forward and weight-gradient products of every layer, the
        # back-propagated delta of every layer but the first, and per
        # hidden unit one tanh and three flops of its derivative
        macs = [a * b for a, b in zip(sizes[:-1], sizes[1:])]
        self.flops = n * (MAC_FLOPS * (2 * sum(macs) + sum(macs[1:]))
                          + (TRANSCENDENTAL_FLOPS + 3) * sum(sizes[1:-1]))


def gradient(model: MlpModel, data, counter=DISCARD):
    """Exact backpropagated gradient of the batch mean squared error.

    data is (X, Y) arrays or a ``Batch``.
    Returns (weight gradients, bias gradients, E); the gradients are
    views into ``data.grad`` for a Batch, which the next call on the
    same Batch overwrites.
    """
    batch = data if isinstance(data, Batch) else Batch(model, data)
    if batch.layer_sizes != model.layer_sizes:
        raise ShapeError(f"batch was prepared for layers {batch.layer_sizes}, "
                         f"network has {model.layer_sizes}")
    acts = batch.acts
    n = acts[0].shape[1]
    delta = _forward_layers(model, acts)
    delta -= batch.Y
    e_value = float((delta * delta).sum()) / n
    delta *= 2.0
    delta /= n
    for l in range(len(model.layers) - 1, -1, -1):
        # one product gives the weight gradient and, against the ones
        # row, the bias gradient
        np.matmul(delta, acts[l].T, out=batch.grads[l])
        if l == 0:
            break
        # the tanh outputs are spent, so their derivative 1 - a^2
        # overwrites them
        h = acts[l][:-1]
        np.multiply(h, h, out=h)
        np.subtract(1.0, h, out=h)
        if delta.shape[0] == 1:  # deltas[l - 1] is h
            h *= model.weights[l].T
            h *= delta
        else:
            np.matmul(model.weights[l].T, delta, out=batch.deltas[l - 1])
            batch.deltas[l - 1] *= h
        delta = batch.deltas[l - 1]
    counter.add(batch.flops)
    return batch.grads_w, batch.grads_b, e_value


def rmse(predictions, targets) -> float:
    """Root mean squared error between two equal-length sequences."""
    p = np.asarray(predictions, dtype=float).ravel()
    t = np.asarray(targets, dtype=float).ravel()
    if p.size != t.size:
        raise DataError(f"length mismatch: {p.size} vs {t.size}")
    if p.size == 0:
        raise DataError("rmse of empty sequences")
    return float(np.sqrt(np.mean((p - t) ** 2)))


@dataclass
class BpConfig:
    """Gradient-descent settings: learning rate, momentum, epoch budget."""

    epsilon: float = 0.01
    alpha: float = 0.9
    epochs: int = 2500

    def __post_init__(self):
        check_finite(self)
        if self.epsilon <= 0.0:
            raise ConfigError(f"epsilon must be positive, got {self.epsilon}")
        if not 0.0 <= self.alpha < 1.0:
            raise ConfigError(f"alpha must be in [0, 1), got {self.alpha}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")


def bp_train(model: MlpModel, data, cfg: BpConfig, counter=DISCARD) -> list:
    """Full-batch gradient descent with momentum; one update per epoch.

    Returns the per-epoch RMSE trace, evaluated at the parameters each
    epoch starts from. The momentum state persists across epochs.
    """
    batch, params = Batch(model, data), model.params
    step = np.zeros_like(params)
    trace = []
    # runaway weights overflow quietly here; the check below turns the
    # non-finite error into the failure signal
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, cfg.epochs + 1):
            e_value = gradient(model, batch, counter)[2]
            if not math.isfinite(e_value):
                raise DivergenceError(
                    f"training error became non-finite at epoch {epoch}")
            trace.append(math.sqrt(e_value))
            step *= cfg.alpha
            step -= cfg.epsilon * batch.grad
            params += step
    counter.add(4 * model.n_params * cfg.epochs)
    return trace


def hessian_vector_estimate(fun_grad, w, p, sigma: float, lam: float = 0.0) -> np.ndarray:
    """Finite-difference curvature estimate (E'(w + sigma p) - E'(w)) / sigma + lambda p.

    This is the product the SCG iteration uses in place of an exact
    Hessian-vector multiply. The error is first order in sigma.
    """
    if sigma <= 0.0:
        raise ConfigError(f"sigma must be positive, got {sigma}")
    _, g0 = fun_grad(np.asarray(w, dtype=float))
    _, g1 = fun_grad(np.asarray(w, dtype=float) + sigma * np.asarray(p, dtype=float))
    return (g1 - g0) / sigma + lam * np.asarray(p, dtype=float)


@dataclass
class ScgResult:
    w: np.ndarray
    trace: list
    iterations: int
    grad_norm: float
    converged: bool = False


def scg_minimize(fun_grad, w0, iterations: int,
                 grad_tol: Optional[float] = None, counter=DISCARD) -> ScgResult:
    """Scaled conjugate gradient minimization of a smooth function.

    fun_grad(w) must return (value, gradient); each gradient is read
    before the next call, so fun_grad may hand back one reused buffer.
    Runs the full step sequence: curvature along the direction from the
    sigma-scaled gradient difference, positive-definiteness repair and
    step-quality control through lambda (raised x4 on poor steps,
    lowered x1/4 on very good ones), and a restart to steepest descent
    every n iterations on an n-dimensional problem.
    Accepted steps never increase the function value; rejected steps
    leave the iterate unchanged.
    """
    if iterations < 1:
        raise ConfigError(f"iterations must be >= 1, got {iterations}")
    w = np.asarray(w0, dtype=float).copy()
    e_value, g = fun_grad(w)
    if not math.isfinite(e_value):
        raise DivergenceError("objective is non-finite at the starting point")
    r = -np.asarray(g, dtype=float)
    p = r.copy()
    lam = _LAMBDA0
    lam_bar = 0.0
    success = True
    delta = 0.0
    n_restart = max(1, w.size)
    trace = []
    performed = 0
    converged = False
    for k in range(1, iterations + 1):
        trace.append(e_value)
        performed = k
        norm_r = float(np.linalg.norm(r))
        if grad_tol is not None and norm_r < grad_tol:
            converged = True
            break
        pp = float(p @ p)
        if pp == 0.0:
            converged = True
            break
        if success:
            sigma_k = _SIGMA0 / math.sqrt(pp)
            _, g2 = fun_grad(w + sigma_k * p)
            s = (np.asarray(g2, dtype=float) + r) / sigma_k
            delta = float(p @ s)
        delta_k = delta + (lam - lam_bar) * pp
        if delta_k <= 0.0:
            # repair an indefinite curvature estimate
            lam_bar = 2.0 * (lam - delta_k / pp)
            delta_k = -delta_k + lam * pp
            lam = lam_bar
        if delta_k <= 0.0 or not math.isfinite(delta_k):
            delta_k = _LAMBDA_FLOOR * max(pp, 1.0)
        mu = float(p @ r)
        if mu == 0.0:
            p = r.copy()
            success = True
            continue
        alpha = mu / delta_k
        e_new, g_new = fun_grad(w + alpha * p)
        if math.isfinite(e_new):
            comparison = 2.0 * delta_k * (e_value - e_new) / (mu * mu)
        else:
            comparison = -math.inf
        if math.isfinite(comparison) and comparison >= 0.0:
            w = w + alpha * p
            e_value = e_new
            r_old = r
            r = -np.asarray(g_new, dtype=float)
            lam_bar = 0.0
            success = True
            if k % n_restart == 0:
                p = r.copy()
            else:
                beta = float(r @ r - r @ r_old) / mu
                p = r + beta * p
            if comparison >= 0.75:
                lam = max(lam * 0.25, _LAMBDA_FLOOR)
        else:
            lam_bar = lam
            success = False
        if not (math.isfinite(comparison) and comparison >= 0.25):
            lam = max(lam * 4.0, _LAMBDA_FLOOR)
        counter.add(10 * w.size)
    return ScgResult(
        w=w, trace=trace, iterations=performed,
        grad_norm=float(np.linalg.norm(r)), converged=converged,
    )


def scg_train(model: MlpModel, data, epochs: int, counter=DISCARD) -> list:
    """Train the network by scaled conjugate gradient for a fixed budget.

    Returns the per-epoch RMSE trace (same convention as bp_train).
    """
    batch = Batch(model, data)

    def fun_grad(vec):
        np.copyto(model.params, vec)
        return gradient(model, batch, counter)[2], batch.grad

    result = scg_minimize(fun_grad, model.params.copy(), iterations=epochs,
                          counter=counter)
    np.copyto(model.params, result.w)
    trace = [math.sqrt(e) for e in result.trace]
    while len(trace) < epochs:
        trace.append(trace[-1])
    return trace


# -- serialization ---------------------------------------------------------


def _fields(model: MlpModel) -> dict:
    fields = {"layers": " ".join(str(s) for s in model.layer_sizes),
              "hidden_activation": model.hidden_activation,
              "output_activation": model.output_activation}
    for l, (w, b) in enumerate(zip(model.weights, model.biases)):
        fields[f"weight.{l}"] = w
        fields[f"bias.{l}"] = b
    return fields


def to_text(model: MlpModel, extra: Optional[dict] = None) -> str:
    return snapshot.dump("mlp", _fields(model), extra)


def from_text(text: str):
    """Rebuild (model, extra) from snapshot text."""
    return _from_fields(*snapshot.load(text, "mlp"))


def _from_fields(body: dict, extra: dict):
    need = snapshot.need
    sizes = need(body, "layers", lambda v: tuple(int(t) for t in v.split()))
    if len(sizes) < 2:
        raise ParseError(f"snapshot layer list too short: {sizes}")
    weights = []
    biases = []
    for l, (fan_in, fan_out) in enumerate(zip(sizes[:-1], sizes[1:])):
        w = need(body, f"weight.{l}", snapshot.parse_finite, fan_in * fan_out)
        weights.append(w.reshape(fan_out, fan_in))
        biases.append(need(body, f"bias.{l}", snapshot.parse_finite, fan_out))
    # _forward_layers implements exactly these two
    for key, implemented in (("hidden_activation", "tanh_sigmoid"),
                             ("output_activation", "linear")):
        if need(body, key) != implemented:
            raise ParseError(f"snapshot {key} {body[key]!r} is not "
                             f"implemented; expected {implemented!r}")
    return MlpModel(sizes, weights, biases), extra


def save(model: MlpModel, path, extra: Optional[dict] = None) -> None:
    snapshot.write(path, "mlp", _fields(model), extra)


def load(path):
    return snapshot.read(path, "mlp", _from_fields)
