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
from .errors import (
    ConfigError,
    DataError,
    DivergenceError,
    ParseError,
    ShapeError,
)

_LAMBDA_FLOOR = 1e-20
# SCG's curvature step length (sigma, divided by |p| each step) and its
# starting lambda
_SIGMA0 = 1e-5
_LAMBDA0 = 1e-6


@dataclass
class MlpModel:
    """Layered weights; weights[l] maps layer l (columns) to l+1 (rows)."""

    layer_sizes: tuple
    weights: list
    biases: list
    hidden_activation: str = "tanh_sigmoid"
    output_activation: str = "linear"

    @property
    def n_params(self) -> int:
        return sum(w.size for w in self.weights) + sum(b.size for b in self.biases)


def init_mlp(layer_sizes, seed: int = 0) -> MlpModel:
    """Seeded uniform init in +-1/sqrt(fan_in); biases start at zero."""
    sizes = tuple(int(s) for s in layer_sizes)
    if len(sizes) < 2:
        raise ConfigError(f"need input and output layers, got {sizes}")
    if any(s < 1 for s in sizes):
        raise ConfigError(f"layer sizes must be >= 1, got {sizes}")
    rng = np.random.default_rng(seed)
    weights = []
    biases = []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        bound = 1.0 / math.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return MlpModel(sizes, weights, biases)


def _forward_layers(model: MlpModel, x: np.ndarray, counter=None, acts=None):
    """Activations of every layer for a batch; hidden tanh, output linear.

    acts, when given, is ``[x]`` followed by one (N, size) buffer per
    later layer, and is filled in place; otherwise it is allocated.
    """
    if acts is None:
        acts = [x] + [np.empty((x.shape[0], w.shape[0])) for w in model.weights]
    last = len(model.weights) - 1
    for l, (w, b) in enumerate(zip(model.weights, model.biases)):
        a, z = acts[l], acts[l + 1]
        np.matmul(a, w.T, out=z)
        z += b
        if counter is not None:
            counter.add_gemm(a.shape[0], w.shape[0], w.shape[1])
        if l != last:
            np.tanh(z, out=z)
            if counter is not None:
                counter.add_transcendental(z.size)
    return acts


def forward(model: MlpModel, x) -> float:
    """Network output for a single input vector; pure."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size != model.layer_sizes[0]:
        raise ShapeError(
            f"input has shape {x.shape}, network expects {model.layer_sizes[0]}"
        )
    out = _forward_layers(model, x[None, :])[-1][0]
    return float(out[0]) if out.size == 1 else out


def forward_batch(model: MlpModel, X) -> np.ndarray:
    """Outputs for a batch; (N,) when the network has a single output."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.layer_sizes[0]:
        raise ShapeError(
            f"batch has shape {X.shape}, network expects (N, {model.layer_sizes[0]})"
        )
    out = _forward_layers(model, X)[-1]
    return out[:, 0] if model.layer_sizes[-1] == 1 else out


def _as_batch(model: MlpModel, data):
    """Normalize (X, y) arrays or a sequence of (x, y) pairs to arrays."""
    if isinstance(data, tuple) and len(data) == 2:
        X = np.asarray(data[0], dtype=float)
        Y = np.asarray(data[1], dtype=float)
    else:
        pairs = list(data)
        if not pairs:
            raise DataError("empty training batch")
        X = np.stack([np.asarray(x, dtype=float) for x, _ in pairs])
        Y = np.asarray([y for _, y in pairs], dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    if X.shape[0] == 0:
        raise DataError("empty training batch")
    if X.shape[1] != model.layer_sizes[0]:
        raise ShapeError(
            f"batch inputs have width {X.shape[1]}, network expects "
            f"{model.layer_sizes[0]}"
        )
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

    ``gradient`` of a Batch fills the same per-layer activation and delta
    buffers and the same flat gradient vector ``grad`` (weights then
    biases, the order of ``flatten_params``) on every call, so a trainer
    that prepares its batch once allocates nothing per evaluation.
    """

    def __init__(self, model: MlpModel, data):
        self.layer_sizes = model.layer_sizes
        self.X, self.Y = _as_batch(model, data)
        n = self.X.shape[0]
        self.acts = [self.X] + [np.empty((n, s)) for s in self.layer_sizes[1:]]
        # deltas[l] is written once acts[l + 2] is spent, so it takes that
        # buffer when the shapes agree
        spent = self.acts[2:]
        self.deltas = [
            spent[l] if l < len(spent) and spent[l].shape == (n, s)
            else np.empty((n, s))
            for l, s in enumerate(self.layer_sizes[1:])
        ]
        self.grad = np.empty(model.n_params)
        views, pos = [], 0
        for param in model.weights + model.biases:
            views.append(self.grad[pos : pos + param.size].reshape(param.shape))
            pos += param.size
        self.grads_w = views[: len(model.weights)]
        self.grads_b = views[len(model.weights) :]


def gradient(model: MlpModel, data, counter=None):
    """Exact backpropagated gradient of the batch mean squared error.

    data is (X, Y) arrays, a sequence of (x, y) pairs, or a ``Batch``.
    Returns (weight gradients, bias gradients, E); for a Batch the
    gradients are views into ``data.grad``, which the next call on the
    same Batch overwrites.
    """
    batch = data if isinstance(data, Batch) else Batch(model, data)
    if batch.layer_sizes != model.layer_sizes:
        raise ShapeError(f"batch was prepared for layers {batch.layer_sizes}, "
                         f"network has {model.layer_sizes}")
    acts, deltas = batch.acts, batch.deltas
    n = batch.X.shape[0]
    _forward_layers(model, batch.X, counter, acts)
    delta = deltas[-1]
    np.subtract(acts[-1], batch.Y, out=delta)
    e_value = float((delta * delta).sum(axis=1).mean())
    delta *= 2.0
    delta /= n
    for l in range(len(model.weights) - 1, -1, -1):
        delta = deltas[l]
        np.matmul(delta.T, acts[l], out=batch.grads_w[l])
        np.sum(delta, axis=0, out=batch.grads_b[l])
        if counter is not None:
            counter.add_gemm(delta.shape[1], acts[l].shape[1], n)
        if l > 0:
            # acts[l] is spent once its weight gradient is taken, so the
            # tanh derivative 1 - a^2 overwrites it
            a = acts[l]
            np.matmul(delta, model.weights[l], out=deltas[l - 1])
            np.multiply(a, a, out=a)
            np.subtract(1.0, a, out=a)
            deltas[l - 1] *= a
            if counter is not None:
                counter.add_gemm(n, deltas[l - 1].shape[1], delta.shape[1])
                counter.add(3 * a.size)
    return batch.grads_w, batch.grads_b, e_value


def flatten_params(model: MlpModel) -> np.ndarray:
    """All weights then all biases as one parameter vector."""
    parts = [w.ravel() for w in model.weights] + [b.ravel() for b in model.biases]
    return np.concatenate(parts)


def set_params(model: MlpModel, vec: np.ndarray) -> None:
    """Write a flat parameter vector back into the layer arrays."""
    if vec.size != model.n_params:
        raise ShapeError(f"vector has {vec.size} entries, model has {model.n_params}")
    pos = 0
    for w in model.weights:
        w[...] = vec[pos : pos + w.size].reshape(w.shape)
        pos += w.size
    for b in model.biases:
        b[...] = vec[pos : pos + b.size]
        pos += b.size


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
        if self.epsilon <= 0.0:
            raise ConfigError(f"epsilon must be positive, got {self.epsilon}")
        if not 0.0 <= self.alpha < 1.0:
            raise ConfigError(f"alpha must be in [0, 1), got {self.alpha}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")


def bp_train(model: MlpModel, data, cfg: BpConfig, counter=None) -> list:
    """Full-batch gradient descent with momentum; one update per epoch.

    Returns the per-epoch RMSE trace, evaluated at the parameters each
    epoch starts from. The momentum state persists across epochs.
    """
    batch = Batch(model, data)
    deltas_w = [np.zeros_like(w) for w in model.weights]
    deltas_b = [np.zeros_like(b) for b in model.biases]
    trace = []
    for epoch in range(1, cfg.epochs + 1):
        # runaway weights overflow quietly here; the check below turns
        # the non-finite error into the failure signal
        with np.errstate(over="ignore", invalid="ignore"):
            grads_w, grads_b, e_value = gradient(model, batch, counter)
        if not math.isfinite(e_value):
            raise DivergenceError(f"training error became non-finite at epoch {epoch}")
        trace.append(math.sqrt(e_value))
        for w, g, d in zip(model.weights, grads_w, deltas_w):
            d *= cfg.alpha
            d -= cfg.epsilon * g
            w += d
        for b, g, d in zip(model.biases, grads_b, deltas_b):
            d *= cfg.alpha
            d -= cfg.epsilon * g
            b += d
        if counter is not None:
            counter.add(4 * model.n_params)
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
                 grad_tol: Optional[float] = None, counter=None) -> ScgResult:
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
        if counter is not None:
            counter.add(10 * w.size)
    return ScgResult(
        w=w, trace=trace, iterations=performed,
        grad_norm=float(np.linalg.norm(r)), converged=converged,
    )


def scg_train(model: MlpModel, data, epochs: int, counter=None) -> list:
    """Train the network by scaled conjugate gradient for a fixed budget.

    Returns the per-epoch RMSE trace (same convention as bp_train).
    """
    batch = Batch(model, data)

    def fun_grad(vec):
        set_params(model, vec)
        return gradient(model, batch, counter)[2], batch.grad

    result = scg_minimize(fun_grad, flatten_params(model), iterations=epochs,
                          counter=counter)
    set_params(model, result.w)
    trace = [math.sqrt(e) for e in result.trace]
    while len(trace) < epochs:
        trace.append(trace[-1] if trace else 0.0)
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
        w = need(body, f"weight.{l}", snapshot.parse_array)
        if w.size != fan_in * fan_out:
            raise ParseError(f"weight.{l} has {w.size} entries, expected "
                             f"{fan_in * fan_out}")
        weights.append(w.reshape(fan_out, fan_in))
        b = need(body, f"bias.{l}", snapshot.parse_array)
        if b.size != fan_out:
            raise ParseError(f"bias.{l} has {b.size} entries, expected {fan_out}")
        biases.append(b)
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
