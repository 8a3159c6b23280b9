# Minimal dense-network engine: deterministic init, reverse-mode gradients
# w.r.t. parameters and inputs, and a finite-difference Hessian-vector product
# that serves only as the oracle for the exact one in advreg.
# Everything is float64; nets are immutable values.
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

ACTIVATIONS = ("relu", "tanh")


@dataclass(frozen=True)
class Net:
    layer_dims: tuple[int, ...]
    weights: tuple[np.ndarray, ...]  # each (out, in)
    biases: tuple[np.ndarray, ...]
    activation: str = "relu"

    @property
    def in_dim(self) -> int:
        return self.layer_dims[0]

    @property
    def out_dim(self) -> int:
        return self.layer_dims[-1]


@dataclass
class GradBundle:
    grad_params: list  # [(dW, db), ...] matching net layers
    grad_input: np.ndarray


def net_init(layer_dims, activation="relu", seed=0, scale=1.0) -> Net:
    """Seeded uniform init: W ~ U(-scale/sqrt(fan_in), +scale/sqrt(fan_in)), b = 0."""
    dims = tuple(int(d) for d in layer_dims)
    if len(dims) < 2:
        raise ValueError("layer_dims needs at least an input and an output width")
    if any(d < 1 for d in dims):
        raise ValueError(f"layer widths must be positive, got {dims}")
    if scale <= 0:
        raise ValueError(f"scale must be > 0, got {scale}")
    if activation not in ACTIVATIONS:
        raise ValueError(f"activation must be one of {ACTIVATIONS}, got {activation!r}")
    rng = np.random.default_rng(seed)
    ws, bs = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        bound = scale / np.sqrt(fan_in)
        ws.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        bs.append(np.zeros(fan_out))
    return Net(dims, tuple(ws), tuple(bs), activation)


def _act(z, kind):
    if kind == "relu":
        return np.maximum(z, 0.0)
    return np.tanh(z)


def _act_grad(z, kind):
    if kind == "relu":
        return (z > 0).astype(float)  # subgradient 0 at the kink
    t = np.tanh(z)
    return 1.0 - t * t


def _forward_cached(net: Net, x: np.ndarray):
    """Returns (pre-activations per layer, post-activation inputs per layer, output)."""
    a = x
    zs, acts = [], [a]
    n_layers = len(net.weights)
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = a @ w.T + b
        zs.append(z)
        a = z if i == n_layers - 1 else _act(z, net.activation)
        acts.append(a)
    return zs, acts, a


def net_forward(net: Net, x) -> np.ndarray:
    """Evaluate the net on a single input (d,) or a batch (B, d). Final layer is affine."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != net.in_dim:
        raise ValueError(f"input dim {x.shape[-1]} != net input dim {net.in_dim}")
    _, _, y = _forward_cached(net, x)
    return y


def net_grads(net: Net, x, upstream) -> GradBundle:
    """Reverse-mode gradients of upstream . f(x) w.r.t. parameters and input.

    Batched inputs (B, d) with upstream (B, out) give parameter grads summed
    over the batch and per-row input grads.
    """
    x = np.asarray(x, dtype=float)
    upstream = np.asarray(upstream, dtype=float)
    if x.shape[-1] != net.in_dim:
        raise ValueError(f"input dim {x.shape[-1]} != net input dim {net.in_dim}")
    single = x.ndim == 1
    xb = x[None, :] if single else x
    ub = upstream[None, :] if single else upstream
    zs, acts, _ = _forward_cached(net, xb)
    bundle = _backward(net, zs, acts, ub)
    if single:
        bundle.grad_input = bundle.grad_input[0]
    return bundle


def net_vjp(net: Net, x):
    """net_forward(net, x) on a batch (B, d), and a function mapping an
    upstream (B, out) to net_grads(net, x, upstream) that reuses this
    forward pass instead of repeating it."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[-1] != net.in_dim:
        raise ValueError(f"input shape {x.shape} is not (B, {net.in_dim})")
    zs, acts, y = _forward_cached(net, x)
    return y, lambda upstream: _backward(net, zs, acts, np.asarray(upstream, dtype=float))


def _backward(net: Net, zs, acts, upstream: np.ndarray) -> GradBundle:
    # Reverse pass over _forward_cached's record of a (B, d) batch.
    if upstream.shape[-1] != net.out_dim:
        raise ValueError(f"upstream dim {upstream.shape[-1]} != net output dim {net.out_dim}")
    if acts[0].shape[0] != upstream.shape[0]:
        raise ValueError("batch sizes of x and upstream differ")
    n_layers = len(net.weights)
    grad_params = [None] * n_layers
    dz = upstream
    for i in range(n_layers - 1, -1, -1):
        if i < n_layers - 1:
            dz = dz * _act_grad(zs[i], net.activation)
        grad_params[i] = (dz.T @ acts[i], dz.sum(axis=0))
        dz = dz @ net.weights[i]
    return GradBundle(grad_params, dz)


def n_params(net: Net) -> int:
    return sum(w.size + b.size for w, b in zip(net.weights, net.biases))


def params_to_vector(net: Net) -> np.ndarray:
    parts = []
    for w, b in zip(net.weights, net.biases):
        parts.append(w.ravel())
        parts.append(b.ravel())
    return np.concatenate(parts)


def vector_to_net(template: Net, vec: np.ndarray) -> Net:
    vec = np.asarray(vec, dtype=float)
    if vec.size != n_params(template):
        raise ValueError(f"vector size {vec.size} != param count {n_params(template)}")
    ws, bs, k = [], [], 0
    for w, b in zip(template.weights, template.biases):
        ws.append(vec[k:k + w.size].reshape(w.shape))
        k += w.size
        bs.append(vec[k:k + b.size].copy())
        k += b.size
    return Net(template.layer_dims, tuple(ws), tuple(bs), template.activation)


def grads_to_vector(grad_params) -> np.ndarray:
    parts = []
    for dw, db in grad_params:
        parts.append(dw.ravel())
        parts.append(db.ravel())
    return np.concatenate(parts)


def hvp(grad_fn, theta, v, h=None) -> np.ndarray:
    """Central-difference Hessian-vector product from a gradient oracle; the
    reference that gradcheck and the tests hold the exact products to.

    Returns [g(theta + h'v) - g(theta - h'v)] / (2 h') with h' = h / ||v||.
    Two gradient evaluations, O(d) extra memory.
    """
    theta = np.asarray(theta, dtype=float)
    v = np.asarray(v, dtype=float)
    vnorm = float(np.linalg.norm(v))
    if vnorm == 0.0:
        raise ValueError("hvp direction v must be nonzero")
    if h is None:
        h = 1e-5 * (1.0 + float(np.linalg.norm(theta)))
    if h <= 0:
        raise ValueError(f"step h must be > 0, got {h}")
    hp = h / vnorm
    return (grad_fn(theta + hp * v) - grad_fn(theta - hp * v)) / (2.0 * hp)


def net_to_json(net: Net) -> dict:
    return {
        "layer_dims": list(net.layer_dims),
        "activation": net.activation,
        "weights": [w.tolist() for w in net.weights],
        "biases": [b.tolist() for b in net.biases],
    }


def net_from_json(doc: dict) -> Net:
    dims = tuple(int(d) for d in doc["layer_dims"])
    ws = tuple(np.asarray(w, dtype=float) for w in doc["weights"])
    bs = tuple(np.asarray(b, dtype=float) for b in doc["biases"])
    net = Net(dims, ws, bs, doc["activation"])
    for i, (w, b) in enumerate(zip(ws, bs)):
        if w.shape != (dims[i + 1], dims[i]) or b.shape != (dims[i + 1],):
            raise ValueError(f"checkpoint layer {i} shapes inconsistent with layer_dims")
        if not (np.isfinite(w).all() and np.isfinite(b).all()):
            raise ValueError(f"checkpoint layer {i} has non-finite parameters")
    return net


def save_net(net: Net, path) -> None:
    with open(path, "w") as f:
        json.dump(net_to_json(net), f, sort_keys=True)


def load_net(path) -> Net:
    with open(path) as f:
        return net_from_json(json.load(f))
