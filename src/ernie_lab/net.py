# Minimal dense-network engine: deterministic init, reverse-mode gradients
# w.r.t. parameters and inputs, binary parameter files, and a finite-difference
# Hessian-vector product that serves only as the oracle for the exact one in
# advreg. Everything is float64; nets are immutable values, each holding its
# parameters in one flat vector that gradients, SGD, target updates and
# checkpoints share.
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

ACTIVATIONS = ("relu", "tanh")


def _dims(layer_dims) -> tuple[int, ...]:
    dims = tuple(int(d) for d in layer_dims)
    if len(dims) < 2:
        raise ValueError("layer_dims needs at least an input and an output width")
    if any(d < 1 for d in dims):
        raise ValueError(f"layer widths must be positive, got {dims}")
    return dims


@functools.lru_cache(maxsize=64)
def _layout(dims: tuple[int, ...]):
    """Per layer (weight slice, weight shape, bias slice) of the flat
    vector, and the total parameter count."""
    layers, k = [], 0
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        w_end = k + fan_out * fan_in
        layers.append((slice(k, w_end), (fan_out, fan_in), slice(w_end, w_end + fan_out)))
        k = w_end + fan_out
    return tuple(layers), k


def layer_views(vec: np.ndarray, layer_dims) -> tuple:
    """((W_0, W_1, ...), (b_0, b_1, ...)) as views into a flat vector laid
    out like Net.theta."""
    layers = _layout(tuple(layer_dims))[0]
    return (tuple([vec[w].reshape(shape) for w, shape, _ in layers]),
            tuple([vec[b] for _, _, b in layers]))


class Net:
    """Dense net: affine layers with `activation` between them; the final
    layer is affine. All parameters live in one read-only float64 vector
    `theta`, laid out W_0 (row-major, (out, in)), b_0, W_1, b_1, ...;
    `weights` and `biases` are views into it. Nets are immutable values."""

    __slots__ = ("layer_dims", "theta", "weights", "biases", "activation")

    def __init__(self, layer_dims, weights, biases, activation: str = "relu"):
        dims = _dims(layer_dims)
        if len(weights) != len(dims) - 1 or len(biases) != len(dims) - 1:
            raise ValueError(f"{len(dims) - 1} layers need as many weights and biases")
        for i, (w, b) in enumerate(zip(weights, biases)):
            if np.shape(w) != (dims[i + 1], dims[i]) or np.shape(b) != (dims[i + 1],):
                raise ValueError(f"layer {i} shapes inconsistent with layer_dims {dims}")
        theta = np.concatenate([np.ravel(p) for w, b in zip(weights, biases)
                                for p in (w, b)]).astype(float, copy=False)
        _bind(self, dims, theta, activation)

    def __setattr__(self, name, value):
        raise AttributeError("Net is immutable")

    def __reduce__(self):
        return _from_vector, (self.layer_dims, self.theta, self.activation)

    @property
    def in_dim(self) -> int:
        return self.layer_dims[0]

    @property
    def out_dim(self) -> int:
        return self.layer_dims[-1]


def _bind(net: Net, dims: tuple[int, ...], theta: np.ndarray, activation: str) -> Net:
    # theta must be a float64 vector of the right size that nothing else writes.
    theta.setflags(write=False)
    set_ = object.__setattr__
    set_(net, "layer_dims", dims)
    set_(net, "theta", theta)
    ws, bs = layer_views(theta, dims)
    set_(net, "weights", ws)
    set_(net, "biases", bs)
    set_(net, "activation", activation)
    return net


def _from_vector(dims: tuple[int, ...], theta: np.ndarray, activation: str) -> Net:
    """A Net that takes ownership of theta, without copying it."""
    return _bind(object.__new__(Net), dims, theta, activation)


@dataclass
class GradBundle:
    grad_theta: np.ndarray  # flat parameter gradient, laid out like Net.theta
    grad_input: np.ndarray


def net_init(layer_dims, activation="relu", seed=0, scale=1.0) -> Net:
    """Seeded uniform init: W ~ U(-scale/sqrt(fan_in), +scale/sqrt(fan_in)), b = 0."""
    dims = _dims(layer_dims)
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
    return Net(dims, ws, bs, activation)


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
    # Reverse pass over _forward_cached's record of a (B, d) batch, writing
    # each layer's parameter gradient into its view of one flat vector.
    if upstream.shape[-1] != net.out_dim:
        raise ValueError(f"upstream dim {upstream.shape[-1]} != net output dim {net.out_dim}")
    if acts[0].shape[0] != upstream.shape[0]:
        raise ValueError("batch sizes of x and upstream differ")
    n_layers = len(net.weights)
    grad = np.empty(net.theta.size)
    gws, gbs = layer_views(grad, net.layer_dims)
    dz = upstream
    for i in range(n_layers - 1, -1, -1):
        if i < n_layers - 1:
            dz = dz * _act_grad(zs[i], net.activation)
        np.matmul(dz.T, acts[i], out=gws[i])
        np.sum(dz, axis=0, out=gbs[i])
        dz = dz @ net.weights[i]
    return GradBundle(grad, dz)


def n_params(net: Net) -> int:
    return net.theta.size


def params_to_vector(net: Net) -> np.ndarray:
    """The net's read-only parameter vector itself, not a copy."""
    return net.theta


def vector_to_net(template: Net, vec: np.ndarray) -> Net:
    """A net shaped like template with a copy of vec as its parameters."""
    vec = np.array(vec, dtype=float)
    if vec.shape != template.theta.shape:
        raise ValueError(f"vector shape {vec.shape} != param count {template.theta.size}")
    return _from_vector(template.layer_dims, vec, template.activation)


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


def save_net(net: Net, path) -> None:
    """Write the parameter vector as one .npy file at exactly `path`. The
    file holds no layer dims or activation; the caller records them (a
    checkpoint keeps them in its manifest) and hands them to load_net."""
    with open(path, "wb") as fh:
        np.save(fh, net.theta, allow_pickle=False)


def load_net(path, layer_dims, activation: str) -> Net:
    """Read a save_net file as a Net with the given layer dims and activation.

    Rejects pickled data, anything but a 1-D float64 vector, a size that
    layer_dims does not give, and non-finite parameters.
    """
    dims = _dims(layer_dims)
    if activation not in ACTIVATIONS:
        raise ValueError(f"checkpoint activation must be one of {ACTIVATIONS}, got {activation!r}")
    with open(path, "rb") as fh:
        theta = np.load(fh, allow_pickle=False)
    if not isinstance(theta, np.ndarray) or theta.dtype != np.float64 or theta.ndim != 1:
        raise ValueError(f"{path}: not a float64 parameter vector")
    want = _layout(dims)[1]
    if theta.size != want:
        raise ValueError(f"{path}: {theta.size} parameters, layer_dims {dims} need {want}")
    if not np.isfinite(theta).all():
        raise ValueError(f"{path}: non-finite parameters")
    return _from_vector(dims, theta, activation)
