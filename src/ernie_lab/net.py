# Minimal dense-network engine: deterministic init, reverse-mode gradients
# w.r.t. parameters and inputs, binary parameter files, and a finite-difference
# Hessian-vector product that serves only as the oracle for the exact one in
# advreg. Everything is float64; nets are immutable values, each holding its
# parameters in one flat vector that gradients, SGD, target updates and
# checkpoints share. N same-shaped nets (one per agent) can be held as one
# agent stack: an (N, P) block whose rows are the nets' vectors, evaluated
# and differentiated by the same code with batched np.matmul.
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

ACTIVATIONS = ("relu", "tanh")
WRT = ("both", "theta", "input")  # the gradients a reverse pass computes


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
    out like Net.theta, or into an (N, P) block of such vectors, giving
    (N, out, in) weights and (N, out) biases."""
    layers = _layout(tuple(layer_dims))[0]
    lead = vec.shape[:-1]
    return (tuple([vec[..., w].reshape(lead + shape) for w, shape, _ in layers]),
            tuple([vec[..., b] for _, _, b in layers]))


class Net:
    """Dense net: affine layers with `activation` between them; the final
    layer is affine. All parameters live in one read-only float64 vector
    `theta`, laid out W_0 (row-major, (out, in)), b_0, W_1, b_1, ...;
    `weights` and `biases` are views into it. Nets are immutable values.

    An agent stack (see stack_nets) is a Net whose `theta` is an (N, P)
    block, one row per agent; its weights are (N, out, in) and its biases
    (N, out). `stack[i]` is agent i's Net, a view of row i."""

    __slots__ = ("layer_dims", "theta", "weights", "biases", "activation")

    def __init__(self, layer_dims, weights, biases, activation: str = "relu"):
        dims = _dims(layer_dims)
        if activation not in ACTIVATIONS:
            raise ValueError(f"activation must be one of {ACTIVATIONS}, got {activation!r}")
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
    def stacked(self) -> bool:
        return self.theta.ndim == 2

    def __len__(self) -> int:
        if not self.stacked:
            raise TypeError("a single Net has no agents to count")
        return self.theta.shape[0]

    def __getitem__(self, i: int) -> "Net":
        if not self.stacked:
            raise TypeError("only an agent stack can be indexed")
        return _from_vector(self.layer_dims, self.theta[i], self.activation)

    @property
    def in_dim(self) -> int:
        return self.layer_dims[0]

    @property
    def out_dim(self) -> int:
        return self.layer_dims[-1]


def _bind(net: Net, dims: tuple[int, ...], theta: np.ndarray, activation: str) -> Net:
    # theta must be a float64 vector (or (N, P) block) of the right size that
    # nothing else writes.
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


def stack_nets(nets) -> Net:
    """One agent stack from same-shaped nets: row i of its (N, P) block is
    nets[i].theta."""
    nets = list(nets)
    if not nets:
        raise ValueError("cannot stack zero nets")
    first = nets[0]
    for net in nets:
        if net.stacked or net.layer_dims != first.layer_dims \
                or net.activation != first.activation:
            raise ValueError("stacked nets need equal layer dims and activation")
    return _from_vector(first.layer_dims, np.stack([net.theta for net in nets]),
                        first.activation)


@dataclass
class GradBundle:
    grad_theta: np.ndarray | None  # parameter gradient, laid out like Net.theta
    grad_input: np.ndarray | None


def net_init(layer_dims, activation="relu", seed=0, scale=1.0) -> Net:
    """Seeded uniform init: W ~ U(-scale/sqrt(fan_in), +scale/sqrt(fan_in)), b = 0."""
    dims = _dims(layer_dims)
    if scale <= 0:
        raise ValueError(f"scale must be > 0, got {scale}")
    rng = np.random.default_rng(seed)
    ws, bs = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        bound = scale / np.sqrt(fan_in)
        ws.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        bs.append(np.zeros(fan_out))
    return Net(dims, ws, bs, activation)


def _act(z, kind, out=None):
    if kind == "relu":
        return np.maximum(z, 0.0, out=out)
    return np.tanh(z, out=out)


def _act_grad(z, kind):
    if kind == "relu":
        return (z > 0).astype(float)  # subgradient 0 at the kink
    t = np.tanh(z)
    return 1.0 - t * t


def _act_grad_from_output(a, kind):
    # _act_grad(z) from a = _act(z): relu's a > 0 exactly where z > 0, and
    # tanh's a is the t that _act_grad computes.
    if kind == "relu":
        return a > 0
    return 1.0 - a * a


def _forward_cached(net: Net, x: np.ndarray):
    """Returns (the input of every layer, output). A single net takes x of
    any shape (..., d); a stack takes (N, B, d), or (M, N, 1, d), and runs
    one matmul over the agent axis, which is bitwise the per-agent products
    (for (M, N, 1, d): each (m, i) row's own product). Bias and activation
    are applied in place: no pre-activation is kept, and no temporary
    beside the matmul's output is made, which matters for a stack's
    (N, B, width) blocks."""
    a = x
    acts = [a]
    n_layers = len(net.weights)
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        if net.stacked:
            a = np.matmul(a, w.transpose(0, 2, 1))
            a += b[:, None, :]
        else:
            a = a @ w.T
            a += b
        if i < n_layers - 1:
            a = _act(a, net.activation, out=a)
            acts.append(a)
    return acts, a


def _check_input(net: Net, x: np.ndarray, batched: bool) -> None:
    # A stack takes (N, d) unbatched; batched, (N, B, d) or M row stacks
    # (M, N, 1, d). Each must have the stack's agent count N where the agent
    # axis is: a 1-agent stack would otherwise broadcast over any N.
    d = net.layer_dims[0]
    if x.shape[-1] != d:
        raise ValueError(f"input dim {x.shape[-1]} != net input dim {d}")
    if net.theta.ndim == 1:
        return
    n, ndim = net.theta.shape[0], x.ndim
    if batched:
        if ndim == 3 and x.shape[0] == n or ndim == 4 and x.shape[1:3] == (n, 1):
            return
        want = f"({n}, B, {d}) or (M, {n}, 1, {d})"
    else:
        if ndim == 2 and x.shape[0] == n:
            return
        want = f"({n}, {d})"
    raise ValueError(f"agent stack input shape {x.shape} is not {want}")


def net_forward(net: Net, x) -> np.ndarray:
    """Evaluate the net on a single input (d,) or a batch (B, d); a stack of
    (M, 1, d) rows gives each row's single-input result bit for bit. Final
    layer is affine.

    An agent stack takes one input per agent (N, d), giving (N, out), or a
    batch per agent (N, B, d), giving (N, B, out). M row stacks
    (M, N, 1, d) give (M, N, 1, out), row (m, i) bit for bit agent i's
    result on its one row."""
    x = np.asarray(x, dtype=float)
    _check_input(net, x, batched=x.ndim >= 3)
    if net.stacked and x.ndim == 2:
        return _forward_cached(net, x[:, None, :])[1][:, 0, :]
    return _forward_cached(net, x)[1]


def net_grads(net: Net, x, upstream) -> GradBundle:
    """Reverse-mode gradients of upstream . f(x) w.r.t. parameters and input.

    Batched inputs (B, d) with upstream (B, out) give parameter grads summed
    over the batch and per-row input grads; an agent stack takes (N, B, d)
    and (N, B, out) and gives an (N, P) parameter gradient.
    """
    x = np.asarray(x, dtype=float)
    upstream = np.asarray(upstream, dtype=float)
    single = x.ndim == 1 and not net.stacked
    if single:
        x, upstream = x[None, :], upstream[None, :]
    y, vjp = net_vjp(net, x)
    bundle = vjp(upstream)
    if single:
        bundle.grad_input = bundle.grad_input[0]
    return bundle


def net_vjp(net: Net, x):
    """net_forward(net, x) on a batch (B, d) (an agent stack: (N, B, d)), and
    a function mapping an upstream of the output's shape to
    net_grads(net, x, upstream) that reuses this forward pass instead of
    repeating it. Its `wrt` argument picks the gradients computed: "both"
    (the default), "theta" (grad_input is None) or "input" (grad_theta is
    None); each field it computes is bitwise that of "both"."""
    x = np.asarray(x, dtype=float)
    if x.ndim != (3 if net.stacked else 2):
        raise ValueError(f"input shape {x.shape} is not a batch for this net")
    _check_input(net, x, batched=True)
    acts, y = _forward_cached(net, x)
    return y, lambda upstream, wrt="both": _backward(
        net, acts, np.asarray(upstream, dtype=float), wrt)


def _backward(net: Net, acts, upstream: np.ndarray, wrt: str = "both") -> GradBundle:
    # Reverse pass over _forward_cached's record of a (B, d) batch (a stack:
    # (N, B, d)), writing each layer's parameter gradient into its view of
    # one flat vector (a stack: one (N, P) block). wrt="theta" skips the
    # first layer's input product, wrt="input" every parameter product; the
    # products that run are the same either way.
    if wrt not in WRT:
        raise ValueError(f"wrt must be one of {WRT}, got {wrt!r}")
    if upstream.shape[-1] != net.out_dim:
        raise ValueError(f"upstream dim {upstream.shape[-1]} != net output dim {net.out_dim}")
    if acts[0].shape[:-1] != upstream.shape[:-1]:
        raise ValueError("batch sizes of x and upstream differ")
    n_layers = len(net.weights)
    grad = gws = gbs = None
    if wrt != "input":
        grad = np.empty(net.theta.shape)
        gws, gbs = layer_views(grad, net.layer_dims)
    dz = upstream
    for i in range(n_layers - 1, -1, -1):
        if i < n_layers - 1:
            dz *= _act_grad_from_output(acts[i + 1], net.activation)  # dz is ours
        if grad is not None:
            np.matmul(np.swapaxes(dz, -1, -2), acts[i], out=gws[i])
            np.sum(dz, axis=-2, out=gbs[i])
        if i > 0 or wrt != "theta":
            dz = np.matmul(dz, net.weights[i])
    return GradBundle(grad, dz if wrt != "theta" else None)


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
    checkpoint keeps them in its manifest) and hands them to load_net. An
    agent stack is saved one row (`stack[i]`) per file."""
    if net.stacked:
        raise ValueError("save_net writes one net; save each agent's row")
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
