# Observation-space adversarial regularizer: divergence values and gradients,
# projected gradient ascent on the perturbation, and the leader-follower
# gradient through the unrolled attack, with exact Hessian-vector products.
# Each takes one net's rows or an agent stack's (N, B, d) block. The metric
# fixes the policy head: kl compares stochastic policies' softmax rows,
# sq_l2 deterministic policies' raw outputs.
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .net import Net, _act_grad_from_output, _backward, _forward_cached, layer_views

KL_FLOOR = 1e-12

NORMS = ("l2", "linf")
METRICS = ("kl", "sq_l2")


# The attack's settings: train builds them from a resolved config's ernie
# leaves, each checked by its rule in config.RULES.
@dataclass(frozen=True)
class AttackConfig:
    epsilon: float
    k_steps: int = 2
    eta: float | None = None  # default 2.5*eps/K
    norm: str = "l2"
    metric: str = "sq_l2"

    @property
    def step_size(self) -> float:
        if self.eta is not None:
            return self.eta
        return 2.5 * self.epsilon / max(self.k_steps, 1)


def softmax(z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    m = z.max(axis=-1, keepdims=True)
    e = np.exp(z - m)
    return e / e.sum(axis=-1, keepdims=True)


def _softmax_vjp(y: np.ndarray, u: np.ndarray) -> np.ndarray:
    # y = softmax(z); returns J^T u.
    dot = (u * y).sum(axis=-1, keepdims=True)
    return y * (u - dot)


def _divergence_grads(a: np.ndarray, b: np.ndarray, metric: str):
    """Row-wise divergence values and gradients; a, b are (B, m)."""
    if metric == "sq_l2":
        d = a - b
        vals = np.sum(d * d, axis=-1)
        return vals, 2.0 * d, -2.0 * d
    bf = np.maximum(b, KL_FLOOR)
    af = np.maximum(a, KL_FLOOR)
    log_ratio = np.log(af) - np.log(bf)
    vals = np.sum(np.where(a > 0, a * log_ratio, 0.0), axis=-1)
    da = log_ratio + 1.0
    db = np.where(b > KL_FLOOR, -a / bf, 0.0)
    return vals, da, db


def reg_value_and_grads(net: Net, obs, delta, metric: str, clean, wrt: str = "both"):
    """Per-row regularizer value D(pi(o+delta), pi(o)) of (B, d) rows and the
    gradients wrt picks, as net_vjp's closure takes it (the other is None):
    w.r.t. delta per row, and the flat parameter gradient summed over rows.
    An agent stack takes (N, B, d) rows, giving (N, B) values and an (N, P)
    gradient. clean is the clean pass net_vjp(net, obs)."""
    if np.shape(obs) != np.shape(delta):
        raise ValueError(f"obs shape {np.shape(obs)} != delta shape {np.shape(delta)}")
    return _reg_at(net, _forward_cached(net, obs + delta), clean, metric, wrt)


def _reg_at(net: Net, perturbed, clean, metric: str, wrt: str):
    # reg_value_and_grads from the perturbed pass _forward_cached(net, o + delta)
    (acts, ya), (yb, vjp_b) = perturbed, clean
    softmax_head = metric == "kl"
    if softmax_head:
        ya, yb = softmax(ya), softmax(yb)
    vals, d_ya, d_yb = _divergence_grads(ya, yb, metric)
    ga = _backward(net, acts, _softmax_vjp(ya, d_ya) if softmax_head else d_ya, wrt)
    if wrt == "input":
        return vals, ga.grad_input, None
    up_b = _softmax_vjp(yb, d_yb) if softmax_head else d_yb
    return vals, ga.grad_input, ga.grad_theta + vjp_b(up_b, wrt="theta").grad_theta


def project(delta: np.ndarray, epsilon: float, norm: str) -> np.ndarray:
    """Row-wise (last axis) exact projection onto the epsilon-ball of the norm,
    epsilon > 0: the ascent takes no step at epsilon = 0."""
    if norm == "linf":
        return np.clip(delta, -epsilon, epsilon)
    norms = np.linalg.norm(delta, axis=-1, keepdims=True)
    scale = np.where(norms > epsilon, epsilon / np.maximum(norms, 1e-300), 1.0)
    return delta * scale


def _project_vjp(pre: np.ndarray, epsilon: float, norm: str, u: np.ndarray) -> np.ndarray:
    """Row-wise transposed Jacobian of project() at the pre-projection rows
    `pre`, (..., d), applied to u of the same shape; epsilon > 0."""
    if norm == "linf":
        return np.where(np.abs(pre) <= epsilon, u, 0.0)
    n = np.linalg.norm(pre, axis=-1, keepdims=True)
    inside = n <= epsilon
    n = np.where(inside, 1.0, n)
    unit = pre / n
    radial = unit * np.sum(unit * u, axis=-1, keepdims=True)
    return np.where(inside, u, (epsilon / n) * (u - radial))


def sample_ball(shape, radius: float, norm: str, rng: np.random.Generator) -> np.ndarray:
    """One point drawn uniformly from the radius-ball of the norm for every
    row of an array of `shape`, (..., d); an int d is a single point. A
    block draws what one call per row draws in C order, bit for bit.

    The l2 point is the first d coordinates of d + 2 standard normals over
    their norm (Voelker, Gosmann & Stewart 2017): one normal draw for the
    whole block, with no radius draw. A zero draw gives a zero row."""
    if norm == "linf":
        return rng.uniform(-radius, radius, size=shape)
    shape = (shape,) if np.ndim(shape) == 0 else tuple(shape)
    d = shape[-1]
    g = rng.standard_normal(shape[:-1] + (d + 2,))
    norms = np.sqrt(np.vecdot(g, g))[..., None]
    out = np.divide(g[..., :d], norms, out=np.zeros(shape), where=norms > 0.0)
    out *= radius
    return out


def _init_delta(shape, cfg: AttackConfig, rng: np.random.Generator) -> np.ndarray:
    """The ascent's starting point for rows of `shape`: a uniform draw from
    the 0.1*eps ball, which lies inside the eps ball; zero at eps = 0, with
    no draw. At delta = 0 both metrics have a vanishing gradient, so a zero
    start would make gradient ascent a no-op."""
    if cfg.epsilon == 0.0:
        return np.zeros(shape)
    return sample_ball(shape, 0.1 * cfg.epsilon, cfg.norm, rng)


def _ascent(net: Net, obs: np.ndarray, delta: np.ndarray, cfg: AttackConfig, clean):
    """The K projected ascent steps delta <- project(delta + eta * dR/ddelta)
    from delta, on obs's rows, all against the clean pass net_vjp(net, obs).
    Returns the last iterate delta^K, the K points before projection and the
    K forward passes _forward_cached(net, obs + delta^k), k < K; at eps = 0
    there is no step."""
    pres, passes = [], []
    if cfg.epsilon == 0.0 or cfg.k_steps == 0:
        return delta, pres, passes
    eta = cfg.step_size
    for _ in range(cfg.k_steps):
        passes.append(_forward_cached(net, obs + delta))
        gd = _reg_at(net, passes[-1], clean, cfg.metric, "input")[1]
        if not np.all(np.isfinite(gd)):
            raise FloatingPointError("non-finite attack gradient")
        pres.append(delta + eta * gd)
        delta = project(pres[-1], cfg.epsilon, cfg.norm)
    return delta, pres, passes


def pgd_attack(net: Net, obs, cfg: AttackConfig, rng: np.random.Generator, clean):
    """K steps of gradient ascent on the divergence, projected after every
    step, from a starting point drawn from rng.

    obs is a batch (B, d), or for an agent stack one batch per agent
    (N, B, d); the attack is row-independent, and a stack's result is
    bitwise that of one call per agent in agent order with a shared rng.
    clean is the clean pass net_vjp(net, obs) that every step shares, as
    reg_value_and_grads takes it. Returns delta with the shape of obs.
    """
    return _ascent(net, obs, _init_delta(np.shape(obs), cfg, rng), cfg, clean)[0]


def _act_second(a: np.ndarray, kind: str) -> np.ndarray:
    # Second derivative of the hidden activation from its output a = _act(z):
    # tanh's is -2a(1 - a^2); relu's is 0 away from the kink.
    if kind == "relu":
        return np.zeros_like(a)
    return -2.0 * a * (1.0 - a * a)


def _joint_grad_dir(net: Net, perturbed, u: np.ndarray, metric: str, clean):
    """Exact derivative of reg_value_and_grads' (grad_delta, grad_theta) along
    (u, 0): H_dd u per row and H_td u summed over rows, for (B, d) rows, or
    for an agent stack (N, B, d) rows and an (N, P) H_td u.

    Forward-over-reverse (Pearlmutter's R-operator) over the ascent's forward
    pass of o + delta, `perturbed` (_forward_cached's record): the tangent u
    carried through the net, the metric's head and the divergence gradient,
    and a reverse pass carrying the tangent of the backpropagated signal. The
    clean branch o has no input tangent, so its parameter-gradient tangent is
    one reverse pass with the tangent of its upstream, over the clean pass
    net_vjp(net, obs).
    """
    n_layers = len(net.weights)
    (acts, pa), (pb, vjp_b) = perturbed, clean
    masks = [_act_grad_from_output(a, net.activation) for a in acts[1:]]
    a_dot = u
    z_dots, act_dots = [], [u]
    for i, w in enumerate(net.weights):
        a_dot = np.matmul(a_dot, np.swapaxes(w, -1, -2))
        if i < n_layers - 1:
            z_dots.append(a_dot)
            a_dot = masks[i] * a_dot
            act_dots.append(a_dot)

    softmax_head = metric == "kl"
    pa_dot = a_dot
    if softmax_head:
        pa, pb = softmax(pa), softmax(pb)
        pa_dot = pa * (pa_dot - np.sum(pa * pa_dot, axis=-1, keepdims=True))
    _, da, db = _divergence_grads(pa, pb, metric)
    if metric == "sq_l2":
        da_dot, db_dot = 2.0 * pa_dot, -2.0 * pa_dot
    else:
        da_dot = np.where(pa > KL_FLOOR, pa_dot / np.maximum(pa, KL_FLOOR), 0.0)
        db_dot = np.where(pb > KL_FLOOR, -pa_dot / np.maximum(pb, KL_FLOOR), 0.0)
    if softmax_head:
        # up = pa * (da - s) with s = <da, pa>, differentiated by the product rule
        s = np.sum(da * pa, axis=-1, keepdims=True)
        s_dot = np.sum(da_dot * pa + da * pa_dot, axis=-1, keepdims=True)
        up, up_dot = pa * (da - s), pa_dot * (da - s) + pa * (da_dot - s_dot)
        up_b_dot = _softmax_vjp(pb, db_dot)
    else:
        up, up_dot, up_b_dot = da, da_dot, db_dot

    # The clean branch's tangent first, while little is held; the perturbed
    # branch's layers are added to it (x + y is y + x bit for bit).
    h_theta = vjp_b(up_b_dot, wrt="theta").grad_theta
    hws, hbs = layer_views(h_theta, net.layer_dims)
    dz, dz_dot = up, up_dot
    for i in range(n_layers - 1, -1, -1):
        if i < n_layers - 1:  # in place on this loop's own products, same roundings
            dz_dot *= masks[i]
            dz_dot += dz * _act_second(acts[i + 1], net.activation) * z_dots[i]
            dz *= masks[i]
        np.add(hws[i], np.matmul(np.swapaxes(dz_dot, -1, -2), acts[i])
               + np.matmul(np.swapaxes(dz, -1, -2), act_dots[i]), out=hws[i])
        np.add(hbs[i], np.sum(dz_dot, axis=-2), out=hbs[i])
        dz_dot = np.matmul(dz_dot, net.weights[i])
        if i > 0:  # below the first layer only dz_dot, H_dd u, is read
            dz = np.matmul(dz, net.weights[i])
    return dz_dot, h_theta


def stackelberg_grad(net: Net, obs, cfg: AttackConfig, rng: np.random.Generator, clean):
    """Total derivative of sum_rows R(o, delta^K(theta); theta) w.r.t. the
    parameters, for a block of rows (B, d), or for an agent stack one block
    per agent (N, B, d), giving an (N, P) gradient that is bitwise one call
    per agent in agent order with a shared rng.

    The forward pass is pgd_attack's: the same start drawn from rng and the
    same ascent, so from equal rng states delta^K is pgd_attack's output bit
    for bit. Three passes, all against the clean pass net_vjp(net, obs),
    which the caller hands in as `clean`, as to pgd_attack:

    - forward: the K projected ascent steps on all rows, keeping the
      pre-projection points and the net's forward pass at each delta^k;
    - start: reg_value_and_grads at delta^K gives u = dR/ddelta^K per row and
      the partial parameter gradient;
    - reverse (Maclaurin et al. 2015), step k = K-1..0: u <- the projection's
      transposed Jacobian applied to u, row-wise; then one exact
      forward-over-reverse pass (Pearlmutter 1994) at delta^k gives
      H_dd u and H_td u, and grad += eta H_td u, u += eta H_dd u. An agent
      whose u is all zero leaves the reverse pass: its rows are masked and
      its H_td u is not added, since adding a zero turns -0.0 into +0.0.

    Every product is exact, so the only error is floating point. K=0
    reduces to the plain gradient at the initialization. Returns (gradient,
    delta^K, per-row regularizer values at delta^K).
    """
    final, pres, fwd = _ascent(net, obs, _init_delta(np.shape(obs), cfg, rng), cfg, clean)
    eta = cfg.step_size

    vals, u, theta_acc = reg_value_and_grads(net, obs, final, cfg.metric, clean)
    live = np.ones(np.shape(obs)[:-2], dtype=bool)  # per agent; one flag for a net
    for k in range(len(pres) - 1, -1, -1):
        u = _project_vjp(pres[k], cfg.epsilon, cfg.norm, u)
        live = live & np.any(u, axis=(-2, -1))
        if not live.any():
            break
        if not live.all():
            u = np.where(live[..., None, None], u, 0.0)
        h_delta, h_theta = _joint_grad_dir(net, fwd[k], u, cfg.metric, clean)
        step = theta_acc + eta * h_theta
        theta_acc = step if live.all() else np.where(live[..., None], step, theta_acc)
        u = u + eta * h_delta
    if not np.all(np.isfinite(theta_acc)):
        raise FloatingPointError("non-finite leader gradient")
    return theta_acc, final, vals
