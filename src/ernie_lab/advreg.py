# Observation-space adversarial regularizer: divergence values and gradients,
# projected gradient ascent on the perturbation, and the leader-follower
# gradient through the unrolled attack, with exact Hessian-vector products.
# Each takes one net's rows or an agent stack's (N, B, d) block.
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .net import Net, _act, _act_grad, layer_views, net_forward, net_vjp

KL_FLOOR = 1e-12

NORMS = ("l2", "linf")
METRICS = ("kl", "sq_l2")
INITS = ("zero", "random_ball")


@dataclass(frozen=True)
class AttackConfig:
    epsilon: float
    k_steps: int = 2
    eta: float | None = None  # default 2.5*eps/K
    norm: str = "l2"
    metric: str = "sq_l2"
    init: str = "random_ball"
    seed: int = 0

    def __post_init__(self):
        if self.epsilon < 0:
            raise ValueError(f"epsilon must be >= 0, got {self.epsilon}")
        if self.k_steps < 0:
            raise ValueError(f"k_steps must be >= 0, got {self.k_steps}")
        if self.norm not in NORMS:
            raise ValueError(f"norm must be one of {NORMS}")
        if self.metric not in METRICS:
            raise ValueError(f"metric must be one of {METRICS}")
        if self.init not in INITS:
            raise ValueError(f"init must be one of {INITS}")
        # epsilon=0 short-circuits the attack, so a zero derived step is fine
        if self.k_steps > 0 and self.epsilon > 0 and self.step_size <= 0:
            raise ValueError("eta must be > 0 when k_steps > 0")
        if self.eta is not None and self.eta <= 0:
            raise ValueError(f"eta must be > 0, got {self.eta}")

    @property
    def step_size(self) -> float:
        if self.eta is not None:
            return self.eta
        return 2.5 * self.epsilon / max(self.k_steps, 1)


def default_head(metric: str) -> str:
    # Stochastic policies emit simplex rows through a softmax head; deterministic
    # policies are compared on raw outputs.
    return "softmax" if metric == "kl" else "identity"


def softmax(z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    m = z.max(axis=-1, keepdims=True)
    e = np.exp(z - m)
    return e / e.sum(axis=-1, keepdims=True)


def _softmax_vjp(y: np.ndarray, u: np.ndarray) -> np.ndarray:
    # y = softmax(z); returns J^T u.
    dot = (u * y).sum(axis=-1, keepdims=True)
    return y * (u - dot)


def policy_forward(net: Net, x, head: str) -> np.ndarray:
    y = net_forward(net, x)
    return softmax(y) if head == "softmax" else y


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


def _as_batch(x):
    x = np.asarray(x, dtype=float)
    return (x[None, :], True) if x.ndim == 1 else (x, False)


def reg_value_and_grads(net: Net, obs, delta, metric: str, head: str | None = None,
                        need_theta: bool = True):
    """Per-row regularizer value D(pi(o+delta), pi(o)), gradient w.r.t. delta,
    and (optionally) flat parameter gradient summed over rows; an agent stack
    takes (N, B, d) rows, giving (N, B) values and an (N, P) gradient."""
    head = default_head(metric) if head is None else head
    ob, squeezed = _as_batch(obs)
    db, _ = _as_batch(delta)
    if ob.shape != db.shape:
        raise ValueError(f"obs shape {ob.shape} != delta shape {db.shape}")
    ya, vjp_a = net_vjp(net, ob + db)
    yb, vjp_b = net_vjp(net, ob)
    if head == "softmax":
        ya, yb = softmax(ya), softmax(yb)
    vals, d_ya, d_yb = _divergence_grads(ya, yb, metric)
    up_a = _softmax_vjp(ya, d_ya) if head == "softmax" else d_ya
    up_b = _softmax_vjp(yb, d_yb) if head == "softmax" else d_yb
    ga = vjp_a(up_a, wrt="both" if need_theta else "input")
    grad_delta = ga.grad_input
    grad_theta = None
    if need_theta:
        grad_theta = ga.grad_theta + vjp_b(up_b, wrt="theta").grad_theta
    if squeezed:
        return float(vals[0]), grad_delta[0], grad_theta
    return vals, grad_delta, grad_theta


def project(delta: np.ndarray, epsilon: float, norm: str) -> np.ndarray:
    """Row-wise (last axis) exact projection onto the epsilon-ball of the norm."""
    if epsilon == 0.0:
        return np.zeros_like(delta)
    if norm == "linf":
        return np.clip(delta, -epsilon, epsilon)
    single = delta.ndim == 1
    d = delta[None, :] if single else delta
    norms = np.linalg.norm(d, axis=-1, keepdims=True)
    scale = np.where(norms > epsilon, epsilon / np.maximum(norms, 1e-300), 1.0)
    out = d * scale
    return out[0] if single else out


def _project_vjp(pre: np.ndarray, epsilon: float, norm: str, u: np.ndarray) -> np.ndarray:
    """Row-wise transposed Jacobian of project() at the pre-projection rows
    `pre`, (..., d), applied to u of the same shape."""
    if epsilon == 0.0:
        return np.zeros_like(u)
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
    row of an array of `shape`, (..., d); an int d is a single point."""
    if norm == "linf":
        return rng.uniform(-radius, radius, size=shape)
    out = np.empty(shape)
    rows = out.reshape(-1, out.shape[-1])
    norms, scales = np.ones((len(rows), 1)), np.ones((len(rows), 1))
    # Per row in C order: a normal direction, then the radius draw, which a
    # zero direction skips. The norm and the radius are scalar math, as the
    # per-point formula is: sqrt(x.dot(x)) is np.linalg.norm's 1-D formula,
    # and an array pow differs from the scalar one in the last bit.
    for row, norm_j, scale_j in zip(rows, norms, scales):
        rng.standard_normal(out=row)
        d_norm = math.sqrt(row.dot(row))
        if d_norm == 0.0:
            row[...] = 0.0
            continue
        norm_j[0] = d_norm
        scale_j[0] = radius * rng.random() ** (1.0 / rows.shape[1])
    rows /= norms
    rows *= scales
    return out


def _init_delta(shape, cfg: AttackConfig, rng: np.random.Generator) -> np.ndarray:
    # Radius 0.1*eps: at delta=0 both metrics have a vanishing gradient, so a
    # zero init would make gradient ascent a no-op.
    if cfg.init == "zero" or cfg.epsilon == 0.0:
        return np.zeros(shape)
    return sample_ball(shape, 0.1 * cfg.epsilon, cfg.norm, rng)


def pgd_attack(net: Net, obs, cfg: AttackConfig, head: str | None = None,
               rng: np.random.Generator | None = None) -> np.ndarray:
    """K steps of gradient ascent on the divergence, projected after every step.

    obs may be a single observation (d,) or a batch (B, d), or for an agent
    stack one batch per agent (N, B, d); the attack is row-independent, and
    a stack's result is bitwise that of one call per agent in agent order
    with a shared rng. Returns delta with the shape of obs.
    """
    head = default_head(metric=cfg.metric) if head is None else head
    ob, squeezed = _as_batch(obs)
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    db = project(_init_delta(ob.shape, cfg, rng), cfg.epsilon, cfg.norm)
    if cfg.epsilon == 0.0:
        return db[0] if squeezed else db
    eta = cfg.step_size
    for _ in range(cfg.k_steps):
        _, gd, _ = reg_value_and_grads(net, ob, db, cfg.metric, head, need_theta=False)
        if not np.all(np.isfinite(gd)):
            raise FloatingPointError("non-finite attack gradient")
        db = project(db + eta * gd, cfg.epsilon, cfg.norm)
    return db[0] if squeezed else db


def _act_second(z: np.ndarray, kind: str) -> np.ndarray:
    # Second derivative of the hidden activation; relu's is 0 away from the kink.
    if kind == "relu":
        return np.zeros_like(z)
    t = np.tanh(z)
    return -2.0 * t * (1.0 - t * t)


def _joint_grad_dir(net: Net, obs: np.ndarray, delta: np.ndarray, u: np.ndarray,
                    metric: str, head: str):
    """Exact derivative of reg_value_and_grads' (grad_delta, grad_theta) along
    (u, 0): H_dd u per row and H_td u summed over rows, for (B, d) rows, or
    for an agent stack (N, B, d) rows and an (N, P) H_td u.

    Forward-over-reverse (Pearlmutter's R-operator): the forward pass of the
    perturbed branch o + delta carries the tangent u through the net, the
    head and the divergence gradient; the reverse pass carries the tangent of
    the backpropagated signal. The clean branch o has no input tangent, so
    its parameter-gradient tangent is one reverse pass with the tangent of
    its upstream.
    """
    n_layers = len(net.weights)
    a, a_dot = obs + delta, u
    zs, z_dots, acts, act_dots = [], [], [a], [a_dot]
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        wt = np.swapaxes(w, -1, -2)
        z, z_dot = np.matmul(a, wt) + b[..., None, :], np.matmul(a_dot, wt)
        zs.append(z)
        z_dots.append(z_dot)
        if i == n_layers - 1:
            a, a_dot = z, z_dot
        else:
            a, a_dot = _act(z, net.activation), _act_grad(z, net.activation) * z_dot
        acts.append(a)
        act_dots.append(a_dot)

    pb, vjp_b = net_vjp(net, obs)
    pa, pa_dot = a, a_dot
    if head == "softmax":
        pa, pb = softmax(pa), softmax(pb)
        pa_dot = pa * (pa_dot - np.sum(pa * pa_dot, axis=-1, keepdims=True))
    _, da, db = _divergence_grads(pa, pb, metric)
    if metric == "sq_l2":
        da_dot, db_dot = 2.0 * pa_dot, -2.0 * pa_dot
    else:
        da_dot = np.where(pa > KL_FLOOR, pa_dot / np.maximum(pa, KL_FLOOR), 0.0)
        db_dot = np.where(pb > KL_FLOOR, -pa_dot / np.maximum(pb, KL_FLOOR), 0.0)
    if head == "softmax":
        # up = pa * (da - s) with s = <da, pa>, differentiated by the product rule
        s = np.sum(da * pa, axis=-1, keepdims=True)
        s_dot = np.sum(da_dot * pa + da * pa_dot, axis=-1, keepdims=True)
        up, up_dot = pa * (da - s), pa_dot * (da - s) + pa * (da_dot - s_dot)
        up_b_dot = _softmax_vjp(pb, db_dot)
    else:
        up, up_dot, up_b_dot = da, da_dot, db_dot

    h_theta = np.empty(net.theta.shape)
    hws, hbs = layer_views(h_theta, net.layer_dims)
    dz, dz_dot = up, up_dot
    for i in range(n_layers - 1, -1, -1):
        if i < n_layers - 1:
            g1 = _act_grad(zs[i], net.activation)
            dz_dot = dz_dot * g1 + dz * _act_second(zs[i], net.activation) * z_dots[i]
            dz = dz * g1
        hws[i][...] = (np.matmul(np.swapaxes(dz_dot, -1, -2), acts[i])
                       + np.matmul(np.swapaxes(dz, -1, -2), act_dots[i]))
        np.sum(dz_dot, axis=-2, out=hbs[i])
        dz, dz_dot = np.matmul(dz, net.weights[i]), np.matmul(dz_dot, net.weights[i])
    h_theta += vjp_b(up_b_dot, wrt="theta").grad_theta
    return dz_dot, h_theta


def stackelberg_grad(net: Net, obs, cfg: AttackConfig, head: str | None = None,
                     rng: np.random.Generator | None = None, return_attack: bool = False):
    """Total derivative of sum_rows R(o, delta^K(theta); theta) w.r.t. the
    parameters, for one observation (d,) or a block of rows (B, d), or for
    an agent stack one block per agent (N, B, d), giving an (N, P) gradient
    that is bitwise one call per agent in agent order with a shared rng.

    The initial points come from rng exactly as pgd_attack draws them, and
    the forward pass repeats pgd_attack's steps, so from equal rng states
    delta^K is pgd_attack's output bit for bit. Three passes:

    - forward: the K projected ascent steps on all rows, recording delta^k
      and the pre-projection points;
    - start: reg_value_and_grads at delta^K gives u = dR/ddelta^K per row and
      the partial parameter gradient;
    - reverse (Maclaurin et al. 2015), step k = K-1..0: u <- the projection's
      transposed Jacobian applied to u, row-wise; then one exact
      forward-over-reverse pass (Pearlmutter 1994) at delta^k gives
      H_dd u and H_td u, and grad += eta H_td u, u += eta H_dd u. An agent
      whose u is all zero leaves the reverse pass: its rows are masked and
      its H_td u is not added, since adding a zero turns -0.0 into +0.0.

    Every product is exact, so the only error is floating point. K=0
    reduces to the plain gradient at the initialization. With return_attack
    the result is (gradient, delta^K, per-row regularizer values at
    delta^K), shaped like obs.
    """
    head = default_head(cfg.metric) if head is None else head
    ob, squeezed = _as_batch(obs)
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    db = project(_init_delta(ob.shape, cfg, rng), cfg.epsilon, cfg.norm)
    eta = cfg.step_size

    deltas, pres = [db], []
    if cfg.epsilon > 0.0:
        for _ in range(cfg.k_steps):
            _, gd, _ = reg_value_and_grads(net, ob, deltas[-1], cfg.metric, head, need_theta=False)
            if not np.all(np.isfinite(gd)):
                raise FloatingPointError("non-finite attack gradient")
            pre = deltas[-1] + eta * gd
            pres.append(pre)
            deltas.append(project(pre, cfg.epsilon, cfg.norm))
    final = deltas[-1]

    vals, u, theta_acc = reg_value_and_grads(net, ob, final, cfg.metric, head)
    live = np.ones(ob.shape[:-2], dtype=bool)  # per agent; one flag for a net
    for k in range(len(pres) - 1, -1, -1):
        u = _project_vjp(pres[k], cfg.epsilon, cfg.norm, u)
        live = live & np.any(u, axis=(-2, -1))
        if not live.any():
            break
        if not live.all():
            u = np.where(live[..., None, None], u, 0.0)
        h_delta, h_theta = _joint_grad_dir(net, ob, deltas[k], u, cfg.metric, head)
        step = theta_acc + eta * h_theta
        theta_acc = step if live.all() else np.where(live[..., None], step, theta_acc)
        u = u + eta * h_delta
    if not np.all(np.isfinite(theta_acc)):
        raise FloatingPointError("non-finite leader gradient")
    if not return_attack:
        return theta_acc
    if squeezed:
        return theta_acc, final[0], float(vals[0])
    return theta_acc, final, vals


def regularized_grad(base_grad: np.ndarray, reg_grads, lam: float) -> np.ndarray:
    """base + lambda * mean of sampled regularizer gradients; lambda=0 is bitwise base."""
    if lam == 0.0:
        return base_grad
    reg_grads = [np.asarray(g, dtype=float) for g in reg_grads]
    for g in reg_grads:
        if g.shape != base_grad.shape:
            raise ValueError("regularizer gradient shape mismatch")
    return base_grad + lam * np.mean(reg_grads, axis=0)
