# Finite-difference verification suites: network gradients, Hessian-vector
# products, the Stackelberg total derivative through the unrolled attack, and
# the mean-field cloud attack's transport penalty.
from __future__ import annotations

import numpy as np

from .advreg import (METRICS, AttackConfig, _ascent, _init_delta, _joint_grad_dir,
                     reg_value_and_grads, stackelberg_grad)
from .meanfield import cloud_attack, w_distance
from .net import (Net, _forward_cached, hvp, net_forward, net_grads, net_init, net_vjp,
                  vector_to_net)

GRAD_TOL = 1e-4
JOINT_HVP_TOL = 1e-6
KINK_MARGIN = 1e-4


def _rel_err(a: np.ndarray, b: np.ndarray, floor: float = 1e-6) -> float:
    return float(np.linalg.norm(a - b) / max(np.linalg.norm(b), floor))


def _fd_grad(f, x: np.ndarray, h: float) -> np.ndarray:
    g = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


def _preactivations_clear(net: Net, x: np.ndarray) -> bool:
    """Reject relu inputs near a kink; FD breaks on piecewise-linear corners."""
    if net.activation != "relu":
        return True
    z = np.asarray(x, dtype=float)
    for w, b in zip(net.weights[:-1], net.biases[:-1]):
        z = z @ w.T + b
        if np.any(np.abs(z) < KINK_MARGIN):
            return False
        z = np.maximum(z, 0.0)
    return True


def _random_small_net(rng: np.random.Generator, activation: str,
                      max_params: int = 200) -> Net:
    while True:
        d_in = int(rng.integers(2, 7))
        width = int(rng.integers(3, 9))
        d_out = int(rng.integers(1, 5))
        dims = [d_in, width, d_out]
        net = net_init(dims, activation=activation, seed=int(rng.integers(2 ** 31)))
        if net.theta.size <= max_params:
            return net


def check_net_grads(n_trials: int = 100, seed: int = 0) -> dict:
    """grad_theta and grad_input vs central finite differences."""
    rng = np.random.default_rng(seed)
    worst_p, worst_x = 0.0, 0.0
    done = 0
    while done < n_trials:
        net = _random_small_net(rng, activation=str(rng.choice(["relu", "tanh"])))
        x = rng.uniform(-1.0, 1.0, size=(1, net.in_dim))
        if not _preactivations_clear(net, x):
            continue
        u = rng.standard_normal((1, net.out_dim))
        bundle = net_grads(net, x, u)
        theta = net.theta
        h = 1e-5 * (1.0 + float(np.linalg.norm(theta)))

        def f_theta(t):
            return float(u[0] @ net_forward(vector_to_net(net, t), x[0]))

        def f_x(xi):
            return float(u[0] @ net_forward(net, xi))

        worst_p = max(worst_p, _rel_err(bundle.grad_theta,
                                        _fd_grad(f_theta, theta, h)))
        worst_x = max(worst_x, _rel_err(bundle.grad_input[0], _fd_grad(f_x, x[0].copy(), h)))
        done += 1
    passed = worst_p < GRAD_TOL and worst_x < GRAD_TOL
    return {"suite": "net_grads", "trials": n_trials, "seed": seed,
            "max_rel_err_params": worst_p, "max_rel_err_input": worst_x,
            "tolerance": GRAD_TOL, "passed": passed}


def _joint_grad_dir_err(rng: np.random.Generator, trials: int = 3) -> float:
    """Worst relative error of the exact Hessian-vector product that the
    Stackelberg reverse pass runs, _joint_grad_dir, against hvp's central
    difference of reg_value_and_grads' joint (delta, theta) gradient along
    (u, 0), on tanh nets, for each metric."""
    worst = 0.0
    rows = 3
    for metric in METRICS:
        for _ in range(trials):
            net = net_init([4, 6, 3], activation="tanh", seed=int(rng.integers(2 ** 31)),
                           scale=1.5)
            dim = net.in_dim
            obs = rng.uniform(-1.0, 1.0, size=(rows, dim))
            delta = 0.3 * rng.standard_normal((rows, dim))
            u = rng.standard_normal((rows, dim))

            def joint_grad(z):
                m = vector_to_net(net, z[rows * dim:])
                _, gd, gt = reg_value_and_grads(m, obs, z[:rows * dim].reshape(rows, dim),
                                                metric, net_vjp(m, obs))
                return np.concatenate([gd.ravel(), gt])

            fd = hvp(joint_grad, np.concatenate([delta.ravel(), net.theta]),
                     np.concatenate([u.ravel(), np.zeros(net.theta.size)]))
            h_delta, h_theta = _joint_grad_dir(net, _forward_cached(net, obs + delta), u,
                                               metric, net_vjp(net, obs))
            worst = max(worst, _rel_err(np.concatenate([h_delta.ravel(), h_theta]), fd))
    return worst


def check_hvp(seed: int = 0) -> dict:
    """Quadratic exactness, linearity in v, symmetry, a dense FD oracle, and
    the exact joint product of the Stackelberg reverse pass against hvp."""
    rng = np.random.default_rng(seed)
    a_diag = np.array([1.0, 2.0])
    grad_quad = lambda t: a_diag * t
    exact = hvp(grad_quad, np.zeros(2), np.ones(2))
    quad_err = float(np.abs(exact - a_diag).max())

    net = net_init([3, 4, 2], activation="tanh", seed=seed)
    theta = net.theta
    x = rng.uniform(-1.0, 1.0, size=(1, 3))
    target = rng.standard_normal(2)

    def grad_fn(t):
        m = vector_to_net(net, t)
        resid = net_forward(m, x) - target
        return net_grads(m, x, resid).grad_theta

    v = rng.standard_normal(theta.size)
    lin_err = _rel_err(hvp(grad_fn, theta, 10.0 * v), 10.0 * hvp(grad_fn, theta, v))
    u = rng.standard_normal(theta.size)
    hu, hv = hvp(grad_fn, theta, u), hvp(grad_fn, theta, v)
    sym_err = abs(float(v @ hu - u @ hv)) / max(abs(float(u @ hv)), 1e-6)

    h = 1e-5 * (1.0 + float(np.linalg.norm(theta)))
    dense = np.stack([_fd_grad(lambda t, j=j: grad_fn(t)[j], theta, h)
                      for j in range(theta.size)])
    dense_err = _rel_err(hvp(grad_fn, theta, v), dense @ v)
    joint_err = _joint_grad_dir_err(rng)

    passed = (quad_err < 1e-6 and lin_err < 1e-4 and sym_err < 1e-3 and dense_err < 1e-4
              and joint_err < JOINT_HVP_TOL)
    return {"suite": "hvp", "seed": seed, "quadratic_abs_err": quad_err,
            "linearity_rel_err": lin_err, "symmetry_rel_err": sym_err,
            "dense_oracle_rel_err": dense_err, "joint_grad_dir_rel_err": joint_err,
            "passed": passed}


def attack_inclusive_value(template: Net, theta: np.ndarray, obs: np.ndarray,
                           delta0: np.ndarray, cfg: AttackConfig) -> float:
    """R(obs, delta^K(theta); theta) with the attack unrolled from a FIXED
    initial delta, so the map is a pure function of theta."""
    net = vector_to_net(template, theta)
    clean = net_vjp(net, obs)
    delta = _ascent(net, obs, delta0, cfg, clean)[0]
    val, _, _ = reg_value_and_grads(net, obs, delta, cfg.metric, clean, wrt="input")
    return float(np.asarray(val).ravel()[0])


def _projection_margins_ok(net: Net, obs, delta0, cfg: AttackConfig,
                           margin: float = 1e-3) -> bool:
    """Skip samples whose ascent iterates graze the ball boundary; the
    projection is non-differentiable exactly there."""
    for pre in _ascent(net, obs, delta0, cfg, net_vjp(net, obs))[1]:
        if cfg.norm == "l2":
            if abs(float(np.linalg.norm(pre)) - cfg.epsilon) < margin:
                return False
        elif np.any(np.abs(np.abs(pre) - cfg.epsilon) < margin):
            return False
    return True


def check_stackelberg(n_trials: int = 100, seed: int = 0) -> dict:
    """Total derivative through the unrolled attack vs FD of the full map.

    Uses tanh nets: the map is twice differentiable away from projection
    boundaries, which central differences require.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    exact_k0 = None
    done = 0
    while done < n_trials:
        k = 1 + done % 3
        metric = ("sq_l2", "kl")[done % 2]
        cfg = AttackConfig(epsilon=0.5, k_steps=k, metric=metric)
        attack_seed = int(rng.integers(2 ** 31))
        net = _random_small_net(rng, activation="tanh")
        obs = rng.uniform(-1.0, 1.0, size=(1, net.in_dim))
        delta0 = _init_delta(obs.shape, cfg, np.random.default_rng(attack_seed))
        if not _projection_margins_ok(net, obs, delta0, cfg):
            continue

        clean = net_vjp(net, obs)
        analytic = stackelberg_grad(net, obs, cfg, np.random.default_rng(attack_seed),
                                    clean)[0]
        theta = net.theta
        h = 1e-5 * (1.0 + float(np.linalg.norm(theta)))
        fd = _fd_grad(lambda t: attack_inclusive_value(net, t, obs, delta0, cfg), theta, h)
        worst = max(worst, _rel_err(analytic, fd))

        if exact_k0 is None:
            cfg0 = AttackConfig(epsilon=0.5, k_steps=0, metric=metric)
            g0 = stackelberg_grad(net, obs, cfg0, np.random.default_rng(attack_seed),
                                  clean)[0]
            _, _, gt = reg_value_and_grads(net, obs, delta0, metric, clean)
            exact_k0 = bool(np.array_equal(g0, gt))
        done += 1
    passed = worst < GRAD_TOL and bool(exact_k0)
    return {"suite": "stackelberg", "trials": n_trials, "seed": seed,
            "max_rel_err": worst, "k0_exact": exact_k0,
            "tolerance": GRAD_TOL, "passed": passed}


def check_cloud_coupling(n_trials: int = 20, seed: int = 0) -> dict:
    """The cloud attack penalizes the coupling that w_distance measures: on a
    constant critic, whose Q has no gradient, one ascent step from a jittered
    cloud moves each row's agent positions by -eta * lam_w times the central
    difference gradient of w_distance(clean positions, positions,
    "identity_coupling")."""
    rng = np.random.default_rng(seed)
    worst, h = 0.0, 1e-6
    for _ in range(n_trials):
        n_agents, rows = int(rng.integers(1, 6)), int(rng.integers(1, 5))
        pdim = 2 * n_agents
        dim = pdim + int(rng.integers(0, 4))
        critic = Net(layer_dims=(dim, 1), weights=(np.zeros((1, dim)),),
                     biases=(rng.standard_normal(1),), activation="tanh")
        x0 = rng.uniform(-1.0, 1.0, size=(rows, dim))
        eta, lam_w = float(rng.uniform(0.01, 0.1)), float(rng.uniform(0.5, 2.0))
        attack_seed = int(rng.integers(2 ** 31))
        start, end = (cloud_attack(critic, x0, net_vjp(critic, x0), n_agents, steps, eta,
                                   lam_w, 0.3, np.random.default_rng(attack_seed))[:, :pdim]
                      for steps in (0, 1))
        for clean, pos, moved in zip(x0[:, :pdim], start, end):
            grad = _fd_grad(lambda p, c=clean.reshape(-1, 2): w_distance(
                c, p.reshape(-1, 2), "identity_coupling"), pos, h)
            worst = max(worst, _rel_err(moved - pos, -eta * lam_w * grad))
    return {"suite": "cloud_coupling", "trials": n_trials, "seed": seed,
            "max_rel_err": worst, "tolerance": GRAD_TOL, "passed": worst < GRAD_TOL}


def run_gradcheck(seed: int = 0, net_trials: int = 100,
                  stackelberg_trials: int = 100) -> dict:
    g = check_net_grads(net_trials, seed)
    h = check_hvp(seed)
    s = check_stackelberg(stackelberg_trials, seed)
    c = check_cloud_coupling(seed=seed)
    return {"net_grads": g, "hvp": h, "stackelberg": s, "cloud_coupling": c,
            "passed": all(r["passed"] for r in (g, h, s, c))}
