# Transport distances between equal-weight particle clouds, the metric of the
# mean-field cloud attack (the attack itself is train._cloud_regularizer_grad).
from __future__ import annotations

import numpy as np
from scipy.optimize import linear_sum_assignment

W_MODES = ("identity_coupling", "exact_matching", "closed_form_1d")
EXACT_MAX = 16


def _pair_costs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    diff = a[:, None, :] - b[None, :, :]
    return np.linalg.norm(diff, axis=-1)


def w_distance(cloud_a, cloud_b, mode: str) -> float:
    """Transport-style distances between equal-weight particle clouds.

    identity_coupling: mean ||a_i - b_i||, an upper bound on W1 that stays
    differentiable in b. exact_matching: optimal-matching mean cost (true W1).
    closed_form_1d: sorted matching for 1-D clouds.
    """
    a = np.atleast_2d(np.asarray(cloud_a, dtype=float))
    b = np.atleast_2d(np.asarray(cloud_b, dtype=float))
    if mode not in W_MODES:
        raise ValueError(f"mode must be one of {W_MODES}")
    if mode == "closed_form_1d":
        if a.shape[1] != 1 or b.shape[1] != 1:
            raise ValueError("closed_form_1d needs 1-D clouds")
        if a.shape[0] != b.shape[0]:
            raise ValueError("closed_form_1d needs equal-size clouds")
        return float(np.mean(np.abs(np.sort(a[:, 0]) - np.sort(b[:, 0]))))
    if a.shape != b.shape:
        raise ValueError(f"equal-size clouds required, got {a.shape} vs {b.shape}")
    if mode == "identity_coupling":
        return float(np.mean(np.linalg.norm(a - b, axis=-1)))
    n = a.shape[0]
    if n > EXACT_MAX:
        raise ValueError(f"exact_matching limited to n <= {EXACT_MAX}")
    costs = _pair_costs(a, b)
    rows, cols = linear_sum_assignment(costs)
    return float(costs[rows, cols].sum() / n)
