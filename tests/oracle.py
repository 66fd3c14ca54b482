"""Dense reference of the solver's barrier Newton system, the test oracle for
`maxmin._newton_direction`.

The solver assembles the (MK+1)^2 Hessian in place in a workspace it reuses
across Newton systems.  This module builds the same system the obvious way,
from fresh arrays: zeros, then the per-entry diagonal, then += V'V, then
-= P'P, then one ball block per AP in a Python loop.  Float addition
commutes, so each entry receives the same sums and the two must agree bit
for bit.
"""

from __future__ import annotations

import numpy as np


def dense_newton_system(weight: float, sa: np.ndarray, bs: np.ndarray,
                        sig: np.ndarray, s: float, state: tuple
                        ) -> tuple[np.ndarray, np.ndarray]:
    """(H, grad) of the barrier subproblem at the interior point (sig, s).

    `sa` and `bs` are the solver's scaled gains (already divided by
    sqrt(t)), `weight` the barrier weight on the margin, and `state` the
    tuple `maxmin._state(sa, bs, sig, s)` returns.  The Newton step solves
    H @ delta = -grad.
    """
    m_ap, k_ue = sig.shape
    n = m_ap * k_ue
    r, ball, q, g, margins = state

    u = 1.0 / margins
    b_inv = 1.0 / ball
    w = bs @ (u / q)
    row_scale = w + 2.0 * b_inv

    grad_sig = -sa * u[None, :] + row_scale[:, None] * sig
    grad_s = -weight + float(u.sum())
    grad = np.concatenate([grad_sig.ravel(), [grad_s]])

    p_t = bs.T[:, :, None] * sig[None, :, :]
    e_t = np.zeros((k_ue, m_ap, k_ue))
    e_t[np.arange(k_ue), :, np.arange(k_ue)] = sa.T
    v = u[:, None, None] * (e_t - (1.0 / q)[:, None, None] * p_t)
    v_full = np.concatenate([v.reshape(k_ue, n), -u[:, None]], axis=1)
    p_coef = np.sqrt(u / (q * q * q))
    p_full = (p_coef[:, None, None] * p_t).reshape(k_ue, n)

    h = np.zeros((n + 1, n + 1))
    h[np.arange(n), np.arange(n)] = row_scale.repeat(k_ue)
    h += v_full.T @ v_full
    h[:n, :n] -= p_full.T @ p_full
    blocks = (4.0 * b_inv * b_inv)[:, None, None] * sig[:, :, None] * sig[:, None, :]
    for m in range(m_ap):
        rows = slice(m * k_ue, (m + 1) * k_ue)
        h[rows, rows] += blocks[m]
    return h, grad
