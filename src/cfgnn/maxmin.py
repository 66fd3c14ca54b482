"""Optimal max-min downlink power control via conic feasibility bisection.

The problem is to choose per-AP power fractions eta (eta >= 0, row sums at
most 1) maximising the worst-user SINR.  In the square-root variables
sigma = sqrt(eta), the constraint SINR_k >= t becomes a second-order cone:

    sum_m sqrt(alpha'[m,k]) * sigma[m,k]
        >= sqrt(t) * || (1, {sqrt(beta'[m,k]) * sigma[m,j]}_{m,j}) ||_2

with alpha' = rho_d * alpha and beta' = rho_d * beta (alpha and rho_d from
sinr.link), and each per-AP budget is the ball ||sigma[m, :]|| <= 1.
Feasibility of a target t is therefore a convex question, and the optimum
is found by bisection on t.

Each feasibility test solves a margin maximisation

    max_s  s   s.t.  g_k(sigma) >= s  for all k,   ||sigma[m, :]||^2 <= 1

where g_k is the cone slack, with a log-barrier Newton method.  A positive
margin is a rigorous feasibility witness (the recovered eta = sigma**2 is
re-checked against the exact SINR expression before it is accepted); a
negative margin plus the barrier duality gap certifies infeasibility.
Maximising the margin rather than merely finding any interior point makes
the final allocation equalise the user SINRs, which is what the true
max-min optimum does.

The test suite validates the solver end to end against an independent
grid-search oracle for small instances, which lives in `tests/oracle.py`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .flops import FlopCounter
from .sinr import compute_sinr, link

_LOG_BARRIER_MU = 30.0
_NEWTON_MAX_STEPS = 60
_NEWTON_DEC2_TOL = 2e-9
# Outer bisection.  A probe is feasible when its exact worst-user SINR is
# within _FEAS_TOL (relative) of the target; bisection stops once the bracket
# is _REL_TOL wide and the per-user SINR spread of the incumbent is below
# _SPREAD_REL of its worst SINR (the max-min optimum equalises SINRs, so the
# surrogate's training target should too), or after _MAX_BISECTION steps.
# _T_FLOOR is the first lower bracket tried; weaker channels start from
# half the equal-power worst SINR instead.
_FEAS_TOL = 1e-6
_REL_TOL = 1e-4
_SPREAD_REL = 5e-4
_MAX_BISECTION = 60
_T_FLOOR = 1e-6


@dataclass
class MaxMinSolution:
    t_star: float          # exact worst-user SINR of the returned allocation
    eta: np.ndarray        # (M, K) power fractions
    sinr: np.ndarray       # (K,) per-user SINRs at eta
    iterations: int        # bisection steps performed
    converged: bool        # bracket and spread targets met within _MAX_BISECTION


class SolverError(RuntimeError):
    """Raised when no allocation gives every user a positive SINR."""


def _state(sa: np.ndarray, bs: np.ndarray, sig: np.ndarray, s: float) -> tuple:
    """Row norms, cone slacks and barrier residuals at (sigma, s), with the
    gains already divided by sqrt(t)."""
    r = np.einsum("mk,mk->m", sig, sig)
    ball = 1.0 - r
    q2 = 1.0 + bs.T @ r
    q = np.sqrt(q2)
    n_lin = np.einsum("mk,mk->k", sa, sig)
    g = n_lin - q
    margins = g - s
    return r, ball, q, g, margins


def _phi(weight: float, s: float, margins: np.ndarray, ball: np.ndarray) -> float:
    if np.any(margins <= 0.0) or np.any(ball <= 0.0):
        return math.inf
    return -weight * s - float(np.log(margins).sum()) - float(np.log(ball).sum())


def _count_state(counter: FlopCounter, m: int, k: int) -> None:
    counter.dot(k, m)            # row norms
    counter.matmul(k, m, 1)      # bs.T @ r
    counter.add(k)
    counter.mul(k)               # sqrt
    counter.dot(m, k)            # n_lin
    counter.add(3 * k + m)       # g, margins, ball


def _newton_direction(weight: float, sa: np.ndarray, bs: np.ndarray,
                      sig: np.ndarray, s: float, state: tuple,
                      counter: FlopCounter | None, work: tuple[np.ndarray, np.ndarray]
                      ) -> tuple[np.ndarray, float, np.ndarray, float]:
    """One Newton system for the barrier subproblem.  Returns
    (delta_sigma, delta_s, grad_sigma, grad_s dotted into delta).

    The (n+1)^2 Hessian is assembled in place in work = (h, pp), buffers of
    shape (n+1, n+1) and (n, n) that _margin_solve allocates once per
    feasibility test; only a regularised retry builds another dense matrix.
    """
    m_ap, k_ue = sig.shape
    n = m_ap * k_ue
    r, ball, q, g, margins = state
    h, pp = work

    u = 1.0 / margins
    b_inv = 1.0 / ball
    w = bs @ (u / q)
    row_scale = w + 2.0 * b_inv

    grad_sig = -sa * u[None, :] + row_scale[:, None] * sig
    grad_s = -weight + float(u.sum())
    grad = np.concatenate([grad_sig.ravel(), [grad_s]])

    # Rank-one pieces.  p_t[k] = bs[:, k, None] * sig is the gradient of the
    # norm part of cone k; e_t[k] embeds sa[:, k] into column k.
    p_t = bs.T[:, :, None] * sig[None, :, :]
    e_t = np.zeros((k_ue, m_ap, k_ue))
    e_t[np.arange(k_ue), :, np.arange(k_ue)] = sa.T
    v = u[:, None, None] * (e_t - (1.0 / q)[:, None, None] * p_t)
    v_full = np.concatenate([v.reshape(k_ue, n), -u[:, None]], axis=1)
    p_coef = np.sqrt(u / (q * q * q))
    p_full = (p_coef[:, None, None] * p_t).reshape(k_ue, n)

    # H = V'V + diag(row_scale per entry) - P'P + one ball block per AP, on
    # the sigma block.  Each entry gets the same additions as when summed
    # onto zeros, so the bits do not depend on the order of the first two.
    np.matmul(v_full.T, v_full, out=h)
    diag = np.arange(n)
    h[diag, diag] += row_scale.repeat(k_ue)
    np.matmul(p_full.T, p_full, out=pp)
    h[:n, :n] -= pp
    blocks = (4.0 * b_inv * b_inv)[:, None, None] * sig[:, :, None] * sig[:, None, :]
    aps = np.arange(m_ap)   # h[:n, :n] splits into a (M, K, M, K) view
    h[:n, :n].reshape(m_ap, k_ue, m_ap, k_ue)[aps, :, aps, :] += blocks

    if counter is not None:
        counter.mul(6 * n + 4 * k_ue + 2 * m_ap)       # gradient assembly
        counter.mul(3 * k_ue * n + 2 * k_ue)           # p_t, v, p_full scaling
        counter.matmul(n + 1, k_ue, n + 1)             # v_full.T @ v_full
        counter.matmul(n, k_ue, n)                     # p_full.T @ p_full
        counter.mul(m_ap * k_ue * k_ue)                # ball blocks
        counter.add(n + n * n + m_ap * k_ue * k_ue)    # diagonal, -P'P, blocks

    reg = 0.0
    for _ in range(8):
        # One LU factorisation per solve that runs, a failed one included.
        if counter is not None:
            counter.solve_lu(n + 1)
        try:
            if reg:
                if counter is not None:
                    counter.newton_retries += 1
                    counter.mul((n + 1) * (n + 1))     # reg * base * eye
                    counter.add((n + 1) * (n + 1))     # h + ...
                base = float(np.mean(row_scale.repeat(k_ue))) + 1e-30
                delta = np.linalg.solve(h + reg * base * np.eye(n + 1), -grad)
            else:
                delta = np.linalg.solve(h, -grad)
        except np.linalg.LinAlgError:
            reg = max(reg * 10.0, 1e-12)
            continue
        slope = float(grad @ delta)
        if np.all(np.isfinite(delta)) and slope < 0.0:
            return delta[:n].reshape(m_ap, k_ue), float(delta[n]), grad, slope
        reg = max(reg * 10.0, 1e-12)
    # Fall back to steepest descent if the system is hopeless.
    if counter is not None:
        counter.newton_fallbacks += 1
    gn = float(grad @ grad)
    delta = -grad / math.sqrt(gn + 1e-300)
    return delta[:n].reshape(m_ap, k_ue), float(delta[n]), grad, -math.sqrt(gn)


def _center(weight: float, sa: np.ndarray, bs: np.ndarray, sig: np.ndarray,
            s: float, counter: FlopCounter | None,
            work: tuple[np.ndarray, np.ndarray]
            ) -> tuple[np.ndarray, float, tuple]:
    """Newton iterations minimising the barrier at a fixed objective weight."""
    state = _state(sa, bs, sig, s)
    phi = _phi(weight, s, state[4], state[1])
    for _ in range(_NEWTON_MAX_STEPS):
        dsig, ds, grad, slope = _newton_direction(weight, sa, bs, sig, s,
                                                  state, counter, work)
        dec2 = -slope
        if dec2 / 2.0 <= _NEWTON_DEC2_TOL:
            break
        step = 1.0
        accepted = False
        for _ in range(60):
            sig_n = sig + step * dsig
            s_n = s + step * ds
            state_n = _state(sa, bs, sig_n, s_n)
            if counter is not None:
                _count_state(counter, *sig.shape)
            phi_n = _phi(weight, s_n, state_n[4], state_n[1])
            if phi_n <= phi + 0.01 * step * slope:
                sig, s, state, phi = sig_n, s_n, state_n, phi_n
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
    return sig, s, state


def _margin_solve(sa: np.ndarray, bs: np.ndarray, t: float,
                  sig_init: np.ndarray | None = None, full_center: bool = False,
                  counter: FlopCounter | None = None
                  ) -> tuple[bool, np.ndarray | None, float]:
    """Decide feasibility of SINR target t.

    Returns (feasible, eta, achieved) where achieved is the exact worst-user
    SINR of eta when feasible.  eta is None when infeasible.
    """
    m_ap, k_ue = sa.shape
    n_constr = m_ap + k_ue
    # Work with gains divided by sqrt(t): the cone margins are then measured
    # in units of the target, so the barrier sees O(1) slacks whether the
    # target SINR is 1e-9 or 1e+2, and shares its scale with the unit power
    # balls.  The exact recheck below still uses the unscaled gains.
    sa_t = sa / math.sqrt(t)

    if sig_init is None:
        sig = np.full((m_ap, k_ue), 1.0 / math.sqrt(2.0 * k_ue))
    else:
        sig = np.abs(sig_init).astype(float, copy=True)
        r = np.einsum("mk,mk->m", sig, sig)
        hot = r > 0.98
        if np.any(hot):
            sig[hot] *= np.sqrt(0.98 / r[hot])[:, None]
    state = _state(sa_t, bs, sig, 0.0)
    g0 = state[3]
    scale0 = max(1.0, float(np.max(np.abs(g0))))
    s = float(np.min(g0)) - 0.05 * scale0

    weight = n_constr / (0.25 * scale0)
    gap_floor = 1e-12 * scale0
    best: tuple[bool, np.ndarray | None, float] | None = None
    n = m_ap * k_ue
    work = (np.empty((n + 1, n + 1)), np.empty((n, n)))
    while True:
        sig, s, state = _center(weight, sa_t, bs, sig, s, counter, work)
        gap = n_constr / weight
        if s > 0.0:
            achieved = _achieved_min_sinr(sa, bs, sig)
            if achieved >= t * (1.0 - _FEAS_TOL):
                best = (True, sig * sig, achieved)
                if not full_center or gap <= 1e-3 * max(abs(s), 1e-6 * scale0):
                    return best
        elif s + 2.0 * gap < 0.0:
            return False, None, s
        if gap <= gap_floor:
            if best is not None:
                return best
            achieved = _achieved_min_sinr(sa, bs, sig)
            if achieved >= t * (1.0 - _FEAS_TOL):
                return True, sig * sig, achieved
            return False, None, s
        weight *= _LOG_BARRIER_MU


def _achieved_min_sinr(sa: np.ndarray, bs: np.ndarray, sig: np.ndarray) -> float:
    """Exact worst-user SINR of eta = sigma**2 in the rho-scaled variables."""
    sinr = _sinr_scaled(sa, bs, sig)
    return float(np.min(sinr))


def _sinr_scaled(sa: np.ndarray, bs: np.ndarray, sig: np.ndarray) -> np.ndarray:
    num = np.einsum("mk,mk->k", sa, np.abs(sig))
    r = np.einsum("mk,mk->m", sig, sig)
    den = 1.0 + bs.T @ r
    return num * num / den


def equal_power(num_aps: int, num_ues: int) -> np.ndarray:
    """Baseline allocation: every AP splits full power evenly over users."""
    return np.full((num_aps, num_ues), 1.0 / num_ues)


def solve_maxmin(beta: np.ndarray, counter: FlopCounter | None = None
                 ) -> MaxMinSolution:
    """Maximise the worst-user SINR subject to per-AP power budgets.

    The bracket starts at [_T_FLOOR, U], where U = max_k rho_d *
    (sum_m sqrt(alpha[m, k]))**2 is the interference-free bound that no
    allocation reaches.  When the floor is not below U, or is out of reach,
    half the worst SINR of equal power (always admissible) is the lower
    bracket instead.
    Bisection maintains a feasible incumbent allocation; each feasible probe
    raises the lower bracket to the SINR its allocation actually achieves,
    which typically saves several iterations.  The final allocation comes
    from a fully centred margin solve, so its per-user SINRs are equalised
    to within _SPREAD_REL relative spread.
    """
    beta = np.asarray(beta, dtype=float)
    alpha, rho_d = link(beta)
    sa = np.sqrt(rho_d * alpha)
    bs = rho_d * beta

    hi = float(np.max(rho_d * np.sqrt(alpha).sum(axis=0) ** 2))
    lo = _T_FLOOR
    feasible = False
    if lo < hi:
        feasible, eta, achieved = _margin_solve(sa, bs, lo, counter=counter)
    if not feasible:
        eta_eq = equal_power(*beta.shape)
        t_eq = float(np.min(compute_sinr(beta, alpha, eta_eq, rho_d)))
        lo = 0.5 * t_eq
        if lo <= 0.0:
            raise SolverError("equal power gives a user SINR 0 (its channel "
                              "estimate quality alpha underflows to 0), so "
                              "no allocation has a positive worst-user SINR")
        feasible, eta, achieved = _margin_solve(sa, bs, lo, counter=counter)
        if not feasible:
            # Equal power itself witnesses t_eq.
            eta, achieved = eta_eq, t_eq
    lo = min(max(lo, achieved), hi * (1.0 - 1e-12))
    sig_warm = np.sqrt(eta)

    iterations = 0
    sinr = None
    while iterations < _MAX_BISECTION:
        bracket_ok = (hi - lo) <= _REL_TOL * lo
        if bracket_ok:
            if sinr is None:
                # Polish: fully centred solve at the incumbent target.
                ok, eta_f, achieved = _margin_solve(sa, bs, lo,
                                                    sig_init=sig_warm,
                                                    full_center=True,
                                                    counter=counter)
                if ok:
                    eta = eta_f
                    sig_warm = np.sqrt(eta)
                sinr = _sinr_scaled(sa, bs, sig_warm)
            spread = float(np.max(sinr) - np.min(sinr))
            if spread <= _SPREAD_REL * float(np.min(sinr)):
                break
            if (hi - lo) <= 4.0 * np.finfo(float).eps * lo:
                break
        mid = 0.5 * (lo + hi)
        near_end = (hi - lo) <= 16.0 * _REL_TOL * lo
        feasible, eta_mid, achieved = _margin_solve(sa, bs, mid,
                                                    sig_init=sig_warm,
                                                    full_center=near_end,
                                                    counter=counter)
        iterations += 1
        if feasible:
            eta = eta_mid
            sig_warm = np.sqrt(eta)
            lo = min(max(mid, achieved), hi * (1.0 - 1e-12))
            sinr = _sinr_scaled(sa, bs, sig_warm) if near_end else None
        else:
            hi = mid
            sinr = None

    if sinr is None:
        sinr = _sinr_scaled(sa, bs, sig_warm)
    spread = float(np.max(sinr) - np.min(sinr))
    converged = ((hi - lo) <= _REL_TOL * lo
                 and spread <= _SPREAD_REL * float(np.min(sinr)))
    t_star = float(np.min(sinr))
    sinr_exact = compute_sinr(beta, alpha, eta, rho_d)
    return MaxMinSolution(t_star=t_star, eta=eta, sinr=sinr_exact,
                          iterations=iterations, converged=converged)
