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

Before any Newton system, a feasibility test compares t with a closed-form
bound on the worst-user SINR (_sinr_cap): user k alone at full power, and
Cauchy-Schwarz with only user k's own power as interference.  A target
above it is answered "infeasible" at once.  The bisection opens its bracket
at the interference-free bound, on most draws thousands of times above the
optimum, so its first probes are of this kind.  The answer is the one the
barrier gives: above the bound no allocation passes the exact recheck, so
the bisection takes the same steps and every label keeps its bits; only
the work counted falls.

Most of the probes that remain infeasible are answered by a Lagrangian
bound (_dual_bound, Boyd & Vandenberghe, Convex Optimization, 2004, 5.2
and 11.2) at points the barrier computes anyway.  For any point sigma0
and user weights lam >= 0 summing to 1, the average sum_k lam_k g_k of
the cone slacks lies above the worst one; each D_k = sqrt(1 + bs[:,k]' r)
is convex, so it lies above its tangent at sigma0, whose constant term is
1/D_k(sigma0); the average is then linear in sigma and its maximum over
each AP's unit ball is a row norm.  That maximum, B, is at least the
largest worst-user margin.  Taken at the target t (1 - 2 _FEAS_TOL), a
negative B means that no allocation passes the exact recheck at
t (1 - _FEAS_TOL), so the probe answers None, as the barrier would.  It is
checked before each Newton system at an iterate with s <= 0 (sigma0 the
iterate, lam proportional to the reciprocal margins that the barrier
weights its slacks by) and, at probe entry, at the last centred point of
the same solve.  The bisection takes the same steps and every label keeps
its bits; only the work counted falls.

Each Newton step ends in a backtracking line search (Boyd & Vandenberghe,
9.2 and 11.3): the first of the steps 1, 1/2, ..., 2^-59 that passes the
Armijo test.  Most steps take the full step, which is tested alone; the
halvings are tested a few at a time, as stacks of trial points.  _state and
_phi take a leading stack axis and give each stacked row the bits of its
own 1-D call, so the search accepts the trial, and the solver returns the
bits, of a search that tests one trial at a time.  It tallies that search's
work, too: trials in a pass past the accepted one are not counted.  This
matters where the barrier weight is large, as in the last, fully centred
probe, where steps halve twenty times and more.

Each Newton system has MK+1 unknowns.  Up to _DENSE_MAX_N of them it is
solved by LU of the dense Hessian; above that, through the Hessian's
structure (block-diagonal plus rank 2K plus the margin's border) in
O(MK * K^2) instead of O((MK)^3), falling back to the dense LU for any
system that the structured solve cannot bring to the dense residual.

The test suite validates the solver end to end against an independent
grid-search oracle for small instances, which lives in `tests/oracle.py`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .flops import FlopCounter, counting
from .sinr import compute_sinr, link

_LOG_BARRIER_MU = 30.0
_NEWTON_MAX_STEPS = 60
_NEWTON_DEC2_TOL = 2e-9
# The line search's trial steps 2^-i, i < 60, exact powers of two.  After
# the full step, the halvings are tested in stacked passes of trials
# [lo, hi): small first, since most steps that halve at all halve a few
# times, and at most 16 wide (a 16-trial 32x9 sigma stack is 37 KB).
_HALVINGS = np.ldexp(1.0, -np.arange(60))
_HALVINGS.flags.writeable = False
_BACKTRACK_PASSES = ((1, 7), (7, 23), (23, 39), (39, 55), (55, 60))
# Outer bisection.  A probe is feasible when its exact worst-user SINR is
# within _FEAS_TOL (relative) of the target; bisection stops once the bracket
# is _REL_TOL wide and the per-user SINR spread of the incumbent is below
# _SPREAD_REL of its worst SINR (the max-min optimum equalises SINRs, so the
# surrogate's training target should too), or after _MAX_BISECTION steps.
# _T_FLOOR is the first lower bracket tried; weaker channels start from
# half the equal-power worst SINR instead.  A solve that closes its bracket
# but not its spread gets at most _EQUALISE_PASSES equalisation passes.
_FEAS_TOL = 1e-6
_REL_TOL = 1e-4
_SPREAD_REL = 5e-4
_MAX_BISECTION = 60
_T_FLOOR = 1e-6
_EQUALISE_PASSES = 4
# Newton systems with more than _DENSE_MAX_N = M*K unknowns are solved with
# their structure (see _structured_direction); at and below it the dense LU
# is faster, and its bits are those of the committed 8x3 labels.  A
# structured step iterates its refinement until the residual |H d + grad|
# is below _REFINE_TOL |grad|, with at most _REFINE_STEPS corrections.
_DENSE_MAX_N = 72
_REFINE_TOL = 1e-10
_REFINE_STEPS = 3
# _dual_bound measures margins at the target t (1 - 2 _FEAS_TOL): the gains
# divided by sqrt(t) grow by this factor.
_DUAL_GAIN = 1.0 / math.sqrt(1.0 - 2.0 * _FEAS_TOL)


@dataclass
class MaxMinSolution:
    t_star: float          # worst-user SINR of eta as the solver recomputes
                           # it from its rho-scaled gains; may differ from
                           # min(sinr) in the last bit
    eta: np.ndarray        # (M, K) power fractions
    sinr: np.ndarray       # (K,) per-user SINRs at eta
    iterations: int        # bisection steps performed
    converged: bool        # bracket and spread targets met within _MAX_BISECTION


class SolverError(RuntimeError):
    """Raised when no allocation gives every user a positive SINR."""


@dataclass
class _Centre:
    """The last centred barrier point of one solve: sigma and its _state.
    solve_maxmin makes one per call; each probe reads it for the entry
    bound and overwrites it after each centring."""
    sig: np.ndarray | None = None
    state: tuple | None = None


def _state(sa: np.ndarray, bs: np.ndarray, sig: np.ndarray,
           s: float | np.ndarray) -> tuple:
    """Row norms, cone slacks and barrier residuals at (sigma, s), with the
    gains already divided by sqrt(t).  sig may carry a leading stack axis;
    s is then a column of one value per row.  Each row gets the bits of its
    own 1-D call (the stacked bs' r is a matmul of bs' with each row: r @ bs
    has other bits)."""
    r = np.einsum("...mk,...mk->...m", sig, sig)
    ball = 1.0 - r
    q2 = 1.0 + np.matmul(bs.T, r[..., None])[..., 0]
    q = np.sqrt(q2)
    n_lin = np.einsum("mk,...mk->...k", sa, sig)
    g = n_lin - q
    margins = g - s
    return r, ball, q, g, margins


def _phi(weight: float, s: float | np.ndarray, margins: np.ndarray,
         ball: np.ndarray) -> np.floating | np.ndarray:
    """The barrier at (sigma, s), +inf outside the interior or at a NaN
    slack, per row of a stack of margins and balls (s one value per row).

    Inside, every log is finite.  Outside, the log of a zero slack is -inf
    and of a negative or NaN one NaN, while none is +inf (ball <= 1, and
    at a finite s a margin is finite or NaN), so the row's value is +inf or
    NaN, and fmin makes it +inf."""
    with np.errstate(divide="ignore", invalid="ignore"):
        phi = (-weight * s - np.log(margins).sum(axis=-1)
               - np.log(ball).sum(axis=-1))
    return np.fmin(phi, math.inf)


def _count_state(counter: FlopCounter, m: int, k: int, times: int = 1) -> None:
    # Row norms, bs.T @ r and n_lin: three MK-term dot sets.  Then q2's
    # + 1 and sqrt (K each), and g, margins and ball (3K + M adds); `times`
    # such states.
    counter.mul(times * (3 * m * k + k))
    counter.add(times * (3 * m * k + 4 * k + m))


def _newton_terms(weight: float, sa: np.ndarray, bs: np.ndarray,
                  sig: np.ndarray, state: tuple, counter: FlopCounter) -> tuple:
    """The gradient and the pieces the barrier Hessian is built from:
    (b_inv, row_scale, grad, v_full, p_full).

    On the sigma block, H = V'V + diag(row_scale per entry) - P'P + one ball
    block 4 b_inv[m]^2 sigma_m sigma_m' per AP, where V and P are the first
    n columns of the (K, n+1) v_full and the (K, n) p_full.  The margin's
    row and column come from v_full alone: its last column is -u, where
    u = 1 / margins.
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

    # Rank-one pieces.  p_t[k] = bs[:, k, None] * sig is the gradient of the
    # norm part of cone k; e_t[k] embeds sa[:, k] into column k.
    p_t = bs.T[:, :, None] * sig[None, :, :]
    e_t = np.zeros((k_ue, m_ap, k_ue))
    e_t[np.arange(k_ue), :, np.arange(k_ue)] = sa.T
    v = u[:, None, None] * (e_t - (1.0 / q)[:, None, None] * p_t)
    v_full = np.concatenate([v.reshape(k_ue, n), -u[:, None]], axis=1)
    p_coef = np.sqrt(u / (q * q * q))
    p_full = (p_coef[:, None, None] * p_t).reshape(k_ue, n)

    counter.mul(6 * n + 4 * k_ue + 2 * m_ap)           # gradient assembly
    counter.mul(3 * k_ue * n + 2 * k_ue)               # p_t, v, p_full scaling
    return b_inv, row_scale, grad, v_full, p_full


def _newton_direction(weight: float, sa: np.ndarray, bs: np.ndarray,
                      sig: np.ndarray, state: tuple, counter: FlopCounter
                      ) -> tuple[np.ndarray, float, np.ndarray, float]:
    """One Newton system for the barrier subproblem.  Returns
    (delta_sigma, delta_s, grad_sigma, grad_s dotted into delta).

    Above _DENSE_MAX_N unknowns the system is solved with its structure; a
    system that the structured step cannot solve goes to the dense step.
    """
    counter.newton_systems += 1
    terms = _newton_terms(weight, sa, bs, sig, state, counter)
    if sig.size > _DENSE_MAX_N:
        step = _structured_direction(sig, state[0], terms, counter)
        if step is not None:
            return step
        counter.newton_dense_fallbacks += 1
    return _dense_direction(sig, terms, counter)


def _structured_direction(sig: np.ndarray, r: np.ndarray, terms: tuple,
                          counter: FlopCounter
                          ) -> tuple[np.ndarray, float, np.ndarray, float] | None:
    """The Newton step without forming H (Boyd & Vandenberghe, App. C.4).

    On the sigma block H is A = B + U'SU.  B is block-diagonal, one
    row_scale[m] I + 4 b_inv[m]^2 sigma_m sigma_m' per AP (r holds the row
    norms sigma_m'sigma_m), and is inverted by Sherman-Morrison.  U stacks V
    on P and S = diag(+I_K, -I_K), so A x = b is solved through the 2K x 2K
    capacitance system C y = U B^-1 b, C = S + U B^-1 U', as
    x = B^-1 (b - U'y).  The margin's border, c = -V'u and d = u'u, is
    eliminated with a scalar Schur complement.  Iterative refinement with
    the O(nK) product H x then runs until the residual is below
    _REFINE_TOL |grad|.

    Near the end of a centring path large barrier terms make C
    ill-conditioned (condition numbers to 1e10).  Two choices keep the
    refinement convergent there: U'y is subtracted before B^-1 is applied,
    not after as in the textbook B^-1 b - B^-1 U'y, and every solve with C
    is an LU solve, never a product with its inverse.

    Returns None, for the caller to take the dense step, when C is singular,
    the Schur complement is not positive, the residual is still above the
    tolerance after _REFINE_STEPS corrections, or the step is not a descent
    direction.
    """
    m_ap, k_ue = sig.shape
    n = m_ap * k_ue
    b_inv, row_scale, grad, v_full, p_full = terms
    ball_w = 4.0 * b_inv * b_inv
    gamma = ball_w / (row_scale + ball_w * r)
    diag = row_scale.repeat(k_ue)
    big_u = np.concatenate([v_full[:, :n], p_full])
    c = v_full[:, n] @ v_full[:, :n]
    d = float(v_full[:, n] @ v_full[:, n])
    g_norm = math.sqrt(float(grad @ grad))
    counter.mul(4 * m_ap + 1)                          # ball_w, gamma, g_norm
    counter.add(m_ap)
    counter.dot(k_ue, n + 1)                           # c, d
    counter.dot(n + 1)                                 # |grad|^2

    def apply_b_inv(x: np.ndarray) -> np.ndarray:
        """B^-1 x for x of shape (n, j)."""
        x3 = x.reshape(m_ap, k_ue, -1)
        proj = gamma[:, None] * np.einsum("mk,mkj->mj", sig, x3)
        y = (x3 - sig[:, :, None] * proj[:, None, :]) / row_scale[:, None, None]
        j = x3.shape[2]
        counter.dot(k_ue, m_ap * j)
        counter.mul(m_ap * j + 2 * n * j)
        counter.add(n * j)
        return y.reshape(n, -1)

    def apply_a_inv(x: np.ndarray) -> np.ndarray:
        """A^-1 x for x of shape (n, j)."""
        j = x.shape[1]
        counter.matmul(2 * k_ue, n, j)                 # U B^-1 x
        counter.solve_lu(2 * k_ue, j)                  # counted if it fails too
        counter.matmul(n, 2 * k_ue, j)                 # U'y
        counter.add(n * j)
        y = np.linalg.solve(cap, z.T @ x)
        return apply_b_inv(x - big_u.T @ y)

    def residual(dsig: np.ndarray, ds: float) -> tuple[np.ndarray, float]:
        """-grad - H (dsig, ds), with H applied through its factors."""
        proj = ball_w * np.einsum("mk,mk->m", sig, dsig.reshape(m_ap, k_ue))
        u_dsig = big_u @ dsig
        u_dsig[k_ue:] *= -1.0                          # S = diag(+I_K, -I_K)
        h_sig = (diag * dsig + (proj[:, None] * sig).ravel()
                 + u_dsig @ big_u + ds * c)
        counter.dot(k_ue, m_ap)
        counter.matmul(2 * k_ue, n, 1)
        counter.matmul(1, 2 * k_ue, n)
        counter.dot(n)                                 # c' dsig
        counter.mul(m_ap + 3 * n + 2 * k_ue + 1)
        counter.add(4 * n + 2)
        return -grad[:n] - h_sig, -grad[n] - float(c @ dsig) - d * ds

    z = apply_b_inv(big_u.T)
    cap = big_u @ z
    cap_diag = cap.reshape(-1)[::2 * k_ue + 1]         # a view: cap is new
    cap_diag[:k_ue] += 1.0
    cap_diag[k_ue:] -= 1.0
    counter.matmul(2 * k_ue, n, 2 * k_ue)
    counter.add(2 * k_ue)
    try:
        rhs = np.empty((n, 2))
        rhs[:, 0] = -grad[:n]
        rhs[:, 1] = c
        y = apply_a_inv(rhs)
        y_r, y_c = y[:, 0], y[:, 1]
        schur = d - float(c @ y_c)
        counter.dot(n)
        counter.add(1)
        if not schur > 0.0:
            return None
        dsig, ds = np.zeros(n), 0.0
        res_s = -grad[n]
        for step in range(_REFINE_STEPS + 1):
            if step:
                y_r = apply_a_inv(res_sig[:, None])[:, 0]
            corr_s = (res_s - float(c @ y_r)) / schur
            dsig = dsig + (y_r - corr_s * y_c)
            ds += corr_s
            res_sig, res_s = residual(dsig, ds)
            res_norm = math.sqrt(float(res_sig @ res_sig) + res_s * res_s)
            counter.dot(n)                             # c' y_r
            counter.dot(n + 1)                         # |residual|^2
            counter.mul(n + 3)
            counter.add(2 * n + 2)
            if res_norm <= _REFINE_TOL * g_norm:
                break
        else:
            return None
    except np.linalg.LinAlgError:
        return None
    delta = np.concatenate([dsig, [ds]])
    slope = float(grad @ delta)
    if not slope < 0.0:
        return None
    return dsig.reshape(m_ap, k_ue), ds, grad, slope


def _dense_direction(sig: np.ndarray, terms: tuple, counter: FlopCounter
                     ) -> tuple[np.ndarray, float, np.ndarray, float]:
    """The Newton step by LU of the dense (n+1)^2 Hessian."""
    m_ap, k_ue = sig.shape
    n = m_ap * k_ue
    b_inv, row_scale, grad, v_full, p_full = terms

    # Each entry gets the same additions as when summed onto zeros, so the
    # bits do not depend on the order of the first two.
    h = v_full.T @ v_full
    diag = np.arange(n)
    h[diag, diag] += row_scale.repeat(k_ue)
    h[:n, :n] -= p_full.T @ p_full
    blocks = (4.0 * b_inv * b_inv)[:, None, None] * sig[:, :, None] * sig[:, None, :]
    aps = np.arange(m_ap)   # h[:n, :n] splits into a (M, K, M, K) view
    h[:n, :n].reshape(m_ap, k_ue, m_ap, k_ue)[aps, :, aps, :] += blocks

    counter.matmul(n + 1, k_ue, n + 1)                 # v_full.T @ v_full
    counter.matmul(n, k_ue, n)                         # p_full.T @ p_full
    counter.mul(m_ap * k_ue * k_ue)                    # ball blocks
    counter.add(n + n * n + m_ap * k_ue * k_ue)        # diagonal, -P'P, blocks

    reg = 0.0
    for _ in range(8):
        # One LU factorisation per solve that runs, a failed one included.
        counter.solve_lu(n + 1)
        try:
            if reg:
                counter.newton_retries += 1
                counter.mul((n + 1) * (n + 1))         # reg * base * eye
                counter.add((n + 1) * (n + 1))         # h + ...
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
    counter.newton_fallbacks += 1
    gn = float(grad @ grad)
    delta = -grad / math.sqrt(gn + 1e-300)
    return delta[:n].reshape(m_ap, k_ue), float(delta[n]), grad, -math.sqrt(gn)


def _center(weight: float, sa: np.ndarray, bs: np.ndarray, sig: np.ndarray,
            s: float, counter: FlopCounter
            ) -> tuple[np.ndarray, float, tuple] | None:
    """Newton iterations minimising the barrier at a fixed objective weight;
    they stop early when the line search finds no decrease.  Returns the
    centred (sigma, s, state), or None when _dual_bound, checked before
    each Newton system at an iterate with s <= 0, is negative: then no
    allocation reaches the target.

    Each step is found by _line_search, whose stacked passes accept the
    trial a one-at-a-time backtracking search would, so the iterates, and
    every label, are those of that search."""
    state = _state(sa, bs, sig, s)
    phi = float(_phi(weight, s, state[4], state[1]))
    for _ in range(_NEWTON_MAX_STEPS):
        # At s > 0 the iterate's own margins are positive, so B is too.
        if s <= 0.0 and _dual_bound(sa, bs, sig, state, counter) < 0.0:
            return None
        dsig, ds, grad, slope = _newton_direction(weight, sa, bs, sig,
                                                  state, counter)
        if -slope / 2.0 <= _NEWTON_DEC2_TOL:
            break
        accepted = _line_search(weight, sa, bs, sig, s, phi, dsig, ds, slope,
                                counter)
        if accepted is None:
            break
        sig, s, state, phi = accepted
    return sig, s, state


def _line_search(weight: float, sa: np.ndarray, bs: np.ndarray,
                 sig: np.ndarray, s: float, phi: float, dsig: np.ndarray,
                 ds: float, slope: float, counter: FlopCounter
                 ) -> tuple[np.ndarray, float, tuple, float] | None:
    """Backtracking line search (Boyd & Vandenberghe, 9.2): the first of the
    steps 1, 1/2, ..., 2^-59 whose barrier value passes the Armijo test
    phi_n <= phi + 0.01 step slope, as (sigma, s, state, phi) there, or None
    when none does.

    The full step is tried alone, since most Newton steps take it.  The
    halvings are then tried in the stacked passes of _BACKTRACK_PASSES, and
    a pass accepts its first passing trial.  Every stacked row has the bits
    of its 1-D _state and _phi, so the accepted trial is the one that a
    search testing one trial at a time accepts, with the same bits.  The
    FLOP tally and counter.backtracks (the trials rejected) are that
    search's too: trials past the accepted one in its pass are not
    counted."""
    m_ap, k_ue = sig.shape
    sig_n = sig + dsig
    s_n = s + ds
    state_n = _state(sa, bs, sig_n, s_n)
    phi_n = float(_phi(weight, s_n, state_n[4], state_n[1]))
    _count_state(counter, m_ap, k_ue)
    if phi_n <= phi + 0.01 * slope:
        return sig_n, s_n, state_n, phi_n
    for lo, hi in _BACKTRACK_PASSES:
        step = _HALVINGS[lo:hi]
        sig_n = sig + step[:, None, None] * dsig
        s_n = s + step * ds
        state_n = _state(sa, bs, sig_n, s_n[:, None])
        phi_n = _phi(weight, s_n, state_n[4], state_n[1])
        passed = phi_n <= phi + 0.01 * step * slope
        j = int(passed.argmax())
        if passed[j]:
            _count_state(counter, m_ap, k_ue, times=j + 1)
            counter.backtracks += lo + j
            return (sig_n[j], float(s_n[j]), tuple(a[j] for a in state_n),
                    float(phi_n[j]))
        _count_state(counter, m_ap, k_ue, times=hi - lo)
    counter.backtracks += _HALVINGS.size
    return None


def _dual_bound(sa: np.ndarray, bs: np.ndarray, sig: np.ndarray, state: tuple,
                counter: FlopCounter) -> float:
    """The Lagrangian bound B of the module docstring, times sum(lam) > 0:
    at least the largest worst-user margin over all allocations in the
    unit balls at the target t (1 - 2 _FEAS_TOL), times sum(lam).  Here
    sa = sa / sqrt(t), state = _state(sa, bs, sig, s) for any s, and

        B = sum_m || lam * sa[m, :] / sqrt(1 - 2 _FEAS_TOL)
                     - (bs[m, :] @ w) * sig[m, :] || - sum(w),   w = lam / q,

    with q = sqrt(1 + bs' r) at sig (state[2]) and lam the reciprocal
    margins of state, 1 / state[4].  B is linear in lam, so leaving lam
    unnormalised keeps its sign."""
    m_ap, k_ue = sig.shape
    lam = 1.0 / state[4]
    w = lam / state[2]
    rows = (_DUAL_GAIN * lam) * sa - (bs @ w)[:, None] * sig
    bound = float(np.sqrt(np.einsum("mk,mk->m", rows, rows)).sum() - w.sum())
    counter.mul(3 * k_ue + 2 * m_ap * k_ue + m_ap)     # lam, w, gain, rows, sqrt
    counter.dot(k_ue, 2 * m_ap)                        # bs @ w, row norms
    counter.add(m_ap * k_ue + m_ap + k_ue + 1)         # rows, the two sums, B
    return bound


def _margin_solve(sa: np.ndarray, bs: np.ndarray, t: float,
                  counter: FlopCounter, sig_init: np.ndarray | None = None,
                  full_center: bool = False, centre: _Centre | None = None
                  ) -> tuple[np.ndarray, float] | None:
    """Decide feasibility of SINR target t: (eta, achieved) when feasible,
    with achieved the exact worst-user SINR of eta, and None when not.

    A target with t (1 - 2 _FEAS_TOL) above _sinr_cap gets None before any
    centring, counted in counter.probes_certified.  No allocation reaches
    an SINR above the bound, so none could pass the recheck
    achieved >= t (1 - _FEAS_TOL) below; the factor 2 leaves room for the
    rounding of both sides.  The barrier would have answered None too.

    Past that test, a negative Lagrangian bound B (_dual_bound) answers
    None, counted in counter.probes_dual_certified.  For any point sigma0
    and weights lam on the simplex, B is at least the largest worst-user
    margin at t (1 - 2 _FEAS_TOL): the worst margin is at most the
    lam-average; each D_k lies above its tangent at sigma0, whose constant
    term is 1/D_k(sigma0); the average is then linear in sigma and peaks
    at each AP's row norm.  So B < 0 means no allocation reaches
    t (1 - 2 _FEAS_TOL), none passes the recheck, and the barrier would
    answer None too.  The factor 2 again covers rounding: an allocation
    that passes the recheck has every margin at t (1 - 2 _FEAS_TOL) at
    least about 5e-7 D_k >= 5e-7, so B >= 5e-7, while B's rounding is
    near 1e-16 of its terms, which are at most about 1 wherever B is
    near 0.  B is taken at probe entry at the last centred point in
    `centre` (of an earlier probe of the same solve), and inside the
    barrier before each Newton system at an iterate with s <= 0.  It holds
    for any sigma0 and weights, so the answer never depends on which point
    it is taken at.  `centre` is updated after each centring; without one,
    the probe keeps its points to itself.
    """
    if t * (1.0 - 2.0 * _FEAS_TOL) > _sinr_cap(sa, bs, counter):
        counter.probes_certified += 1
        return None
    m_ap, k_ue = sa.shape
    n_constr = m_ap + k_ue
    # Work with gains divided by sqrt(t): the cone margins are then measured
    # in units of the target, so the barrier sees O(1) slacks whether the
    # target SINR is 1e-9 or 1e+2, and shares its scale with the unit power
    # balls.  The exact recheck below still uses the unscaled gains.
    sa_t = sa / math.sqrt(t)
    if centre is None:
        centre = _Centre()
    elif (centre.sig is not None
          and _dual_bound(sa_t, bs, centre.sig, centre.state, counter) < 0.0):
        counter.probes_dual_certified += 1
        return None

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
    best = None
    while True:
        centred = _center(weight, sa_t, bs, sig, s, counter)
        if centred is None:
            counter.probes_dual_certified += 1
            return None
        sig, s, centre.state = centred
        centre.sig = sig
        gap = n_constr / weight
        if s + 2.0 * gap < 0.0:
            return None
        # At the gap floor, a point with s <= 0 gets the exact recheck too,
        # unless an earlier centring already passed it.
        if s > 0.0 or (gap <= gap_floor and best is None):
            achieved = float(np.min(_sinr_scaled(sa, bs, sig)))
            if achieved >= t * (1.0 - _FEAS_TOL):
                best = sig * sig, achieved
                if not full_center or gap <= 1e-3 * max(abs(s), 1e-6 * scale0):
                    return best
        if gap <= gap_floor:
            return best
        weight *= _LOG_BARRIER_MU


def _sinr_cap(sa: np.ndarray, bs: np.ndarray, counter: FlopCounter) -> float:
    """A worst-user SINR that no allocation exceeds.

    SINR_k = (sum_m sa[m,k] sigma[m,k])^2 / (1 + sum_m bs[m,k] r[m]) with
    sigma[m,k] <= 1 and r[m] >= sigma[m,k]^2, so SINR_k is at most
    (sum_m sa[m,k])^2 (full power, no interference) and, by Cauchy-Schwarz,
    sum_m sa[m,k]^2 / bs[m,k] (only user k's own power as interference).
    The bound is the least of the two over k.  A zero bs[m,k] comes with a
    zero sa[m,k] and adds nothing."""
    m_ap, k_ue = sa.shape
    alone = sa.sum(axis=0) ** 2
    own = np.divide(sa * sa, bs, out=np.zeros_like(sa), where=bs > 0.0)
    counter.mul(2 * m_ap * k_ue + k_ue)                # sa^2 / bs, squares
    counter.add(2 * m_ap * k_ue)                       # two column sums
    return float(np.min(np.minimum(alone, own.sum(axis=0))))


def _sinr_scaled(sa: np.ndarray, bs: np.ndarray, sig: np.ndarray) -> np.ndarray:
    """Exact per-user SINRs of eta = sigma**2 in the rho-scaled variables."""
    num = np.einsum("mk,mk->k", sa, np.abs(sig))
    r = np.einsum("mk,mk->m", sig, sig)
    den = 1.0 + bs.T @ r
    return num * num / den


def _spread_ok(sinr: np.ndarray) -> bool:
    worst = float(np.min(sinr))
    return float(np.max(sinr) - worst) <= _SPREAD_REL * worst


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
    Probes above the closed-form bound of _sinr_cap are answered
    infeasible without a Newton system, and most other infeasible probes
    by the Lagrangian bound of _dual_bound, at probe entry from the last
    centred point of this solve or inside the barrier: the answer the
    barrier would give, so the steps and the returned bits are those of a
    full solve.
    Bisection maintains a feasible incumbent allocation; each feasible probe
    raises the lower bracket to the SINR its allocation actually achieves,
    which typically saves several iterations.  The final allocation comes
    from a fully centred margin solve, so its per-user SINRs are equalised
    to within _SPREAD_REL relative spread.

    When the bracket closes but the spread test still fails at the end of
    the bisection, each user's powers are scaled by min(1, t / SINR_k),
    with t the worst SINR, until the spread test passes.  Lowering a
    user's power lowers everyone's interference, so SINR_k stays at or
    above t and the worst SINR does not fall (Yates, IEEE JSAC 1995).
    """
    counter = counting(counter)
    beta = np.asarray(beta, dtype=float)
    alpha, rho_d = link(beta)
    sa = np.sqrt(rho_d * alpha)
    bs = rho_d * beta

    centre = _Centre()
    hi = float(np.max(rho_d * np.sqrt(alpha).sum(axis=0) ** 2))
    lo = _T_FLOOR
    probe = (_margin_solve(sa, bs, lo, counter, centre=centre) if lo < hi
             else None)
    if probe is None:
        eta_eq = equal_power(*beta.shape)
        t_eq = float(np.min(compute_sinr(beta, alpha, eta_eq, rho_d)))
        lo = 0.5 * t_eq
        if lo <= 0.0:
            raise SolverError("equal power gives a user SINR 0 (its channel "
                              "estimate quality alpha underflows to 0), so "
                              "no allocation has a positive worst-user SINR")
        # Equal power itself witnesses t_eq.
        probe = (_margin_solve(sa, bs, lo, counter, centre=centre)
                 or (eta_eq, t_eq))
    eta, achieved = probe
    lo = min(max(lo, achieved), hi * (1.0 - 1e-12))

    iterations = 0
    sinr = None
    while iterations < _MAX_BISECTION:
        if (hi - lo) <= _REL_TOL * lo:
            if sinr is None:
                # Polish: fully centred solve at the incumbent target; if
                # it fails, the incumbent stays.
                eta, _ = _margin_solve(sa, bs, lo, counter,
                                       sig_init=np.sqrt(eta),
                                       full_center=True,
                                       centre=centre) or (eta, None)
                sinr = _sinr_scaled(sa, bs, np.sqrt(eta))
            if _spread_ok(sinr) or (hi - lo) <= 4.0 * np.finfo(float).eps * lo:
                break
        mid = 0.5 * (lo + hi)
        near_end = (hi - lo) <= 16.0 * _REL_TOL * lo
        probe = _margin_solve(sa, bs, mid, counter, sig_init=np.sqrt(eta),
                              full_center=near_end, centre=centre)
        iterations += 1
        if probe is None:
            hi = mid
            sinr = None
        else:
            eta, achieved = probe
            lo = min(max(mid, achieved), hi * (1.0 - 1e-12))
            sinr = _sinr_scaled(sa, bs, np.sqrt(eta)) if near_end else None

    if sinr is None:
        sinr = _sinr_scaled(sa, bs, np.sqrt(eta))
    bracket_ok = (hi - lo) <= _REL_TOL * lo
    for _ in range(_EQUALISE_PASSES):
        if not bracket_ok or _spread_ok(sinr):
            break
        eta = eta * np.minimum(1.0, float(np.min(sinr)) / sinr)
        sinr = _sinr_scaled(sa, bs, np.sqrt(eta))
    return MaxMinSolution(t_star=float(np.min(sinr)), eta=eta,
                          sinr=compute_sinr(beta, alpha, eta, rho_d),
                          iterations=iterations,
                          converged=bracket_ok and _spread_ok(sinr))
