"""Straightforward references that the optimised program is held to bit for bit.

* `dense_newton_system`: the solver's barrier Newton system, the oracle for
  both of its Newton steps.  The dense step (`maxmin._dense_direction`)
  assembles the (MK+1)^2 Hessian onto V'V and is held to this bit for bit;
  the structured step taken above `maxmin._DENSE_MAX_N` unknowns is held
  to its residual.  This builds the same system the obvious way: zeros,
  then the per-entry diagonal, then += V'V, then -= P'P, then one ball
  block per AP in a Python loop.  Float addition commutes, so each entry receives the same
  sums and the two must agree bit for bit.
* `typed_block` / `typed_block_bwd`: the engine's typed attention block,
  forward and backward, with a fresh temporary for every softmax step, a
  `max` reduction for the softmax shift and one input flatten per affine
  map; the oracle for `engine._typed_block` and `engine._typed_block_bwd`,
  which work in place.  Like them, the forward keeps only the attention
  and the backward recomputes the value, query and key tensors from the
  block input.
* `write_checkpoint`: the whole checkpoint document built in memory and
  written with `json.dump`; the oracle for the streamed
  `model.save_checkpoint`.

References that no pipeline path calls, so they live here and not in the
package:

* `feasibility_check`: one feasibility decision of the solver for a
  target SINR, over `maxmin._margin_solve`.
* `upper_bound_sinr`: the interference-free bound that `solve_maxmin`
  starts its bisection bracket from.
* `sinr_cap`: the worst-user SINR bound that answers far-infeasible
  feasibility probes, in beta's unscaled terms.
* `brute_force_maxmin`: the exhaustive grid-search oracle for small
  instances, which the solver's optimum is held to within grid resolution.
* `gnn_forward_flops`: the network's forward-pass FLOPs in closed form,
  which the instrumented `engine.count_flops` must match within 1%.

Test helpers:

* `fading_instance`: the fading draw a test names by (seed, index).
* `subprocess_env`: the environment for a child Python process that must
  import this checkout's package.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path

import numpy as np

from cfgnn.channel import draw_fading
from cfgnn.engine import _MASK_VALUE
from cfgnn.flops import FlopCounter, NoCounter
from cfgnn.maxmin import MaxMinSolution, _margin_solve, _sinr_cap
from cfgnn.sinr import Link, compute_sinr, link


def dense_newton_system(weight: float, sa: np.ndarray, bs: np.ndarray,
                        sig: np.ndarray, state: tuple
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


def _apply_map(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    s, g, nmem, n_in = x.shape
    c, d, _ = w.shape
    flat = x.reshape(-1, n_in) @ w.reshape(c * d, n_in).T + b.reshape(-1)
    return flat.reshape(s, g, nmem, c, d).transpose(0, 1, 3, 2, 4)


def typed_block(x: np.ndarray, arrays: tuple, counter) -> tuple:
    """(output, attention or None) of one typed block on group layout
    (S, G, N, n_in)."""
    w1, b1, w2, b2, w3, b3, w4, b4 = arrays
    s, g, nmem, n_in = x.shape
    c, d, _ = w1.shape
    sv = _apply_map(x, w1, b1)
    counter.linear(s * g * nmem, n_in, c * d)
    if nmem == 1:
        out5 = sv
        attn = None
    else:
        v = _apply_map(x, w2, b2)
        q = _apply_map(x, w3, b3)
        k = _apply_map(x, w4, b4)
        counter.linear(s * g * nmem, n_in, c * d)
        counter.linear(s * g * nmem, n_in, c * d)
        counter.linear(s * g * nmem, n_in, c * d)
        logits = (q @ k.swapaxes(-1, -2)) / math.sqrt(d)
        counter.dot(d, s * g * c * nmem * nmem)
        counter.mul(s * g * c * nmem * nmem)
        idx = np.arange(nmem)
        logits[..., idx, idx] = _MASK_VALUE
        mx = logits.max(axis=-1, keepdims=True)
        ex = np.exp(logits - mx)
        total = ex.sum(axis=-1, keepdims=True)
        attn = ex / total
        counter.add(2 * s * g * c * nmem * nmem)
        counter.mul(2 * s * g * c * nmem * nmem)
        agg = attn @ v
        counter.dot(nmem, s * g * c * nmem * d)
        out5 = sv + agg
        counter.add(s * g * nmem * c * d)
    out = out5.transpose(0, 1, 3, 2, 4).reshape(s, g, nmem, c * d)
    return out, attn


def typed_block_bwd(df: np.ndarray, x: np.ndarray, arrays: tuple,
                    attn) -> tuple:
    """(dx, grads) of one typed block; df is the (S, G, N, c*d) upstream,
    x the block input and attn its attention (None for N = 1)."""
    w1, b1, w2, b2, w3, b3, w4, b4 = arrays
    s, g, nmem, n_in = x.shape
    c, d, _ = w1.shape

    def map_bwd(dy5, w):
        dy_flat = dy5.transpose(0, 1, 3, 2, 4).reshape(-1, c * d)
        x_flat = x.reshape(-1, n_in)
        dw = (dy_flat.T @ x_flat).reshape(c, d, n_in)
        db = dy_flat.sum(axis=0).reshape(c, d)
        dx = (dy_flat @ w.reshape(c * d, n_in)).reshape(s, g, nmem, n_in)
        return dw, db, dx

    df5 = df.reshape(s, g, nmem, c, d).transpose(0, 1, 3, 2, 4)
    dw1, db1, dx = map_bwd(df5, w1)
    grads = {"w1": dw1, "b1": db1}
    if nmem == 1:
        for name, ref in (("w2", w2), ("b2", b2), ("w3", w3), ("b3", b3),
                          ("w4", w4), ("b4", b4)):
            grads[name] = np.zeros_like(ref)
        return dx, grads
    dagg = df5
    v = _apply_map(x, w2, b2)
    q = _apply_map(x, w3, b3)
    k = _apply_map(x, w4, b4)
    dattn = dagg @ v.swapaxes(-1, -2)
    dv = attn.swapaxes(-1, -2) @ dagg
    dlog = attn * (dattn - (dattn * attn).sum(axis=-1, keepdims=True))
    dlog /= math.sqrt(d)
    dq = dlog @ k
    dk = dlog.swapaxes(-1, -2) @ q
    for name_w, name_b, dy5, w in (("w2", "b2", dv, w2), ("w3", "b3", dq, w3),
                                   ("w4", "b4", dk, w4)):
        dw, db, dxi = map_bwd(dy5, w)
        grads[name_w] = dw
        grads[name_b] = db
        dx += dxi
    return dx, grads


def _arrays_to_json(arrays: dict) -> dict:
    return {name: {"shape": list(arr.shape), "data": arr.ravel().tolist()}
            for name, arr in arrays.items()}


def write_checkpoint(model, path: str, fingerprint: dict | None = None,
                     extra_arrays: dict | None = None,
                     extra: dict | None = None) -> None:
    """The checkpoint document of `model.save_checkpoint`, dumped in one go."""
    doc = {
        "format_version": 1,
        "plan": {"sizes": list(model.plan.sizes), "heads": model.plan.heads},
        "norm": {"in_mean": model.norm.in_mean, "in_std": model.norm.in_std,
                 "out_mean": model.norm.out_mean, "out_std": model.norm.out_std},
        "fingerprint": fingerprint if fingerprint is not None else {},
        "params": _arrays_to_json(model.params),
    }
    if extra_arrays:
        doc["extra_arrays"] = _arrays_to_json(extra_arrays)
    if extra:
        doc["extra"] = extra
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, separators=(",", ":"))


SRC_DIR = Path(__file__).resolve().parent.parent / "src"


def fading_instance(num_aps: int, num_ues: int, seed: int,
                    morphology: str = "urban", index: int = 0) -> np.ndarray:
    """`channel.draw_fading` from the stream SeedSequence((seed, index))."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, index)))
    return draw_fading(num_aps, num_ues, morphology, rng)


def subprocess_env(**overrides: str) -> dict[str, str]:
    """os.environ plus `overrides`, with the checkout's `src` first on
    PYTHONPATH, so a child process imports this package without an install."""
    env = dict(os.environ, **overrides)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(SRC_DIR), os.environ.get("PYTHONPATH"))))
    return env


def feasibility_check(beta: np.ndarray, t: float) -> np.ndarray | None:
    """Allocation meeting SINR target t for every user, or None if infeasible.

    The decision is rigorous in both directions: a returned eta is rechecked
    against the exact SINR expression, and None is only reported once the
    barrier duality gap certifies that no allocation can reach t.
    """
    if t <= 0:
        raise ValueError("target t must be positive")
    beta = np.asarray(beta, dtype=float)
    alpha, rho_d = link(beta)
    probe = _margin_solve(np.sqrt(rho_d * alpha), rho_d * beta, t, NoCounter())
    return None if probe is None else probe[0]


def upper_bound_sinr(beta: np.ndarray) -> float:
    """max_k rho_d * (sum_m sqrt(alpha[m, k]))**2, an unreachable target."""
    alpha, rho_d = link(np.asarray(beta, dtype=float))
    return float(np.max(rho_d * np.sqrt(alpha).sum(axis=0) ** 2))


def sinr_cap(beta: np.ndarray) -> float:
    """`maxmin._sinr_cap` at beta: a worst-user SINR no allocation exceeds."""
    beta = np.asarray(beta, dtype=float)
    alpha, rho_d = link(beta)
    return _sinr_cap(np.sqrt(rho_d * alpha), rho_d * beta, NoCounter())


# ---------------------------------------------------------------------------
# Grid-search oracle
# ---------------------------------------------------------------------------

def _simplex_grid(k: int, g: int, lo: np.ndarray | None = None,
                  hi: np.ndarray | None = None) -> np.ndarray:
    """Integer grid points x in [lo, hi]^k with sum(x) <= g, as an (n, k) array."""
    lo_arr = np.zeros(k, dtype=np.int64) if lo is None else lo
    hi_arr = np.full(k, g, dtype=np.int64) if hi is None else hi
    lo_arr = np.maximum(lo_arr, 0)
    hi_arr = np.minimum(hi_arr, g)

    def rec(idx: int, budget: int) -> np.ndarray:
        remaining_min = int(lo_arr[idx + 1:].sum())
        top = min(int(hi_arr[idx]), budget - remaining_min)
        bottom = int(lo_arr[idx])
        if top < bottom:
            return np.empty((0, k - idx), dtype=np.int64)
        if idx == k - 1:
            vals = np.arange(bottom, top + 1, dtype=np.int64)
            return vals[:, None]
        parts = []
        for val in range(bottom, top + 1):
            rest = rec(idx + 1, budget - val)
            if rest.shape[0]:
                col = np.full((rest.shape[0], 1), val, dtype=np.int64)
                parts.append(np.concatenate([col, rest], axis=1))
        if not parts:
            return np.empty((0, k - idx), dtype=np.int64)
        return np.concatenate(parts, axis=0)

    return rec(0, g)


def _grid_search(beta: np.ndarray, lk: Link, row_cands: list[np.ndarray],
                 step: float, top: int = 1, chunk: int = 1 << 19
                 ) -> list[tuple[float, list[int]]]:
    """Maximise min-SINR over the cartesian product of per-row candidate grids.

    Rows are merged into two groups whose partial sums are materialised, then
    the cross product is scanned in chunks.  Returns the `top` best
    (value, per-row candidate indices) pairs in descending order.
    """
    m_ap, k_ue = beta.shape
    alpha, rho_d = lk
    counts = [c.shape[0] for c in row_cands]

    def merge(rows: list[int]) -> tuple[np.ndarray, np.ndarray]:
        gain = np.zeros((1, k_ue))
        intf = np.zeros((1, k_ue))
        for m in rows:
            eta_rows = row_cands[m] * step
            g_m = np.sqrt(alpha[m][None, :] * eta_rows)
            i_m = beta[m][None, :] * eta_rows.sum(axis=1, keepdims=True)
            gain = (gain[:, None, :] + g_m[None, :, :]).reshape(-1, k_ue)
            intf = (intf[:, None, :] + i_m[None, :, :]).reshape(-1, k_ue)
        return gain, intf

    best_split, best_cost = m_ap, float("inf")
    for split in range(1, m_ap + 1):
        a = int(np.prod(counts[:split], dtype=np.int64)) if split else 1
        b = int(np.prod(counts[split:], dtype=np.int64)) if split < m_ap else 1
        if max(a, b) * k_ue * 8 >= 2e8:
            continue
        cost = a + b
        if cost < best_cost:
            best_split, best_cost = split, cost
    gain_a, intf_a = merge(list(range(best_split)))
    if best_split < m_ap:
        gain_b, intf_b = merge(list(range(best_split, m_ap)))
    else:
        gain_b = np.zeros((1, k_ue))
        intf_b = np.zeros((1, k_ue))
    sizes_a = counts[:best_split]
    sizes_b = counts[best_split:]

    leaders: list[tuple[float, int]] = []  # (value, flat index over a*b)
    n_a, n_b = gain_a.shape[0], gain_b.shape[0]
    rows_per_chunk = max(1, chunk // n_b)
    for start in range(0, n_a, rows_per_chunk):
        ga = gain_a[start:start + rows_per_chunk]
        ia = intf_a[start:start + rows_per_chunk]
        gain = ga[:, None, :] + gain_b[None, :, :]
        intf = ia[:, None, :] + intf_b[None, :, :]
        sinr = rho_d * gain * gain / (1.0 + rho_d * intf)
        worst = sinr.min(axis=2).ravel()
        take = min(top, worst.size)
        part = np.argpartition(worst, worst.size - take)[worst.size - take:]
        for flat in part:
            leaders.append((float(worst[flat]), start * n_b + int(flat)))
        leaders.sort(key=lambda pair: -pair[0])
        del leaders[top:]

    def unflatten(flat: int, sizes: list[int]) -> list[int]:
        out = []
        for size in reversed(sizes):
            out.append(flat % size)
            flat //= size
        return list(reversed(out))

    results = []
    for val, flat in leaders:
        fa, fb = divmod(flat, n_b)
        results.append((val, unflatten(fa, sizes_a) + unflatten(fb, sizes_b)))
    return results


def brute_force_maxmin(beta: np.ndarray, grid_step: float = 0.01,
                       budget: int = 40_000_000,
                       refine_top: int = 8) -> MaxMinSolution:
    """Exhaustive grid-search oracle for small instances (M * K <= 6).

    Every row of eta ranges over the grid {0, grid_step, ..., 1}^K filtered
    to row sums at most 1.  When the full cartesian product fits within
    `budget` evaluations it is enumerated exactly.  Otherwise a coarse pass
    (5x the step) is followed by exhaustive fine passes restricted to a one
    coarse-cell window around each of the `refine_top` best coarse points;
    the worst-user SINR is quasiconcave over the feasible set in the
    square-root variables, which makes the coarse-to-fine scheme reliable,
    and the solver tests cross-check it.
    """
    beta = np.asarray(beta, dtype=float)
    m_ap, k_ue = beta.shape
    if m_ap * k_ue > 6:
        raise ValueError("brute force oracle is limited to M * K <= 6")
    lk = link(beta)
    alpha, rho_d = lk
    g = round(1.0 / grid_step)
    if abs(g * grid_step - 1.0) > 1e-9:
        raise ValueError(f"grid_step {grid_step} must divide 1 exactly")

    fine = _simplex_grid(k_ue, g)
    total = fine.shape[0] ** m_ap
    if total <= budget:
        cands = [fine] * m_ap
        (val, idx), = _grid_search(beta, lk, cands, grid_step, top=1)
        eta = np.stack([cands[m][idx[m]] * grid_step for m in range(m_ap)])
        sinr = compute_sinr(beta, alpha, eta, rho_d)
        return MaxMinSolution(t_star=val, eta=eta, sinr=sinr,
                              iterations=total, converged=True)

    coarse_factor = 5
    while (_simplex_grid(k_ue, g // coarse_factor).shape[0] ** m_ap) > budget:
        coarse_factor *= 2
        if g // coarse_factor < 1:
            raise ValueError("instance too large for the grid oracle budget")
    gc = g // coarse_factor
    window = g // gc
    coarse = _simplex_grid(k_ue, gc)
    cands_c = [coarse] * m_ap
    leaders = _grid_search(beta, lk, cands_c, 1.0 / gc, top=refine_top)

    best_val = leaders[0][0]
    best_eta = np.stack([coarse[leaders[0][1][m]] / gc for m in range(m_ap)])
    evals = coarse.shape[0] ** m_ap
    for _, idx_c in leaders:
        cands_f = []
        for m in range(m_ap):
            centre = coarse[idx_c[m]] * window
            cands_f.append(_simplex_grid(k_ue, g, lo=centre - window,
                                         hi=centre + window))
        evals += int(np.prod([c.shape[0] for c in cands_f], dtype=np.int64))
        (val, idx), = _grid_search(beta, lk, cands_f, grid_step, top=1)
        if val > best_val:
            best_val = val
            best_eta = np.stack([cands_f[m][idx[m]] * grid_step
                                 for m in range(m_ap)])
    sinr = compute_sinr(beta, alpha, best_eta, rho_d)
    return MaxMinSolution(t_star=best_val, eta=best_eta, sinr=sinr,
                          iterations=evals, converged=True)


def gnn_forward_flops(plan, num_aps: int, num_ues: int) -> FlopCounter:
    """Closed-form FLOPs of one forward pass plus projection.

    Written directly from the op definitions (not by calling the engine), so
    it cross-checks the instrumented counts.  Per transformer transition with
    widths n_in -> n_out, C heads of size d = n_out / C, and for each edge
    type with G groups of N members:

        four affine maps        4 * G*N * (2*n_in*n_out + n_out)
        attention logits        G*C*N^2 * (2d + 1)      (dot + scale)
        softmax                 G*C*N^2 * 4             (max-sub, exp, sum, div)
        weighted value sum      G*C*N^2 * 2d
        self + aggregate        G*N*n_out

    attention terms apply only when N > 1; singleton groups (M = 1 or
    K = 1) reduce to the self map alone, so only one affine map.  Both
    types together contribute the G*N^2 = MK(M + K) edge factor that gives
    the O(MK(M+K)) scaling.  Layer norm costs (7*n_out + 4) adds+muls per
    node, the two-type sum n_out adds, the output map 2*n_last + 1 per node,
    and the projection denormalises every entry and renormalises every row
    once with a second verification pass of row sums.
    """
    counter = FlopCounter()
    m, k = num_aps, num_ues
    nodes = m * k
    heads = plan.heads
    for t in range(plan.transformer_transitions):
        n_in, n_out = plan.sizes[t], plan.sizes[t + 1]
        d = plan.head_dim(t)
        for grp, nmem in ((m, k), (k, m)):
            maps = 4 if nmem > 1 else 1   # singleton groups need only the self map
            counter.multiplies += maps * grp * nmem * n_in * n_out
            counter.adds += maps * grp * nmem * (n_in * n_out + n_out)
            if nmem > 1:
                pairs = grp * heads * nmem * nmem
                counter.multiplies += pairs * (d + 1)       # logit dots, scale
                counter.adds += pairs * d
                counter.multiplies += pairs * 2             # exp, divide
                counter.adds += pairs * 2                   # max-sub, sum
                counter.multiplies += pairs * d             # value weighting
                counter.adds += pairs * d
                counter.adds += grp * nmem * n_out          # self + aggregate
        counter.adds += nodes * n_out                       # f_ap + f_ue
        counter.multiplies += nodes * (3 * n_out + 3)       # layer norm
        counter.adds += nodes * (4 * n_out + 1)
    n_last = plan.sizes[-2]
    counter.multiplies += nodes * n_last                    # output map
    counter.adds += nodes * (n_last + 1)
    counter.multiplies += 2 * nodes                         # denorm scale, exp2
    counter.adds += nodes                                   # denorm shift
    counter.adds += 2 * nodes                               # two row-sum passes
    counter.multiplies += m + nodes                         # row renormalise
    return counter
