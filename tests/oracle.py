"""Straightforward references that the optimised program is held to bit for bit.

* `dense_newton_system`: the solver's barrier Newton system, the oracle for
  `maxmin._newton_direction`.  The solver assembles the (MK+1)^2 Hessian in
  place in a workspace it reuses across Newton systems.  This builds the
  same system the obvious way, from fresh arrays: zeros, then the per-entry
  diagonal, then += V'V, then -= P'P, then one ball block per AP in a
  Python loop.  Float addition commutes, so each entry receives the same
  sums and the two must agree bit for bit.
* `typed_block` / `typed_block_bwd`: the engine's typed attention block,
  forward and backward, with a fresh temporary for every softmax step and
  one input flatten per affine map; the oracle for `engine._typed_block`
  and `engine._typed_block_bwd`, which work in place.
* `write_checkpoint`: the whole checkpoint document built in memory and
  written with `json.dump`; the oracle for the streamed
  `model.save_checkpoint`.
"""

from __future__ import annotations

import json
import math

import numpy as np

from cfgnn.engine import _MASK_VALUE


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


def _apply_map(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    s, g, nmem, n_in = x.shape
    c, d, _ = w.shape
    flat = x.reshape(-1, n_in) @ w.reshape(c * d, n_in).T + b.reshape(-1)
    return flat.reshape(s, g, nmem, c, d).transpose(0, 1, 3, 2, 4)


def typed_block(x: np.ndarray, arrays: tuple, counter) -> tuple:
    """(output, tape) of one typed block on group layout (S, G, N, n_in)."""
    w1, b1, w2, b2, w3, b3, w4, b4 = arrays
    s, g, nmem, n_in = x.shape
    c, d, _ = w1.shape
    sv = _apply_map(x, w1, b1)
    if counter is not None:
        counter.linear(s * g * nmem, n_in, c * d)
    if nmem == 1:
        out5 = sv
        tape = (x, None, None, None, None)
    else:
        v = _apply_map(x, w2, b2)
        q = _apply_map(x, w3, b3)
        k = _apply_map(x, w4, b4)
        if counter is not None:
            counter.linear(s * g * nmem, n_in, c * d)
            counter.linear(s * g * nmem, n_in, c * d)
            counter.linear(s * g * nmem, n_in, c * d)
        logits = (q @ k.swapaxes(-1, -2)) / math.sqrt(d)
        if counter is not None:
            counter.dot(d, s * g * c * nmem * nmem)
            counter.mul(s * g * c * nmem * nmem)
        idx = np.arange(nmem)
        logits[..., idx, idx] = _MASK_VALUE
        mx = logits.max(axis=-1, keepdims=True)
        ex = np.exp(logits - mx)
        total = ex.sum(axis=-1, keepdims=True)
        attn = ex / total
        if counter is not None:
            counter.add(2 * s * g * c * nmem * nmem)
            counter.mul(2 * s * g * c * nmem * nmem)
        agg = attn @ v
        if counter is not None:
            counter.dot(nmem, s * g * c * nmem * d)
        out5 = sv + agg
        if counter is not None:
            counter.add(s * g * nmem * c * d)
        tape = (x, q, k, v, attn)
    out = out5.transpose(0, 1, 3, 2, 4).reshape(s, g, nmem, c * d)
    return out, tape


def typed_block_bwd(df: np.ndarray, arrays: tuple, tape: tuple) -> tuple:
    """(dx, grads) of one typed block; df is the (S, G, N, c*d) upstream."""
    w1, b1, w2, b2, w3, b3, w4, b4 = arrays
    x, q, k, v, attn = tape
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
