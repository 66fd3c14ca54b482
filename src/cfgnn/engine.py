"""Graph-transformer forward/backward passes and the power projection.

The node grid is kept as an (S, M, K, n) tensor (batch, AP, user, feature),
which makes both edge types dense attention over one axis:

    * AP-type edges join nodes in the same row m: attention over axis K,
    * UE-type edges join nodes in the same column k: attention over axis M
      (the same kernel applied to the axis-swapped tensor).

Per transition and type, four linear maps with stacked heads produce the
self, value, query and key tensors; scaled dot-product attention over the
group members (diagonal masked out, no self-loops) weights the values; the
self term plus the attention sum, concatenated over heads, gives the typed
aggregate.  The two typed aggregates are summed, passed through ReLU and
layer norm.  A final linear map emits one scalar per node, interpreted as
the normalized log2 power.

The test suite holds this batched path to a slow per-node reference of the
same arithmetic.  The backward pass consumes the tape recorded by
`forward` and returns exact reverse-mode gradients for every parameter.
The tape, {"x", "layers"}, keeps only what backward cannot rebuild bit for
bit: the network input and, per transition, the two attention matrices,
the layer norm's xhat and inverse deviation, and the ReLU mask as booleans.
Backward rebuilds each transition's input from the previous xhat with the
layer norm's own `xhat * gain + bias`, and the value, query and key tensors
from that input with the forward's own affine maps: the same operands,
layouts and GEMM shapes, so the same bits.

Every kernel reports its FLOPs to a counter using the conventions of
`flops`: counts reflect what the vectorised code executes, including the
masked diagonal entries of the attention blocks.  An uncounted call runs
the same statements against a `flops.NoCounter`.
"""

from __future__ import annotations

import math

import numpy as np

from .data import NormStats, denormalize_output
from .flops import FlopCounter, counting
from .graph import HeteroGraph, build_graph
from .model import MAP_NAMES, GnnModel, init_model

LN_EPS = 1e-5
_MASK_VALUE = -1e30


def _type_arrays(model: GnnModel, t: int, edge_type: str) -> tuple:
    """The eight map arrays of one transition and edge type, in MAP_NAMES order."""
    prefix = f"layer{t:02d}.{edge_type}"
    return tuple(model.params[f"{prefix}.{name}"] for name in MAP_NAMES)


# ---------------------------------------------------------------------------
# Batched fast path
# ---------------------------------------------------------------------------

def _apply_map(x_flat: np.ndarray, w: np.ndarray, b: np.ndarray,
               lead: tuple[int, int, int]) -> np.ndarray:
    """(S*G*N, n_in) -> (S, G, C, N, d) head-major affine map; lead = (S, G, N)."""
    c, d, n_in = w.shape
    flat = x_flat @ w.reshape(c * d, n_in).T + b.reshape(-1)
    return flat.reshape(*lead, c, d).transpose(0, 1, 3, 2, 4)


def _row_max(a: np.ndarray) -> np.ndarray:
    """`a.max(axis=-1, keepdims=True)` by a halving tree of `np.maximum`.

    A max has one right answer in any order, so the bits are the
    reduction's; the tree takes log2(N) whole-array calls where the
    reduction loops once per short row.  (Only a zero max could differ,
    in its sign, and subtracting either zero gives `exp` the same values.)
    """
    m = a
    while (n := m.shape[-1]) > 1:
        m = np.maximum(m[..., :(n + 1) // 2], m[..., n // 2:])
    return m


def _typed_block(x: np.ndarray, arrays: tuple,
                 counter: FlopCounter) -> tuple[np.ndarray, np.ndarray | None]:
    """Typed attention aggregate on group layout (S, G, N, n_in).

    Returns the aggregate and the attention matrix (None for one-member
    groups), which is all the backward pass keeps.  The input is flattened
    once for all four maps (for the UE type it is the axis-swapped tensor,
    so the flatten is a copy), and the softmax runs in place on the logits.
    """
    w1, b1, w2, b2, w3, b3, w4, b4 = arrays
    s, g, nmem, n_in = x.shape
    c, d, _ = w1.shape
    x_flat = x.reshape(-1, n_in)
    lead = (s, g, nmem)
    sv = _apply_map(x_flat, w1, b1, lead)
    counter.linear(s * g * nmem, n_in, c * d)
    if nmem == 1:
        out5 = sv
        attn = None
    else:
        v = _apply_map(x_flat, w2, b2, lead)
        q = _apply_map(x_flat, w3, b3, lead)
        k = _apply_map(x_flat, w4, b4, lead)
        counter.linear(3 * s * g * nmem, n_in, c * d)
        attn = q @ k.swapaxes(-1, -2)
        attn /= math.sqrt(d)
        counter.dot(d, s * g * c * nmem * nmem)
        counter.mul(s * g * c * nmem * nmem)
        idx = np.arange(nmem)
        attn[..., idx, idx] = _MASK_VALUE
        attn -= _row_max(attn)
        np.exp(attn, out=attn)
        attn /= attn.sum(axis=-1, keepdims=True)
        counter.add(2 * s * g * c * nmem * nmem)       # max-subtract, sum
        counter.mul(2 * s * g * c * nmem * nmem)       # exp, divide
        out5 = attn @ v
        counter.dot(nmem, s * g * c * nmem * d)
        out5 += sv
        counter.add(s * g * nmem * c * d)
    out = out5.transpose(0, 1, 3, 2, 4).reshape(s, g, nmem, c * d)
    return out, attn


def _layer_norm(a: np.ndarray, gain: np.ndarray, bias: np.ndarray,
                counter: FlopCounter) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-node layer norm; returns (output, xhat, inv_std)."""
    n = a.shape[-1]
    nodes = a.size // n
    mu = a.mean(axis=-1, keepdims=True)
    cent = a - mu
    var = (cent * cent).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat = cent * inv
    out = xhat * gain + bias
    # Adds: mean and variance accumulation, centring, + eps, bias.  Muls:
    # squares, xhat, gain, the two divides by n, sqrt and reciprocal.
    counter.add(nodes * (4 * n + 1))
    counter.mul(nodes * (3 * n + 4))
    return out, xhat, inv


def forward(graph: HeteroGraph, x: np.ndarray, model: GnnModel,
            counter: FlopCounter | None = None, want_tape: bool = False):
    """Raw (normalized log-domain) node outputs for one or many samples.

    x is the normalized log2 fading matrix, shape (M, K) or (S, M, K);
    the output has the same leading shape.  With want_tape, also returns
    the tape `backward` consumes: "x", the (S, M, K) input (S = 1 for an
    (M, K) call), and "layers", per transition the AP-type (S, M, C, K, K)
    and UE-type (S, K, C, M, M) attention ("ap", "ue"; None for a one-member
    group), the layer norm's xhat and inverse deviation ("xhat", "inv"),
    and the ReLU mask `z > 0` ("relu").  The value, query and key tensors
    and each transition's input are recomputed in backward.
    """
    counter = counting(counter)
    x = np.asarray(x, dtype=float)
    single = x.ndim == 2
    if single:
        x = x[None]
    if x.ndim != 3 or x.shape[1] != graph.num_aps or x.shape[2] != graph.num_ues:
        raise ValueError(f"features {x.shape} do not match graph "
                         f"({graph.num_aps}, {graph.num_ues})")
    s, m, k = x.shape
    h = x[..., None]
    layers = []
    for t in range(model.plan.transformer_transitions):
        f_ap, attn_ap = _typed_block(h, _type_arrays(model, t, "ap"), counter)
        f_ue_g, attn_ue = _typed_block(h.swapaxes(1, 2),
                                       _type_arrays(model, t, "ue"), counter)
        z = f_ap + f_ue_g.swapaxes(1, 2)
        counter.add(z.size)
        a = np.maximum(z, 0.0)
        gain = model.params[f"layer{t:02d}.ln_gain"]
        bias = model.params[f"layer{t:02d}.ln_bias"]
        h, xhat, inv = _layer_norm(a, gain, bias, counter)
        if want_tape:
            layers.append({"ap": attn_ap, "ue": attn_ue, "relu": z > 0.0,
                           "xhat": xhat, "inv": inv})
    out_w = model.params["out.w"]
    out_b = model.params["out.b"]
    y = h @ out_w[0] + out_b[0]
    counter.linear(s * m * k, out_w.shape[1], 1)
    if single:
        y = y[0]
    if want_tape:
        return y, {"x": x, "layers": layers}
    return y


# ---------------------------------------------------------------------------
# Backward pass
# ---------------------------------------------------------------------------

def _typed_block_bwd(df: np.ndarray, x: np.ndarray, arrays: tuple,
                     attn: np.ndarray | None
                     ) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Gradient of one typed block.  df: (S, G, N, c*d) upstream; x and
    attn: the block's forward input and attention.  The value, query and
    key tensors are recomputed from x by the forward's own maps, each just
    before its one use."""
    w1, b1, w2, b2, w3, b3, w4, b4 = arrays
    s, g, nmem, n_in = x.shape
    c, d, _ = w1.shape
    x_flat = x.reshape(-1, n_in)
    lead = (s, g, nmem)
    grads = {}

    def map_bwd(dy5: np.ndarray, w: np.ndarray, name: str) -> np.ndarray:
        """Store the map's weight and bias gradients; return its dx."""
        dy_flat = dy5.transpose(0, 1, 3, 2, 4).reshape(-1, c * d)
        grads[f"w{name}"] = (dy_flat.T @ x_flat).reshape(c, d, n_in)
        grads[f"b{name}"] = dy_flat.sum(axis=0).reshape(c, d)
        return (dy_flat @ w.reshape(c * d, n_in)).reshape(s, g, nmem, n_in)

    dagg = df.reshape(s, g, nmem, c, d).transpose(0, 1, 3, 2, 4)
    dx = map_bwd(dagg, w1, "1")
    if nmem == 1:
        for name, ref in zip(MAP_NAMES[2:], arrays[2:]):
            grads[name] = np.zeros_like(ref)
        return dx, grads
    dx += map_bwd(attn.swapaxes(-1, -2) @ dagg, w2, "2")
    # Softmax backward in place on dattn = dagg @ v':
    # dlog = (dattn - rowsum(dattn * attn)) * attn / sqrt(d).
    dlog = dagg @ _apply_map(x_flat, w2, b2, lead).swapaxes(-1, -2)
    dlog -= (dlog * attn).sum(axis=-1, keepdims=True)
    dlog *= attn
    dlog /= math.sqrt(d)
    dx += map_bwd(dlog @ _apply_map(x_flat, w4, b4, lead), w3, "3")
    dx += map_bwd(dlog.swapaxes(-1, -2) @ _apply_map(x_flat, w3, b3, lead),
                  w4, "4")
    return dx, grads


def backward(model: GnnModel, tape: dict, dy: np.ndarray
             ) -> dict[str, np.ndarray]:
    """Gradients of a scalar loss per parameter name, given dL/d(raw output).

    dy has the shape of the forward output ((M, K) or (S, M, K)); it is
    read in the tape input's (S, M, K) shape.
    """
    dy = dy.reshape(tape["x"].shape)
    layers = tape["layers"]

    def layer_input(t: int) -> np.ndarray:
        """The forward's h entering transition t (t = T: the last output)."""
        if t == 0:
            return tape["x"][..., None]
        p = f"layer{t - 1:02d}"
        return layers[t - 1]["xhat"] * model.params[f"{p}.ln_gain"] \
            + model.params[f"{p}.ln_bias"]

    grads: dict[str, np.ndarray] = {}
    h_last = layer_input(len(layers))
    n_last = h_last.shape[-1]
    dy_flat = dy.reshape(-1)
    grads["out.w"] = (dy_flat @ h_last.reshape(-1, n_last))[None, :]
    grads["out.b"] = np.array([dy_flat.sum()])
    dh = dy[..., None] * model.params["out.w"][0]
    del h_last

    for t in reversed(range(len(layers))):
        entry = layers[t]
        gain = model.params[f"layer{t:02d}.ln_gain"]
        xhat, inv = entry["xhat"], entry["inv"]
        grads[f"layer{t:02d}.ln_gain"] = np.einsum("smkn,smkn->n", dh, xhat)
        grads[f"layer{t:02d}.ln_bias"] = dh.sum(axis=(0, 1, 2))
        dxh = dh * gain
        m1 = dxh.mean(axis=-1, keepdims=True)
        m2 = (dxh * xhat).mean(axis=-1, keepdims=True)
        dz = inv * (dxh - m1 - xhat * m2)
        del dh, dxh
        dz *= entry["relu"]
        h = layer_input(t)
        dx_ap, g_ap = _typed_block_bwd(dz, h, _type_arrays(model, t, "ap"),
                                       entry["ap"])
        dx_ue, g_ue = _typed_block_bwd(dz.swapaxes(1, 2), h.swapaxes(1, 2),
                                       _type_arrays(model, t, "ue"),
                                       entry["ue"])
        del dz, h
        dh = dx_ap + dx_ue.swapaxes(1, 2)
        del dx_ap, dx_ue
        for name, val in g_ap.items():
            grads[f"layer{t:02d}.ap.{name}"] = val
        for name, val in g_ue.items():
            grads[f"layer{t:02d}.ue.{name}"] = val
    return grads


# ---------------------------------------------------------------------------
# Projection onto the power constraints
# ---------------------------------------------------------------------------

def project_powers(raw: np.ndarray, norm: NormStats,
                   counter: FlopCounter | None = None) -> np.ndarray:
    """Denormalize raw outputs to powers and enforce the per-AP budget.

    eta = 2^(raw * std + mean), which is non-negative for finite raw, then
    any AP row whose sum exceeds 1 is divided by its sum, repeating until
    every row budget holds exactly (a second pass only fires on last-ulp
    rounding leftovers).  Raw outputs that are not finite, or whose powers
    overflow to infinity, raise ValueError.
    """
    counter = counting(counter)
    raw = np.asarray(raw, dtype=float)
    if not np.all(np.isfinite(raw)):
        raise ValueError("raw outputs must be finite")
    eta = denormalize_output(raw, norm)
    if not np.all(np.isfinite(eta)):
        raise ValueError("raw outputs overflow to infinite powers")
    counter.mul(2 * raw.size)   # scale by std, exp2
    counter.add(raw.size)       # shift by mean
    for _ in range(100):
        sums = eta.sum(axis=-1)
        counter.add(eta.size)
        mask = sums > 1.0
        if not np.any(mask):
            return eta
        inv = 1.0 / sums[mask]
        eta[mask] = eta[mask] * inv[:, None]
        counter.mul(inv.size * (1 + eta.shape[-1]))    # 1 / sums, rescale
    raise RuntimeError("row renormalization did not settle in 100 passes")


# ---------------------------------------------------------------------------
# FLOP accounting entry point
# ---------------------------------------------------------------------------

def count_flops(num_aps: int, num_ues: int,
                model: GnnModel | None = None) -> int:
    """FLOPs of one forward pass plus projection at the given size.

    Runs the batched kernels on a seeded random input with a counter
    attached (default model: a fresh seed-0 network).  The test suite's
    closed form in `tests/oracle.py` agrees within 1%; the only
    data-dependent term is how many AP rows the projection renormalises.
    """
    if model is None:
        model = init_model(seed=0)
    graph = build_graph(num_aps, num_ues)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((num_aps, num_ues))
    counter = FlopCounter()
    y = forward(graph, x, model, counter=counter)
    project_powers(y, model.norm, counter=counter)
    return counter.total
