"""Per-node reference of the graph transformer, the test oracle for the engine.

The package computes each transition as dense attention over grid rows and
columns.  This module spells the same arithmetic out node by node over
explicit neighbour lists: node (m, k) sits at flat index m * K + k
(row-major), its "UE" neighbours are the nodes that share user k and its
"AP" neighbours the nodes that share AP m, with no self-loops.  It is slow
and exists only so that tests can hold the batched engine to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from cfgnn.engine import LN_EPS
from cfgnn.model import EDGE_TYPES, GnnModel


@dataclass(frozen=True)
class NeighborGraph:
    """Fixed-degree neighbour lists for the two edge types."""

    num_aps: int
    num_ues: int
    ue_neighbors: np.ndarray  # (M*K, M-1) flat indices of same-user nodes
    ap_neighbors: np.ndarray  # (M*K, K-1) flat indices of same-AP nodes

    @property
    def num_nodes(self) -> int:
        return self.num_aps * self.num_ues


def node_index(m: int, k: int, num_aps: int, num_ues: int) -> int:
    """Flat index of node (m, k); validates ranges."""
    if not 0 <= m < num_aps:
        raise ValueError(f"AP index {m} out of range [0, {num_aps})")
    if not 0 <= k < num_ues:
        raise ValueError(f"user index {k} out of range [0, {num_ues})")
    return m * num_ues + k


def node_pair(index: int, num_aps: int, num_ues: int) -> tuple[int, int]:
    """Inverse of node_index."""
    if not 0 <= index < num_aps * num_ues:
        raise ValueError(f"node index {index} out of range [0, {num_aps * num_ues})")
    return divmod(index, num_ues)


def neighbor_graph(num_aps: int, num_ues: int) -> NeighborGraph:
    """Typed neighbour lists for an (M, K) scenario."""
    if num_aps < 1 or num_ues < 1:
        raise ValueError("num_aps and num_ues must be >= 1")
    m_of = np.arange(num_aps * num_ues) // num_ues
    k_of = np.arange(num_aps * num_ues) % num_ues

    # Same user, different AP: for node (m, k) the neighbours are (m', k).
    all_m = np.arange(num_aps)
    ue_nbrs = np.empty((num_aps * num_ues, max(num_aps - 1, 0)), dtype=np.int64)
    for i in range(num_aps * num_ues):
        others = all_m[all_m != m_of[i]]
        ue_nbrs[i] = others * num_ues + k_of[i]

    # Same AP, different user: for node (m, k) the neighbours are (m, k').
    all_k = np.arange(num_ues)
    ap_nbrs = np.empty((num_aps * num_ues, max(num_ues - 1, 0)), dtype=np.int64)
    for i in range(num_aps * num_ues):
        others = all_k[all_k != k_of[i]]
        ap_nbrs[i] = m_of[i] * num_ues + others

    return NeighborGraph(num_aps=num_aps, num_ues=num_ues,
                         ue_neighbors=ue_nbrs, ap_neighbors=ap_nbrs)


@dataclass(frozen=True)
class HeadView:
    """Per-head read views of one (layer, edge type) parameter block."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    w3: np.ndarray
    b3: np.ndarray
    w4: np.ndarray
    b4: np.ndarray


def head_params(model: GnnModel, t: int, edge_type: str, head: int) -> HeadView:
    if edge_type not in EDGE_TYPES:
        raise ValueError(f"edge_type must be one of {EDGE_TYPES}")
    prefix = f"layer{t:02d}.{edge_type}"
    return HeadView(*(model.params[f"{prefix}.{name}"][head]
                      for name in ("w1", "b1", "w2", "b2", "w3", "b3", "w4", "b4")))


def attention_weights(h_i: np.ndarray, h_neighbors: np.ndarray,
                      w3: np.ndarray, b3: np.ndarray, w4: np.ndarray,
                      b4: np.ndarray) -> np.ndarray:
    """Softmax attention of node i over its neighbours for one head.

    Weights are exp(<query_i, key_j> / sqrt(d)) normalised over j, computed
    with max subtraction.
    """
    if h_neighbors.shape[0] == 0:
        raise ValueError("attention requires a non-empty neighborhood")
    d = w3.shape[0]
    query = w3 @ h_i + b3
    keys = h_neighbors @ w4.T + b4
    logits = keys @ query / math.sqrt(d)
    logits = logits - logits.max()
    ex = np.exp(logits)
    return ex / ex.sum()


def typed_aggregate(node: int, features: np.ndarray, graph: NeighborGraph,
                    edge_type: str, model: GnnModel, t: int) -> np.ndarray:
    """Reference aggregate for one node and edge type: per head,
    L1(h_i) + sum_j alpha(i, j) L2(h_j), heads concatenated."""
    if edge_type == "ap":
        neighbors = graph.ap_neighbors[node]
    elif edge_type == "ue":
        neighbors = graph.ue_neighbors[node]
    else:
        raise ValueError(f"unknown edge type {edge_type!r}")
    h_i = features[node]
    pieces = []
    for head in range(model.plan.heads):
        hp = head_params(model, t, edge_type, head)
        out = hp.w1 @ h_i + hp.b1
        if neighbors.shape[0] > 0:
            h_n = features[neighbors]
            weights = attention_weights(h_i, h_n, hp.w3, hp.b3, hp.w4, hp.b4)
            values = h_n @ hp.w2.T + hp.b2
            out = out + weights @ values
        pieces.append(out)
    return np.concatenate(pieces)


def layer_forward(graph: NeighborGraph, features: np.ndarray, model: GnnModel,
                  t: int) -> np.ndarray:
    """Reference transition: LayerNorm(ReLU(f_ap + f_ue)) per node."""
    n_out = model.plan.sizes[t + 1]
    if features.shape != (graph.num_nodes, model.plan.sizes[t]):
        raise ValueError(f"features shape {features.shape} does not match "
                         f"({graph.num_nodes}, {model.plan.sizes[t]})")
    gain = model.params[f"layer{t:02d}.ln_gain"]
    bias = model.params[f"layer{t:02d}.ln_bias"]
    out = np.empty((graph.num_nodes, n_out))
    for i in range(graph.num_nodes):
        z = (typed_aggregate(i, features, graph, "ap", model, t)
             + typed_aggregate(i, features, graph, "ue", model, t))
        a = np.maximum(z, 0.0)
        mu = a.mean()
        var = ((a - mu) ** 2).mean()
        xhat = (a - mu) / math.sqrt(var + LN_EPS)
        out[i] = xhat * gain + bias
    return out


def forward_reference(graph: NeighborGraph, x: np.ndarray,
                      model: GnnModel) -> np.ndarray:
    """Per-node forward pass; slow, used to validate the batched kernel."""
    h = x.reshape(graph.num_nodes, 1)
    for t in range(model.plan.transformer_transitions):
        h = layer_forward(graph, h, model, t)
    y = h @ model.params["out.w"][0] + model.params["out.b"][0]
    return y.reshape(graph.num_aps, graph.num_ues)
