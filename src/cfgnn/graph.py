"""Heterogeneous graph over (AP, user) pairs.

Each of the M*K large-scale fading coefficients becomes one node, kept at
grid position (m, k).  Two typed edge families connect the nodes:

    * "UE" edges join nodes that share the same user k (M - 1 neighbours),
    * "AP" edges join nodes that share the same AP m (K - 1 neighbours).

There are no self-loops.  Relabelling APs or users permutes the node set
but leaves this structure invariant, which is what gives the downstream
network its permutation equivariance.  Because every neighbourhood is a
full grid row or column, the batched engine needs only (M, K); the graph
record carries nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class HeteroGraph:
    """Grid size of an (M, K) scenario graph."""

    num_aps: int
    num_ues: int


def build_graph(num_aps: int, num_ues: int) -> HeteroGraph:
    """The graph of an (M, K) scenario."""
    if num_aps < 1 or num_ues < 1:
        raise ValueError("num_aps and num_ues must be >= 1")
    return HeteroGraph(num_aps=num_aps, num_ues=num_ues)
