"""Operation-count bookkeeping and the closed-form inference cost model."""

import numpy as np
import pytest

from cfgnn.engine import count_flops
from cfgnn.flops import FlopCounter
from cfgnn.model import LayerPlan
from oracle import gnn_forward_flops


def test_counter_primitives():
    c = FlopCounter()
    c.mul(3)
    c.add(4)
    assert (c.multiplies, c.adds, c.total) == (3, 4, 7)
    c = FlopCounter()
    c.dot(5)              # length-5 dot: 5 muls + 5 adds
    assert (c.multiplies, c.adds) == (5, 5)
    c = FlopCounter()
    c.matmul(2, 3, 4)     # 8 dots of length 3
    assert (c.multiplies, c.adds) == (24, 24)
    c = FlopCounter()
    c.linear(2, 3, 4)     # matmul plus bias adds
    assert (c.multiplies, c.adds) == (24, 32)
    c = FlopCounter()
    c.solve_lu(3, rhs=2)
    assert c.multiplies == 9 + 18
    assert c.adds == 9 + 18


def test_analytic_count_positive_and_monotone():
    plan = LayerPlan()
    small = gnn_forward_flops(plan, 2, 2).total
    large = gnn_forward_flops(plan, 8, 4).total
    assert 0 < small < large


def test_instrumented_matches_analytic_within_one_percent():
    for m, k in [(2, 2), (4, 3), (8, 5), (16, 2), (1, 8), (8, 1), (32, 9)]:
        inst = count_flops(m, k)
        analytic = gnn_forward_flops(LayerPlan(), m, k).total
        rel = abs(inst - analytic) / inst
        assert rel < 0.01, f"({m},{k}): inst {inst} analytic {analytic} rel {rel:.2e}"


def test_counts_scale_with_edge_term():
    """Totals grow like M*K*(M+K) when sizes double."""
    base = gnn_forward_flops(LayerPlan(), 8, 4).total
    double_m = gnn_forward_flops(LayerPlan(), 16, 4).total
    # edge term dominates; ratio should sit between the node ratio (2) and
    # the pure quadratic AP-pair ratio (4)
    assert 2.0 < double_m / base < 4.5


def test_smallest_instance_runs():
    total = count_flops(1, 1)
    assert total > 0
    assert np.isfinite(total)
