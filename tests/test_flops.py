"""Operation-count bookkeeping and the closed-form inference cost model."""

import numpy as np
import pytest

from cfgnn import engine
from cfgnn.engine import backward, count_flops, forward, project_powers
from cfgnn.eval import flop_comparison
from cfgnn.flops import FlopCounter, NoCounter
from cfgnn.graph import build_graph
from cfgnn.maxmin import solve_maxmin
from cfgnn.model import LayerPlan, init_model
from oracle import fading_instance, gnn_forward_flops


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


def test_no_counter_keeps_no_tallies():
    c = NoCounter()
    c.mul(3)
    c.add(4)
    c.dot(5)
    c.matmul(2, 3, 4)
    c.linear(2, 3, 4)
    c.solve_lu(3, rhs=2)
    assert (c.multiplies, c.adds) == (0, 0)


def test_no_counter_overrides_only_the_two_primitives():
    """Every compound tally goes through `mul` and `add`, so silencing those
    two silences them all."""
    assert {name for name in vars(NoCounter) if not name.startswith("__")} \
        == {"mul", "add"}


def test_tallies_stay_python_ints(monkeypatch):
    """The benchmark JSON-dumps span counts, which a numpy integer would
    break: every tally stays an int after a count_flops, a counted batched
    forward plus projection, and a counted 32x9 solve."""
    counters = []

    class Recording(FlopCounter):
        def __init__(self):
            super().__init__()
            counters.append(self)

    monkeypatch.setattr(engine, "FlopCounter", Recording)
    assert type(count_flops(32, 9)) is int
    model = init_model(seed=1)
    rng = np.random.default_rng(1)
    counters.append(FlopCounter())
    y = forward(build_graph(8, 3), rng.standard_normal((4, 8, 3)), model,
                counter=counters[-1])
    project_powers(y, model.norm, counter=counters[-1])
    counters.append(FlopCounter())
    solve_maxmin(fading_instance(32, 9, 2), counter=counters[-1])
    assert len(counters) == 3
    for counter in counters:
        assert counter.total > 0
        assert [type(v) for v in (counter.multiplies, counter.adds,
                                  counter.total)] == [int, int, int]


def test_flop_tallies_are_pinned():
    """Exact tallies of the network (forward plus projection) and of the
    solver on `flop_comparison`'s instances.  Moving one changes what is
    counted or what runs, and needs a record of the old and new value."""
    assert [count_flops(m, k) for m, k in ((8, 3), (32, 9), (128, 32))] == \
        [956244, 16676116, 530600427]
    assert flop_comparison(8, 3) == (956244, 3724501)
    assert flop_comparison(32, 9) == (16676116, 179293595)


@pytest.mark.parametrize("m, k", [(8, 3), (32, 9)])
def test_counting_does_not_change_network_bytes(m, k):
    """forward, backward and project_powers give the same bytes with a
    counter as without, for a batch and for one sample."""
    model = init_model(seed=m * k)
    graph = build_graph(m, k)
    rng = np.random.default_rng(m * k)
    x = rng.standard_normal((4, m, k))
    dy = rng.standard_normal((4, m, k))
    for xs, dys in ((x, dy), (x[0], dy[0])):
        runs = []
        for counter in (None, FlopCounter()):
            y, tape = forward(graph, xs, model, counter=counter, want_tape=True)
            runs.append([y, forward(graph, xs, model, counter=counter),
                         project_powers(y, model.norm, counter=counter),
                         *backward(model, tape, dys).values()])
        assert counter.total > 0
        assert [a.tobytes() for a in runs[0]] == [b.tobytes() for b in runs[1]]


@pytest.mark.parametrize("m, k, seed", [(8, 3, 1), (16, 5, 7)])
def test_counting_does_not_change_solver_bytes(m, k, seed):
    """An 8x3 draw takes the dense Newton step, a 16x5 one the structured."""
    beta = fading_instance(m, k, seed)
    counter = FlopCounter()
    counted = solve_maxmin(beta, counter=counter)
    plain = solve_maxmin(beta)
    assert counter.total > 0
    assert counted.eta.tobytes() == plain.eta.tobytes()
    assert counted.sinr.tobytes() == plain.sinr.tobytes()
    assert (counted.t_star, counted.iterations) == \
        (plain.t_star, plain.iterations)


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
