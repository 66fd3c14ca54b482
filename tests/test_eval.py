"""Pooled spectral-efficiency CDFs, percentile losses, and CSV artifacts."""

import csv
import dataclasses

import numpy as np
import pytest

from cfgnn.eval import (
    METHODS,
    EvalReport,
    evaluate,
    export_cdf_csv,
    export_summary_csv,
    flop_comparison,
    scenario_tag,
)
from cfgnn.sinr import spectral_efficiency


def test_evaluate_self_comparison_is_zero_loss(labeled_4x2):
    """A perfect predictor has zero loss at every percentile by definition;
    checked here through the raw percentile math on the pooled optimal SEs."""
    se = np.sort(np.concatenate(
        [spectral_efficiency(np.asarray(s.sinr_opt)) for s in labeled_4x2]))
    report = EvalReport(scenario="self", se_sorted={m: se for m in METHODS},
                        loss_at_median=0.0, likely95_loss=0.0)
    for q in (5.0, 50.0, 95.0):
        assert np.percentile(report.se_sorted["optimal"], q) == \
               np.percentile(report.se_sorted["gnn"], q)


def test_evaluate_real_model(tiny_run, labeled_4x2):
    report = evaluate(tiny_run["model"], labeled_4x2)
    assert report.scenario == scenario_tag(4, 2, "urban")
    n = len(labeled_4x2) * 2
    for method in METHODS:
        assert report.se_sorted[method].shape == (n,)
        assert np.all(np.diff(report.se_sorted[method]) >= 0)
    assert np.isfinite(report.loss_at_median)
    # the trained model cannot beat the optimum at the median
    assert report.loss_at_median >= 0
    # worst-case SINR of the model never exceeds the optimal one per sample
    assert report.likely95_loss >= -1e-9


def test_equal_power_loses_to_optimal(labeled_8x3, tiny_run):
    """At tiny sizes the pooled median can favor equal power (the max-min
    objective protects the worst user, not the median), so this baseline
    comparison is pinned at the 8-AP scale."""
    report = evaluate(tiny_run["model"], labeled_8x3)
    opt_med = np.median(report.se_sorted["optimal"])
    eq_med = np.median(report.se_sorted["equal_power"])
    assert eq_med < opt_med


def test_evaluate_rejects_empty_and_unlabeled(tiny_run, labeled_4x2):
    with pytest.raises(ValueError):
        evaluate(tiny_run["model"], [])
    from cfgnn.data import Sample
    stripped = [Sample(num_aps=s.num_aps, num_ues=s.num_ues,
                       morphology=s.morphology, seed=s.seed, beta=s.beta)
                for s in labeled_4x2[:2]]
    with pytest.raises(ValueError):
        evaluate(tiny_run["model"], stripped)


def test_evaluate_rejects_a_set_that_mixes_scenarios(tiny_run, labeled_4x2,
                                                     labeled_8x3):
    """One report is one scenario: two shapes, or one shape under two
    morphologies, is an error, not a pooled report."""
    rural = dataclasses.replace(labeled_4x2[1], morphology="rural")
    for mixed, tags in ((labeled_4x2[:2] + labeled_8x3[:1],
                         "4x2:urban, 8x3:urban"),
                        ([labeled_4x2[0], rural], "4x2:rural, 4x2:urban")):
        with pytest.raises(ValueError, match=f"mixes scenarios: {tags}"):
            evaluate(tiny_run["model"], mixed)


def test_cdf_pooling_is_permutation_invariant(tiny_run, labeled_4x2):
    shuffled = list(labeled_4x2)
    np.random.default_rng(0).shuffle(shuffled)
    a = evaluate(tiny_run["model"], labeled_4x2)
    b = evaluate(tiny_run["model"], shuffled)
    for method in METHODS:
        np.testing.assert_array_equal(a.se_sorted[method], b.se_sorted[method])
    assert a.loss_at_median == b.loss_at_median


def test_cdf_csv_format(tmp_path, tiny_run, labeled_4x2):
    report = evaluate(tiny_run["model"], labeled_4x2[:1])
    path = tmp_path / "cdf.csv"
    export_cdf_csv(report, str(path))
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["se_bits_per_s_hz", "cdf", "method"]
    body = rows[1:]
    # one sample with K=2 users: exactly K rows per method
    assert len(body) == 2 * len(METHODS)
    per_method = {m: [r for r in body if r[2] == m] for m in METHODS}
    for m, mrows in per_method.items():
        cdf = [float(r[1]) for r in mrows]
        assert cdf == [0.5, 1.0]
        se = [float(r[0]) for r in mrows]
        assert se == sorted(se)


def test_summary_csv_format(tmp_path):
    se = np.array([1.0, 2.0])
    reports = [
        EvalReport(scenario="4x2:urban", se_sorted={m: se for m in METHODS},
                   loss_at_median=1.23456789, likely95_loss=4.5,
                   gnn_flops=1000, solver_flops=9000),
        EvalReport(scenario="8x3:urban", se_sorted={m: se for m in METHODS},
                   loss_at_median=0.5, likely95_loss=2.0),
    ]
    path = tmp_path / "summary.csv"
    export_summary_csv(reports, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "scenario,gnn_flops,solver_flops,loss_median_pct,likely95_loss_pct"
    assert len(lines) == 3
    assert lines[1].split(",") == ["4x2:urban", "1000", "9000",
                                   "1.23456789", "4.5"]


def test_report_rejects_unsorted_cdf():
    bad = np.array([2.0, 1.0])
    with pytest.raises(ValueError):
        EvalReport(scenario="x", se_sorted={"optimal": bad},
                   loss_at_median=0.0, likely95_loss=0.0)


def test_flop_comparison_smallest_instance():
    gnn, solver = flop_comparison(1, 1)
    assert gnn > 0 and solver > 0
    assert np.isfinite(gnn) and np.isfinite(solver)
