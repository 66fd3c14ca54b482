"""Evaluation metrics: spectral-efficiency CDFs, median and tail losses, FLOPs.

Per-user spectral efficiencies are pooled across all realizations into one
empirical CDF per method (optimal power control, the learned network, and
equal power per access point).  The tail metric reads the 5th percentile of
that pooled CDF, the rate that 95 percent of users meet or exceed.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .channel import draw_fading
from .data import Sample, normalize_input
from .engine import count_flops, forward, project_powers
from .flops import FlopCounter
from .graph import build_graph
from .maxmin import equal_power, solve_maxmin
from .model import GnnModel
from .sinr import link, sinr_kernel, spectral_efficiency

METHODS = ("optimal", "gnn", "equal_power")


@dataclass(frozen=True)
class EvalReport:
    scenario: str
    se_sorted: dict[str, np.ndarray]    # method -> pooled SEs, ascending
    loss_at_median: float               # percent, relative to optimal
    likely95_loss: float                # percent at the 5th percentile
    gnn_flops: int = 0
    solver_flops: int = 0

    def __post_init__(self) -> None:
        for method, se in self.se_sorted.items():
            if np.any(np.diff(se) < 0):
                raise ValueError(f"CDF samples for {method} not sorted")
        if not (np.isfinite(self.loss_at_median)
                and np.isfinite(self.likely95_loss)):
            raise ValueError("loss percentages must be finite")


def _percent_loss(se_opt: np.ndarray, se_method: np.ndarray, q: float) -> float:
    ref = float(np.percentile(se_opt, q))
    got = float(np.percentile(se_method, q))
    if ref == 0.0:
        return 0.0 if got == 0.0 else float("inf")
    return (ref - got) / ref * 100.0


def scenario_tag(num_aps: int, num_ues: int, morphology: str) -> str:
    return f"{num_aps}x{num_ues}:{morphology}"


def evaluate(model: GnnModel, eval_set: list[Sample]) -> EvalReport:
    """Pooled per-user CDF comparison of the network against the labels.

    The set is one scenario, one (M, K, morphology); a set that mixes
    scenarios raises ValueError.  Every sample must carry its optimal
    solution; each uses tau = K pilots.  The FLOP counts compare one
    network inference against one full instrumented bisection solve on a
    representative instance of the scenario.
    """
    if not eval_set:
        raise ValueError("empty evaluation set")
    if not all(s.labeled for s in eval_set):
        raise ValueError("evaluation requires labeled samples")
    scenarios = {(s.num_aps, s.num_ues, s.morphology) for s in eval_set}
    if len(scenarios) > 1:
        tags = ", ".join(scenario_tag(*key) for key in sorted(scenarios))
        raise ValueError(f"evaluation set mixes scenarios: {tags}")
    (num_aps, num_ues, morphology), = scenarios

    betas = np.stack([s.beta for s in eval_set])
    alpha, rho_d = link(betas)
    x = normalize_input(betas, model.norm)
    graph = build_graph(num_aps, num_ues)
    # One forward call per sample: a batched call rounds most raw outputs
    # differently in their last bits, which can move the report bytes.
    raw = np.stack([forward(graph, x_one, model) for x_one in x])
    eta_gnn = project_powers(raw, model.norm)
    sinr = {"optimal": np.stack([s.sinr_opt for s in eval_set]),
            "gnn": sinr_kernel(betas, alpha, eta_gnn, rho_d)[0],
            "equal_power": sinr_kernel(betas, alpha,
                                       equal_power(num_aps, num_ues),
                                       rho_d)[0]}

    se_sorted = {m: np.sort(spectral_efficiency(sinr[m]).ravel())
                 for m in METHODS}
    loss_med = _percent_loss(se_sorted["optimal"], se_sorted["gnn"], 50.0)
    loss_95 = _percent_loss(se_sorted["optimal"], se_sorted["gnn"], 5.0)

    gnn_flops, solver_flops = flop_comparison(num_aps, num_ues, model,
                                              morphology=morphology)
    return EvalReport(scenario=scenario_tag(num_aps, num_ues, morphology),
                      se_sorted=se_sorted,
                      loss_at_median=loss_med, likely95_loss=loss_95,
                      gnn_flops=gnn_flops, solver_flops=solver_flops)


def flop_comparison(num_aps: int, num_ues: int, model: GnnModel | None = None,
                    morphology: str = "urban") -> tuple[int, int]:
    """(gnn_flops, solver_flops) for one inference vs one instrumented solve
    of sample 0 of a seed-0 draw."""
    gnn = count_flops(num_aps, num_ues, model)
    beta = draw_fading(num_aps, num_ues, morphology,
                       np.random.default_rng(np.random.SeedSequence((0, 0))))
    counter = FlopCounter()
    solve_maxmin(beta, counter=counter)
    return gnn, counter.total


def _fmt(x: float) -> str:
    return f"{x:.9g}"


def export_cdf_csv(report: EvalReport, path: str) -> None:
    """One row per pooled user per method: se_bits_per_s_hz,cdf,method."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["se_bits_per_s_hz", "cdf", "method"])
        for method in METHODS:
            se = report.se_sorted[method]
            n = len(se)
            for i, value in enumerate(se):
                writer.writerow([_fmt(value), _fmt((i + 1) / n), method])


def export_summary_csv(reports: list[EvalReport], path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["scenario", "gnn_flops", "solver_flops",
                         "loss_median_pct", "likely95_loss_pct"])
        for report in reports:
            writer.writerow([report.scenario, report.gnn_flops,
                             report.solver_flops,
                             _fmt(report.loss_at_median),
                             _fmt(report.likely95_loss)])
