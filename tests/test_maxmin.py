"""Bisection solver against closed forms, the grid oracle, and baselines."""

import hashlib
import json
import math
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import dataclass

import numpy as np
import pytest

from cfgnn import maxmin
from cfgnn.channel import RadioDefaults
from cfgnn.cli import _BLAS_VARS
from cfgnn.data import generate_unlabeled
from cfgnn.flops import FlopCounter, NoCounter
from cfgnn.maxmin import SolverError, equal_power, solve_maxmin
from cfgnn.sinr import compute_alpha, compute_sinr, is_feasible, link
from oracle import (
    brute_force_maxmin,
    dense_newton_system,
    fading_instance,
    feasibility_check,
    sinr_cap,
    subprocess_env,
    upper_bound_sinr,
)

RHO_D, RHO_U = RadioDefaults.rho_d(), RadioDefaults.rho_u()


def test_single_link_closed_form():
    beta = fading_instance(1, 1, 4)
    alpha = compute_alpha(beta, RHO_U, 1)
    sol = solve_maxmin(beta)
    expected = RHO_D * alpha[0, 0] / (1.0 + RHO_D * beta[0, 0])
    assert sol.converged
    assert sol.t_star == pytest.approx(expected, rel=1e-4)
    assert sol.eta[0, 0] == pytest.approx(1.0, abs=1e-3)


def test_feasibility_boundary_single_link():
    beta = fading_instance(1, 1, 8)
    alpha = compute_alpha(beta, RHO_U, 1)
    t_opt = RHO_D * alpha[0, 0] / (1.0 + RHO_D * beta[0, 0])
    eta = feasibility_check(beta, t_opt * 0.999)
    assert eta is not None
    assert is_feasible(eta, tol=1e-6)
    assert feasibility_check(beta, t_opt * 1.01) is None


def test_feasibility_vanishing_target():
    beta = fading_instance(3, 2, 12)
    alpha = compute_alpha(beta, RHO_U, 2)
    eta = feasibility_check(beta, 1e-9)
    assert eta is not None
    assert compute_sinr(beta, alpha, eta, RHO_D).min() >= 1e-9 * (1 - 1e-6)


def test_feasibility_rejects_nonpositive_target():
    beta = fading_instance(2, 2, 1)
    with pytest.raises(ValueError):
        feasibility_check(beta, 0.0)


def test_solution_feasible_and_certified():
    for seed in range(4):
        beta = fading_instance(6, 3, 100 + seed)
        sol = solve_maxmin(beta)
        assert sol.converged
        assert is_feasible(sol.eta, tol=1e-6)
        alpha = compute_alpha(beta, RHO_U, 3)
        sinr = compute_sinr(beta, alpha, sol.eta, RHO_D)
        # t_star reports the exact worst-user SINR of the returned powers
        assert float(sinr.min()) == pytest.approx(sol.t_star, rel=1e-12)
        assert sol.t_star < upper_bound_sinr(beta)


def test_sinr_spread_equalized_at_solution():
    beta = fading_instance(8, 4, 55)
    sol = solve_maxmin(beta)
    spread = float(sol.sinr.max() - sol.sinr.min())
    assert spread <= 1e-3 * sol.t_star


def test_column_permutation_equivariance():
    beta = fading_instance(4, 3, 9)
    sol = solve_maxmin(beta)
    perm = np.array([2, 0, 1])
    sol_p = solve_maxmin(beta[:, perm])
    assert sol_p.t_star == pytest.approx(sol.t_star, rel=1e-4)
    np.testing.assert_allclose(sol_p.eta, sol.eta[:, perm], atol=1e-3)


def test_oracle_agreement_small_instance():
    beta = fading_instance(2, 2, 31)
    sol = solve_maxmin(beta)
    oracle = brute_force_maxmin(beta, grid_step=0.02)
    # grid optimum can exceed t_star only by solver tolerance, and cannot
    # fall below what rounding the solver's eta down to the grid achieves
    assert oracle.t_star <= sol.t_star * (1 + 2e-4)
    alpha = compute_alpha(beta, RHO_U, 2)
    eta_snap = np.floor(sol.eta / 0.02) * 0.02
    floor_val = compute_sinr(beta, alpha, eta_snap, RHO_D).min()
    assert oracle.t_star >= floor_val
    assert is_feasible(oracle.eta, tol=1e-12)


def test_grid_oracle_monotone_under_refinement():
    beta = fading_instance(2, 2, 77)
    coarse = brute_force_maxmin(beta, grid_step=0.1)
    fine = brute_force_maxmin(beta, grid_step=0.05)
    assert fine.t_star >= coarse.t_star


def test_grid_oracle_single_link_full_power():
    beta = fading_instance(1, 1, 2)
    sol = brute_force_maxmin(beta, grid_step=0.01)
    assert sol.eta[0, 0] == pytest.approx(1.0)


def test_grid_oracle_equalizes_symmetric_users():
    beta = np.full((1, 2), 3e-9)
    sol = brute_force_maxmin(beta, grid_step=0.02)
    assert abs(sol.sinr[0] - sol.sinr[1]) <= 0.1 * sol.t_star


def test_grid_oracle_size_guard():
    beta = fading_instance(4, 2, 3)
    with pytest.raises(ValueError):
        brute_force_maxmin(beta)


def test_equal_power_baseline():
    ep = equal_power(2, 4)
    assert ep.shape == (2, 4)
    np.testing.assert_array_equal(ep, np.full((2, 4), 0.25))
    assert is_feasible(ep, tol=0.0)
    beta = fading_instance(5, 3, 61)
    alpha = compute_alpha(beta, RHO_U, 3)
    sol = solve_maxmin(beta)
    baseline = compute_sinr(beta, alpha, equal_power(5, 3), RHO_D).min()
    assert baseline <= sol.t_star * (1 + 1e-9)


def test_weak_rural_channels_solve_below_the_bisection_floor():
    """Rural draws whose upper bound lies below the 1e-6 floor still solve:
    1x1 against the closed form, 2x2 against the grid oracle."""
    ones = generate_unlabeled([(1, 1, "rural", 3)], run_seed=5)
    twos = generate_unlabeled([(2, 2, "rural", 12)], run_seed=5)
    for sample in (ones[0], ones[2], twos[0], twos[11]):
        beta, k = sample.beta, sample.num_ues
        alpha = compute_alpha(beta, RHO_U, k)
        assert upper_bound_sinr(beta) < 1e-6
        sol = solve_maxmin(beta)
        assert sol.converged
        assert is_feasible(sol.eta, tol=1e-6)
        if k == 1:
            expected = RHO_D * alpha[0, 0] / (1.0 + RHO_D * beta[0, 0])
            assert sol.t_star == pytest.approx(expected, rel=1e-4)
            continue
        oracle = brute_force_maxmin(beta, grid_step=0.02)
        assert oracle.t_star <= sol.t_star * (1 + 2e-4)
        eta_snap = np.floor(sol.eta / 0.02) * 0.02
        assert oracle.t_star >= compute_sinr(beta, alpha, eta_snap, RHO_D).min()


def test_underflowing_channel_raises():
    """beta = 1e-170 makes alpha underflow to 0: no positive SINR exists."""
    beta = np.full((2, 2), 1e-170)
    assert np.all(compute_alpha(beta, RHO_U, 2) == 0.0)
    with pytest.raises(SolverError, match="SINR 0"):
        solve_maxmin(beta)


def test_sinr_cap_takes_zero_channel_gains_without_nan_or_warning():
    """beta >= 0 admits zeros.  A zero gain adds nothing to the bound (its
    0/0 is never formed); a user with no gain at all has bound 0, so every
    probe is answered at once and the solve raises as before."""
    beta = fading_instance(3, 2, 5)
    beta[0, 1] = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cap = sinr_cap(beta)
        sol = solve_maxmin(beta)
        assert np.isfinite(cap) and cap >= sol.t_star
        beta[:, 1] = 0.0
        assert sinr_cap(beta) == 0.0
        counter = FlopCounter()
        with pytest.raises(SolverError, match="SINR 0"):
            solve_maxmin(beta, counter=counter)
    assert (counter.probes_certified, counter.newton_systems) == (1, 0)


def test_closed_bracket_with_unequal_sinrs_is_equalised():
    """2x3 rural draws whose bracket closes while the bisection never passes
    its spread test: one at run seed 613675482, and draws 76, 84 and 128 of
    150 at run seed 11.  Their 60 bisection steps end with spreads from 8e-4
    to 0.126 of the worst SINR; the equalisation pass brings them below
    1e-8 without lowering the worst SINR, which the grid oracle does not
    beat."""
    draws = generate_unlabeled([(2, 3, "rural", 1)], run_seed=613675482)
    pool = generate_unlabeled([(2, 3, "rural", 150)], run_seed=11)
    worst_before = [2.8136317113034207e-08, 1.3428264604105551e-09,
                    2.5080443171168725e-09, 9.337997695850058e-09]
    for sample, before in zip(draws + [pool[i] for i in (76, 84, 128)],
                              worst_before):
        sol = solve_maxmin(sample.beta)
        assert sol.converged
        assert is_feasible(sol.eta, tol=0.0)
        assert np.ptp(sol.sinr) <= 1e-8 * sol.t_star
        assert sol.t_star >= before
        oracle = brute_force_maxmin(sample.beta, grid_step=0.02)
        assert oracle.t_star <= sol.t_star


def _sweep_draws() -> dict[str, np.ndarray]:
    """66 named draws that reach every branch of the solver: four of each
    small size and morphology at run seed 5 (17 of them take the
    weak-channel start), one 16x5 and one 24x8 draw above the dense size
    constant, and the four draws that end in equalisation passes."""
    specs = [(m, k, morphology, 4)
             for m, k in [(1, 1), (2, 3), (3, 2), (4, 3), (8, 3)]
             for morphology in ("urban", "suburban", "rural")]
    draws = {f"{s.num_aps}x{s.num_ues}:{s.morphology}#{i % 4}": s.beta
             for i, s in enumerate(generate_unlabeled(specs, run_seed=5))}
    draws["16x5:rural"] = fading_instance(16, 5, 7, "rural")
    draws["24x8:suburban"] = fading_instance(24, 8, 4, "suburban")
    pool = generate_unlabeled([(2, 3, "rural", 150)], run_seed=11)
    equalised = (generate_unlabeled([(2, 3, "rural", 1)], run_seed=613675482)
                 + [pool[i] for i in (76, 84, 128)])
    for i, sample in enumerate(equalised):
        draws[f"equalised#{i}"] = sample.beta
    return draws


# One digest per draw of `_sweep_draws`, measured with numpy 2.4.6; see
# test_solver_bits_are_pinned_on_every_branch for what it covers.
_SWEEP_PINS = {
    "1x1:urban#0": "0606d416d706cc03",
    "1x1:urban#1": "27208f71664773f8",
    "1x1:urban#2": "fc43dbaf841b4337",
    "1x1:urban#3": "7f3dea44ca81a903",
    "1x1:suburban#0": "3f161fb5970f2f44",
    "1x1:suburban#1": "7acffebffcce9df8",
    "1x1:suburban#2": "166423d7ca9377c2",
    "1x1:suburban#3": "29e64bc4a05c4e2f",
    "1x1:rural#0": "700ceaf9aefc189c",
    "1x1:rural#1": "1956a2a4b1157283",
    "1x1:rural#2": "18a10e18bf5ec8d9",
    "1x1:rural#3": "e1472f4910c4e2ac",
    "2x3:urban#0": "873071475d27f33e",
    "2x3:urban#1": "21a9528d120bb7c3",
    "2x3:urban#2": "9a657588f45b3f56",
    "2x3:urban#3": "326165098b4c5f55",
    "2x3:suburban#0": "12a5df9bc989eeb5",
    "2x3:suburban#1": "a68e359797d4739e",
    "2x3:suburban#2": "8db6d36cff19f5f8",
    "2x3:suburban#3": "cca3198214565fcb",
    "2x3:rural#0": "7da707544038da0d",
    "2x3:rural#1": "d5678db0019681ef",
    "2x3:rural#2": "4c44ce23f86da838",
    "2x3:rural#3": "879905201ee59a75",
    "3x2:urban#0": "6646dded33c4f71d",
    "3x2:urban#1": "8ef2ac1251d336f1",
    "3x2:urban#2": "1124b39cde90e72e",
    "3x2:urban#3": "e805554b05720430",
    "3x2:suburban#0": "cb2423237729001b",
    "3x2:suburban#1": "53c26527a2e10064",
    "3x2:suburban#2": "b06082ab5a1284c3",
    "3x2:suburban#3": "941c299eb8483f30",
    "3x2:rural#0": "c0f5e5cb85c2cead",
    "3x2:rural#1": "df615bc04bb542ff",
    "3x2:rural#2": "a8a39a6a182b21d2",
    "3x2:rural#3": "59dd5b622af0f653",
    "4x3:urban#0": "2701495e099cce5f",
    "4x3:urban#1": "053bf1d316e57dc4",
    "4x3:urban#2": "781d5909350edcf9",
    "4x3:urban#3": "0458338397aaea83",
    "4x3:suburban#0": "0921849dd675bd46",
    "4x3:suburban#1": "7b2f57e99567510c",
    "4x3:suburban#2": "8fd2705131e49be2",
    "4x3:suburban#3": "96e4d1a7a7234f09",
    "4x3:rural#0": "39b0de46cd909521",
    "4x3:rural#1": "63a8737dbe4ed43c",
    "4x3:rural#2": "38096e12749fa302",
    "4x3:rural#3": "3abd0149e8fc8753",
    "8x3:urban#0": "579d9a4a4eef486f",
    "8x3:urban#1": "ef1465be7201c4c1",
    "8x3:urban#2": "1223a76e3e6dc626",
    "8x3:urban#3": "5eb05c05440d5a74",
    "8x3:suburban#0": "329f0d1550ada53a",
    "8x3:suburban#1": "2e156bd529e45fb6",
    "8x3:suburban#2": "d2365d6e1184da9e",
    "8x3:suburban#3": "3263b40bcdb7d11c",
    "8x3:rural#0": "b4ec74f1b28901b8",
    "8x3:rural#1": "8c52c2f1f1fc6913",
    "8x3:rural#2": "97fd9041bb0fe1fc",
    "8x3:rural#3": "671251f11c4b3e8e",
    "16x5:rural": "17f67f406ce3e5ad",
    "24x8:suburban": "5d7f553417951598",
    "equalised#0": "77aadd950cc5e8e6",
    "equalised#1": "8fe12e6b86cb8dcd",
    "equalised#2": "57e05846216c25fe",
    "equalised#3": "fe3784a56fabba1d",
}


# One label-only digest per draw of `_sweep_draws`, measured with numpy
# 2.4.6; see test_solver_labels_are_pinned_on_every_branch.
_LABEL_PINS = {
    "1x1:urban#0": "0c4dc73bc329c1a3",
    "1x1:urban#1": "e8833fb0f4538b32",
    "1x1:urban#2": "8af0d8ba58f4ae73",
    "1x1:urban#3": "a3897676bebc0e99",
    "1x1:suburban#0": "7211d73ede5b9258",
    "1x1:suburban#1": "741b072032ada484",
    "1x1:suburban#2": "6fa7faa14e35e870",
    "1x1:suburban#3": "b60f6a37e7b421c8",
    "1x1:rural#0": "346501ea56a39a11",
    "1x1:rural#1": "bfb47499ff3d67f1",
    "1x1:rural#2": "693c237392c31195",
    "1x1:rural#3": "31c6188669379ad3",
    "2x3:urban#0": "5bccf5e491cde73b",
    "2x3:urban#1": "e48d8cdad8593a9b",
    "2x3:urban#2": "dcf2f5d57013ef95",
    "2x3:urban#3": "130198daeecfa605",
    "2x3:suburban#0": "b6b1b97e106f2d2f",
    "2x3:suburban#1": "46e043b6a81956a6",
    "2x3:suburban#2": "d0bb8594ada9ab97",
    "2x3:suburban#3": "e62cab59c9df2d0c",
    "2x3:rural#0": "34dafe2c6c169cf1",
    "2x3:rural#1": "02ee0105b9dd0cbb",
    "2x3:rural#2": "26a8fcd130a345f3",
    "2x3:rural#3": "c13c939df0476afb",
    "3x2:urban#0": "53fcf576fe72d263",
    "3x2:urban#1": "77f5bb2a1eb118d2",
    "3x2:urban#2": "c352d657b59e65ef",
    "3x2:urban#3": "c4b3c51d745ab34c",
    "3x2:suburban#0": "ecea66bf13d16eac",
    "3x2:suburban#1": "e07921bd6c8de94a",
    "3x2:suburban#2": "2c1d840ddd8c43fb",
    "3x2:suburban#3": "3907faf0f12767c0",
    "3x2:rural#0": "1602d659cdc6ea4c",
    "3x2:rural#1": "59642821080101a3",
    "3x2:rural#2": "128ffe64849fc1e3",
    "3x2:rural#3": "5064ad39425c8d07",
    "4x3:urban#0": "3e70080c01d414ea",
    "4x3:urban#1": "6d08bfdc8fda30b7",
    "4x3:urban#2": "5b98f86b07350bf4",
    "4x3:urban#3": "d445505b513cc2ff",
    "4x3:suburban#0": "318f2c5a5c4821c9",
    "4x3:suburban#1": "679316e17da5cd1b",
    "4x3:suburban#2": "f7daa71099176b12",
    "4x3:suburban#3": "e2d0c41ec03701e7",
    "4x3:rural#0": "983dce185191b527",
    "4x3:rural#1": "51273c7ca6f38d3e",
    "4x3:rural#2": "79c518f2e4562d7d",
    "4x3:rural#3": "9c563d60d09830ff",
    "8x3:urban#0": "8f52287ba7dc6a94",
    "8x3:urban#1": "35f48a89aaec952e",
    "8x3:urban#2": "5312b8d69d5f4a9c",
    "8x3:urban#3": "1e4110bb63c42d4e",
    "8x3:suburban#0": "4407b707da2040a2",
    "8x3:suburban#1": "515093060d3c5151",
    "8x3:suburban#2": "69d837d341a99984",
    "8x3:suburban#3": "8be460e9e7cb801f",
    "8x3:rural#0": "e1d808081b206cb4",
    "8x3:rural#1": "7e9796b99a000759",
    "8x3:rural#2": "7752a92e535e0f64",
    "8x3:rural#3": "fba48fa1743dff80",
    "16x5:rural": "0e2f130757e9845c",
    "24x8:suburban": "28af02e6d399da25",
    "equalised#0": "4d7cba99c27da6b5",
    "equalised#1": "07e3a53f21532413",
    "equalised#2": "048daf99bccd5eeb",
    "equalised#3": "e2f93704387209ad",
}


def _solution_digest(sol, counts: tuple = ()) -> str:
    """16 hex digits of the sha256 over t_star, iterations, the converged
    flag and `counts`, then the bytes of eta and sinr."""
    digest = hashlib.sha256(repr((sol.t_star.hex(), sol.iterations,
                                  sol.converged) + counts).encode())
    digest.update(sol.eta.tobytes())
    digest.update(sol.sinr.tobytes())
    return digest.hexdigest()[:16]


def test_solver_labels_are_pinned_on_every_branch():
    """Each draw's label alone: t_star, iterations, converged flag, eta and
    sinr bytes, with no work count, so a change that only skips work passes
    it unchanged.  A failure lists the draws whose label moved."""
    got = {name: _solution_digest(solve_maxmin(beta))
           for name, beta in _sweep_draws().items()}
    assert sorted(name for name in got if got[name] != _LABEL_PINS.get(name)) == []
    assert got.keys() == _LABEL_PINS.keys()


def test_solver_bits_are_pinned_on_every_branch(monkeypatch):
    """Each draw's t_star, iterations, converged flag, eta and sinr bytes,
    FLOP tallies, Newton event counts and probes certified by the SINR
    bound and by the Lagrangian bound, hashed to 16 hex digits.  A failure
    lists the draws whose solve moved."""
    margin_solve = maxmin._margin_solve
    weak_starts = []

    def recorded(sa, bs, t, counter, sig_init=None, full_center=False,
                 centre=None):
        if sig_init is None and t != maxmin._T_FLOOR:
            weak_starts.append(t)
        return margin_solve(sa, bs, t, counter, sig_init=sig_init,
                            full_center=full_center, centre=centre)

    monkeypatch.setattr(maxmin, "_margin_solve", recorded)
    got = {}
    for name, beta in _sweep_draws().items():
        counter = FlopCounter()
        sol = solve_maxmin(beta, counter=counter)
        got[name] = _solution_digest(sol, (
            counter.multiplies, counter.adds, counter.newton_systems,
            counter.newton_dense_fallbacks, counter.newton_retries,
            counter.newton_fallbacks, counter.probes_certified,
            counter.probes_dual_certified))
    assert len(weak_starts) == 17
    assert sorted(name for name in got if got[name] != _SWEEP_PINS.get(name)) == []
    assert got.keys() == _SWEEP_PINS.keys()


@pytest.mark.parametrize("m, k, morphology, run_seed", [
    (1, 1, "urban", 5), (2, 3, "rural", 5), (8, 3, "urban", 815),
    (32, 9, "urban", 2017)])
def test_dual_bound_is_weak_duality_at_feasible_targets(m, k, morphology,
                                                        run_seed):
    """At every target t <= t_star (1 - 1e-3) the Lagrangian bound is not
    negative, whatever sigma0 (any real M x K array) and whatever weights
    on the simplex it is taken at.  The last size is the label-32x9
    instance."""
    beta = generate_unlabeled([(m, k, morphology, 1)], run_seed=run_seed)[0].beta
    alpha, rho_d = link(beta)
    sa, bs = np.sqrt(rho_d * alpha), rho_d * beta
    t_star = solve_maxmin(beta).t_star
    rng = np.random.default_rng(m * k)
    for t in t_star * (1.0 - 1e-3) * np.array([1.0, 0.9, 0.3, 1e-3]):
        sa_t = sa / math.sqrt(t)
        for scale in (1e-3, 0.3, 1.0, 10.0):
            for _ in range(10):
                sig0 = scale * rng.standard_normal((m, k))
                lam = rng.dirichlet(np.ones(k))
                state = maxmin._state(sa_t, bs, sig0, 0.0)[:4] + (1.0 / lam,)
                bound = maxmin._dual_bound(sa_t, bs, sig0, state, NoCounter())
                assert bound >= 0.0, (t / t_star, scale)


def test_every_probe_the_dual_bound_answers_is_infeasible_without_it(
        monkeypatch):
    """On the 66 sweep draws, each probe that the Lagrangian bound answers
    (at entry or between Newton systems) returns None again from the
    barrier alone, with the bound monkeypatched away."""
    margin_solve = maxmin._margin_solve
    answered = []

    def recorded(sa, bs, t, counter, sig_init=None, full_center=False,
                 centre=None):
        before = counter.probes_dual_certified
        probe = margin_solve(sa, bs, t, counter, sig_init=sig_init,
                             full_center=full_center, centre=centre)
        if counter.probes_dual_certified > before:
            assert probe is None
            answered.append((sa, bs, t, sig_init, full_center))
        return probe

    monkeypatch.setattr(maxmin, "_margin_solve", recorded)
    total = 0
    for beta in _sweep_draws().values():
        counter = FlopCounter()
        solve_maxmin(beta, counter=counter)
        total += counter.probes_dual_certified
    monkeypatch.undo()
    assert len(answered) == total > 300

    monkeypatch.setattr(maxmin, "_dual_bound", lambda *args: math.inf)
    for sa, bs, t, sig_init, full_center in answered:
        assert maxmin._margin_solve(sa, bs, t, NoCounter(), sig_init=sig_init,
                                    full_center=full_center) is None


def test_solver_counts_flops_when_instrumented():
    beta = fading_instance(3, 2, 13)
    counter = FlopCounter()
    solve_maxmin(beta, counter=counter)
    assert counter.total > 10_000
    assert counter.total == counter.multiplies + counter.adds
    assert counter.newton_retries == counter.newton_fallbacks == 0
    assert counter.newton_dense_fallbacks == 0


@pytest.mark.parametrize("m, k, morphology", [(2, 2, "rural"), (8, 3, "urban"),
                                              (16, 5, "rural"), (32, 9, "urban")])
def test_newton_direction_equals_dense_reference_bit_for_bit(monkeypatch, m, k,
                                                             morphology):
    """At every state of a whole solve, the dense step against solving the
    dense oracle; at and below the size constant that is the step taken."""
    direction = maxmin._newton_direction
    checked = []

    def checked_direction(weight, sa, bs, sig, state, counter):
        got = direction(weight, sa, bs, sig, state, counter)
        assert np.all(state[4] > 0.0) and np.all(state[1] > 0.0)  # interior
        terms = maxmin._newton_terms(weight, sa, bs, sig, state, NoCounter())
        dense = maxmin._dense_direction(sig, terms, NoCounter())
        h, grad = dense_newton_system(weight, sa, bs, sig, state)
        delta = np.linalg.solve(h, -grad)
        slope = float(grad @ delta)
        assert slope < 0.0
        want = (delta[:m * k].reshape(m, k), float(delta[m * k]), grad, slope)
        assert all(np.array_equal(a, b) for a, b in zip(dense, want))
        if m * k <= maxmin._DENSE_MAX_N:
            assert all(np.array_equal(a, b) for a, b in zip(got, want))
        checked.append(1)
        return got

    monkeypatch.setattr(maxmin, "_newton_direction", checked_direction)
    solve_maxmin(fading_instance(m, k, 7, morphology))
    assert len(checked) > 50


@pytest.mark.parametrize("m, k, morphology, seed", [(16, 5, "rural", 7),
                                                    (24, 8, "suburban", 4),
                                                    (32, 9, "urban", 2017)])
def test_structured_newton_step_solves_the_dense_system(monkeypatch, m, k,
                                                        morphology, seed):
    """Above the size constant every Newton system of a whole solve is
    solved to a relative residual of 1e-9 against the oracle's H, in a
    descent direction, and the solve matches the dense path's."""
    assert m * k > maxmin._DENSE_MAX_N
    beta = fading_instance(m, k, seed, morphology)
    direction = maxmin._newton_direction
    residuals = []

    def checked_direction(weight, sa, bs, sig, state, counter):
        got = direction(weight, sa, bs, sig, state, counter)
        h, grad = dense_newton_system(weight, sa, bs, sig, state)
        delta = np.append(got[0].ravel(), got[1])
        residuals.append(np.linalg.norm(h @ delta + grad) / np.linalg.norm(grad))
        assert got[3] < 0.0
        assert got[3] == pytest.approx(float(grad @ delta), rel=1e-12)
        return got

    monkeypatch.setattr(maxmin, "_newton_direction", checked_direction)
    counter = FlopCounter()
    structured = solve_maxmin(beta, counter=counter)
    monkeypatch.undo()
    assert len(residuals) > 50 and max(residuals) <= 1e-9
    assert counter.newton_dense_fallbacks == 0

    monkeypatch.setattr(maxmin, "_DENSE_MAX_N", m * k)
    dense = solve_maxmin(beta)
    assert structured.converged and dense.converged
    assert structured.iterations == dense.iterations
    assert structured.t_star == pytest.approx(dense.t_star, rel=1e-12)


def test_a_failed_structured_step_goes_to_the_dense_step_and_is_counted(monkeypatch):
    """A singular 2K x 2K capacitance system sends that one Newton system to
    the dense step; the solve still converges."""
    solve = np.linalg.solve
    failed = []

    def singular_once(a, b):
        if a.shape == (16, 16) and not failed:
            failed.append(1)
            raise np.linalg.LinAlgError("Singular matrix")
        return solve(a, b)

    monkeypatch.setattr(maxmin.np.linalg, "solve", singular_once)
    counter = FlopCounter()
    sol = solve_maxmin(fading_instance(16, 8, 5), counter=counter)
    assert failed and sol.converged
    assert counter.newton_dense_fallbacks == 1
    assert (counter.newton_retries, counter.newton_fallbacks) == (0, 0)


def test_no_dense_hessian_above_the_size_constant():
    """A 64x16 solve allocates less than one (MK+1)^2 float64 matrix."""
    beta = fading_instance(64, 16, 7)
    tracemalloc.start()
    try:
        sol = solve_maxmin(beta)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sol.converged
    assert peak < (64 * 16 + 1) ** 2 * 8


_GOLDEN_32X9 = """
import hashlib, json, resource
from cfgnn import maxmin
from cfgnn.data import generate_unlabeled
from cfgnn.flops import FlopCounter, NoCounter
from cfgnn.maxmin import solve_maxmin

class Counter(FlopCounter):
    lu_calls = 0

    def solve_lu(self, n, rhs=1):
        self.lu_calls += 1
        super().solve_lu(n, rhs)

solve_maxmin(generate_unlabeled([(8, 3, "urban", 1)], run_seed=1)[0].beta)
beta = generate_unlabeled([(32, 9, "urban", 1)], run_seed=2017)[0].beta
calls = {"systems": 0, "probes": 0}

def tallied(name, function):
    def call(*args, **kwargs):
        calls[name] += 1
        return function(*args, **kwargs)
    return call

maxmin._newton_direction = tallied("systems", maxmin._newton_direction)
maxmin._margin_solve = tallied("probes", maxmin._margin_solve)
counter = Counter()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
sol = solve_maxmin(beta, counter=counter)
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
print(json.dumps({"t_star": sol.t_star, "iterations": sol.iterations,
                  "eta_sha256": hashlib.sha256(sol.eta.tobytes()).hexdigest(),
                  "lu_calls": counter.lu_calls, **calls,
                  "newton_systems": counter.newton_systems,
                  "probes_certified": counter.probes_certified,
                  "probes_dual_certified": counter.probes_dual_certified,
                  "dense_fallbacks": counter.newton_dense_fallbacks,
                  "minflt": faults}))
"""


def test_benchmark_32x9_instance_golden_and_fault_budget():
    """The benchmark's label-32x9 instance, solved in a fresh one-BLAS-thread
    process after a warm-up 8x3 solve: golden bits, work counts and a fault
    budget.  32x9 is above the size constant, so every system takes the
    structured step, and the LU calls are its 2K x 2K capacitance solves:
    one per system plus one per refinement correction.  11 of the 25
    feasibility probes lie above the SINR bound and solve no Newton system;
    before the bound answered them, the same bits took 797 systems and 921
    LU calls.  The Lagrangian bound answers 8 more, at probe entry or
    part-way through the barrier; before it did, the same bits took 468
    systems and 592 LU calls.  The dense step gave t_star =
    2.186903999942864 in 24 bisection steps and 847 systems.
    Fresh (MK+1)^2 arrays per Newton system cost about 295 minor page
    faults each under glibc's default mmap threshold; the structured step
    allocates no array of that size."""
    env = subprocess_env(**{var: "1" for var in _BLAS_VARS})
    result = subprocess.run([sys.executable, "-c", _GOLDEN_32X9], env=env,
                            capture_output=True, text=True, check=True)
    got = json.loads(result.stdout)
    assert got["t_star"] == 2.1869039999428663
    assert got["t_star"] == pytest.approx(2.186903999942864, rel=1e-12)
    assert got["iterations"] == 24
    assert got["eta_sha256"] == ("20b9bda7b47b3a041e84d98422cc0093"
                                 "379275b447fe3de96bb2e772c5f5741d")
    assert (got["probes"], got["probes_certified"]) == (25, 11)
    assert got["probes_dual_certified"] == 8
    assert got["systems"] == got["newton_systems"] == 365
    assert got["dense_fallbacks"] == 0
    assert got["lu_calls"] == 479
    assert got["minflt"] < 30 * got["lu_calls"]


@dataclass
class _LuCounter(FlopCounter):
    lu_calls: int = 0

    def solve_lu(self, n: int, rhs: int = 1) -> None:
        super().solve_lu(n, rhs)
        self.lu_calls += 1


def test_a_singular_newton_system_is_counted_as_one_retry(monkeypatch):
    solve = np.linalg.solve
    calls = []

    def singular_once(a, b):
        calls.append(a.shape)
        if len(calls) == 1:
            raise np.linalg.LinAlgError("Singular matrix")
        return solve(a, b)

    monkeypatch.setattr(maxmin.np.linalg, "solve", singular_once)
    counter = _LuCounter()
    sol = solve_maxmin(fading_instance(3, 2, 13), counter=counter)
    assert sol.converged
    assert (counter.newton_retries, counter.newton_fallbacks) == (1, 0)
    # The failed factorisation and the regularised one are both counted.
    assert counter.lu_calls == len(calls)


def test_a_hopeless_newton_system_falls_back_to_steepest_descent(monkeypatch):
    """Eight attempts (one plain, seven regularised), then one fallback."""
    def singular(a, b):
        raise np.linalg.LinAlgError("Singular matrix")

    beta = fading_instance(3, 2, 13)
    alpha, rho_d = link(beta)
    sa, bs = np.sqrt(rho_d * alpha), rho_d * beta
    sig = np.full((3, 2), 0.5)
    state = maxmin._state(sa, bs, sig, 0.0)
    s = float(np.min(state[3])) - 0.05
    state = maxmin._state(sa, bs, sig, s)
    monkeypatch.setattr(maxmin.np.linalg, "solve", singular)
    counter = _LuCounter()
    dsig, ds, grad, slope = maxmin._newton_direction(1.0, sa, bs, sig, state,
                                                     counter)
    assert (counter.newton_retries, counter.newton_fallbacks) == (7, 1)
    assert counter.lu_calls == 8
    assert slope == -np.sqrt(grad @ grad)
    np.testing.assert_allclose(np.append(dsig.ravel(), ds), grad / slope)
