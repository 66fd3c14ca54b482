"""Bisection solver against closed forms, the grid oracle, and baselines."""

import numpy as np
import pytest

from cfgnn.channel import RadioDefaults, make_scenario, generate_sample_fading
from cfgnn.data import generate_unlabeled
from cfgnn.flops import FlopCounter
from cfgnn.maxmin import (
    SolverError,
    brute_force_maxmin,
    equal_power,
    feasibility_check,
    solve_maxmin,
    upper_bound_sinr,
)
from cfgnn.sinr import compute_alpha, compute_sinr, is_feasible

RHO_D, RHO_U = RadioDefaults.rho_d(), RadioDefaults.rho_u()


def _instance(m, k, seed, morphology="urban"):
    return generate_sample_fading(make_scenario(m, k, morphology), seed)


def test_single_link_closed_form():
    beta = _instance(1, 1, 4)
    alpha = compute_alpha(beta, RHO_U, 1)
    sol = solve_maxmin(beta)
    expected = RHO_D * alpha[0, 0] / (1.0 + RHO_D * beta[0, 0])
    assert sol.converged
    assert sol.t_star == pytest.approx(expected, rel=1e-4)
    assert sol.eta[0, 0] == pytest.approx(1.0, abs=1e-3)


def test_feasibility_boundary_single_link():
    beta = _instance(1, 1, 8)
    alpha = compute_alpha(beta, RHO_U, 1)
    t_opt = RHO_D * alpha[0, 0] / (1.0 + RHO_D * beta[0, 0])
    eta = feasibility_check(beta, t_opt * 0.999)
    assert eta is not None
    assert is_feasible(eta, tol=1e-6)
    assert feasibility_check(beta, t_opt * 1.01) is None


def test_feasibility_vanishing_target():
    beta = _instance(3, 2, 12)
    alpha = compute_alpha(beta, RHO_U, 2)
    eta = feasibility_check(beta, 1e-9)
    assert eta is not None
    assert compute_sinr(beta, alpha, eta, RHO_D).min() >= 1e-9 * (1 - 1e-6)


def test_feasibility_rejects_nonpositive_target():
    beta = _instance(2, 2, 1)
    with pytest.raises(ValueError):
        feasibility_check(beta, 0.0)


def test_solution_feasible_and_certified():
    for seed in range(4):
        beta = _instance(6, 3, 100 + seed)
        sol = solve_maxmin(beta)
        assert sol.converged
        assert is_feasible(sol.eta, tol=1e-6)
        alpha = compute_alpha(beta, RHO_U, 3)
        sinr = compute_sinr(beta, alpha, sol.eta, RHO_D)
        # t_star reports the exact worst-user SINR of the returned powers
        assert float(sinr.min()) == pytest.approx(sol.t_star, rel=1e-12)
        assert sol.t_star < upper_bound_sinr(beta)


def test_sinr_spread_equalized_at_solution():
    beta = _instance(8, 4, 55)
    sol = solve_maxmin(beta)
    spread = float(sol.sinr.max() - sol.sinr.min())
    assert spread <= 1e-3 * sol.t_star


def test_column_permutation_equivariance():
    beta = _instance(4, 3, 9)
    sol = solve_maxmin(beta)
    perm = np.array([2, 0, 1])
    sol_p = solve_maxmin(beta[:, perm])
    assert sol_p.t_star == pytest.approx(sol.t_star, rel=1e-4)
    np.testing.assert_allclose(sol_p.eta, sol.eta[:, perm], atol=1e-3)


def test_oracle_agreement_small_instance():
    beta = _instance(2, 2, 31)
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
    beta = _instance(2, 2, 77)
    coarse = brute_force_maxmin(beta, grid_step=0.1)
    fine = brute_force_maxmin(beta, grid_step=0.05)
    assert fine.t_star >= coarse.t_star


def test_grid_oracle_single_link_full_power():
    beta = _instance(1, 1, 2)
    sol = brute_force_maxmin(beta, grid_step=0.01)
    assert sol.eta[0, 0] == pytest.approx(1.0)


def test_grid_oracle_equalizes_symmetric_users():
    beta = np.full((1, 2), 3e-9)
    sol = brute_force_maxmin(beta, grid_step=0.02)
    assert abs(sol.sinr[0] - sol.sinr[1]) <= 0.1 * sol.t_star


def test_grid_oracle_size_guard():
    beta = _instance(4, 2, 3)
    with pytest.raises(ValueError):
        brute_force_maxmin(beta)


def test_equal_power_baseline():
    ep = equal_power(2, 4)
    assert ep.shape == (2, 4)
    np.testing.assert_array_equal(ep, np.full((2, 4), 0.25))
    assert is_feasible(ep, tol=0.0)
    beta = _instance(5, 3, 61)
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


def test_solver_counts_flops_when_instrumented():
    beta = _instance(3, 2, 13)
    counter = FlopCounter()
    solve_maxmin(beta, counter=counter)
    assert counter.total > 10_000
    assert counter.total == counter.multiplies + counter.adds
