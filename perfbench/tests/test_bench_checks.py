"""Each independent check accepts a good output and rejects a corrupted one."""

import numpy as np
import pytest

import checks
import workloads
from cfgnn.data import read_jsonl
from cfgnn.sinr import compute_alpha, compute_sinr

RHO_D, RHO_U = workloads.RHO_D, workloads.RHO_U


@pytest.fixture(scope="module")
def row():
    return read_jsonl(str(workloads.FIXTURES / "heldout_8x3.jsonl"))[0]


@pytest.fixture(scope="module")
def rivals():
    return checks.random_feasible(np.random.default_rng(0), 64, 8, 3)


def test_independent_sinr_matches_the_program(row):
    alpha = compute_alpha(row.beta, RHO_U, 3)
    ours = checks.sinr(row.beta, row.eta_opt, RHO_D, RHO_U, 3)
    np.testing.assert_allclose(ours, compute_sinr(row.beta, alpha,
                                                  row.eta_opt, RHO_D),
                               rtol=1e-12)


def test_random_allocations_are_feasible(rivals):
    checks.check_budget(rivals)


def test_a_good_label_passes_every_check(row, rivals):
    checks.check_label(row.beta, row.eta_opt, row.sinr_opt, rivals,
                       RHO_D, RHO_U, 3)


def test_budget_rejects_a_row_sum_of_1_01(row):
    eta = row.eta_opt.copy()
    eta[2] *= 1.01 / eta[2].sum()
    with pytest.raises(checks.CheckError, match="budget"):
        checks.check_budget(eta)


def test_sinr_check_rejects_a_misreported_sinr(row):
    wrong = row.sinr_opt * (1.0 + 1e-4)
    with pytest.raises(checks.CheckError, match="deviates"):
        checks.check_sinr(row.beta, row.eta_opt, wrong, RHO_D, RHO_U, 3)


def test_equalisation_rejects_unequal_sinrs(row):
    spread = row.sinr_opt.copy()
    spread[0] *= 1.001
    with pytest.raises(checks.CheckError, match="spread"):
        checks.check_equalised(spread)


def test_dominance_rejects_a_label_beaten_by_equal_power(row, rivals):
    starved = np.full_like(row.eta_opt, 1e-3)
    sinr = checks.sinr(row.beta, starved, RHO_D, RHO_U, 3)
    with pytest.raises(checks.CheckError, match="equal power"):
        checks.check_dominance(row.beta, sinr, rivals, RHO_D, RHO_U, 3)


def test_equivariance_rejects_a_permuted_output(row):
    ap_perm = np.roll(np.arange(8), 1)
    ue_perm = np.array([2, 0, 1])
    good = row.eta_opt[ap_perm][:, ue_perm]
    checks.check_equivariant(row.eta_opt, good, ap_perm, ue_perm)
    with pytest.raises(checks.CheckError, match="equivariant"):
        checks.check_equivariant(row.eta_opt, row.eta_opt, ap_perm, ue_perm)


def test_batch_agreement_rejects_a_different_output(row):
    checks.check_batch_agreement(row.eta_opt, row.eta_opt.copy())
    with pytest.raises(checks.CheckError, match="differ"):
        checks.check_batch_agreement(row.eta_opt, row.eta_opt * 1.001)


def test_cdf_order_rejects_an_optimal_floor_below_the_gnn():
    se = {"optimal": np.array([1.0, 2.0]), "gnn": np.array([1.1, 1.5]),
          "equal_power": np.array([0.5, 3.0])}
    with pytest.raises(checks.CheckError, match="gnn"):
        checks.check_cdf_order(se)
    se["gnn"] = np.array([0.9, 2.5])
    checks.check_cdf_order(se)


def test_fixture_validation_rejects_a_corrupted_row(row):
    rng = np.random.default_rng(0)
    workloads.validate_fixture_row(row, rng)
    bad = workloads.data.Sample(row.num_aps, row.num_ues, row.morphology,
                                row.seed, row.beta, row.eta_opt[::-1].copy(),
                                row.sinr_opt)
    with pytest.raises((ValueError, checks.CheckError)):
        workloads.validate_fixture_row(bad, rng)
