"""Channel-estimate quality, the SINR expression, and feasibility predicates."""

import numpy as np
import pytest

from cfgnn.channel import RadioDefaults
from cfgnn.sinr import (
    compute_alpha,
    compute_sinr,
    is_feasible,
    link,
    sinr_kernel,
    spectral_efficiency,
)


def _naive_sinr(beta, alpha, eta, rho_d):
    """Direct double-loop evaluation used as the vectorization oracle."""
    m, k = beta.shape
    out = np.empty(k)
    for j in range(k):
        num = sum(np.sqrt(alpha[i, j] * eta[i, j]) for i in range(m))
        den = 1.0
        for i in range(m):
            den += rho_d * beta[i, j] * sum(eta[i, jj] for jj in range(k))
        out[j] = rho_d * num * num / den
    return out


def test_alpha_zero_channel():
    beta = np.zeros((2, 2))
    np.testing.assert_array_equal(compute_alpha(beta, 1.0, 1), np.zeros((2, 2)))


def test_alpha_direct_value():
    beta = np.ones((1, 1))
    assert compute_alpha(beta, 1.0, 1)[0, 0] == pytest.approx(0.5)


def test_alpha_saturates_to_beta():
    beta = np.full((1, 1), 1.0)
    alpha = compute_alpha(beta, 100.0, 1)
    assert alpha[0, 0] / beta[0, 0] > 0.99
    assert alpha[0, 0] < beta[0, 0]


def test_alpha_strictly_below_beta():
    rng = np.random.default_rng(3)
    beta = 10.0 ** rng.uniform(-12, -6, size=(5, 4))
    alpha = compute_alpha(beta, 1e10, 4)
    assert np.all(alpha < beta)
    assert np.all(alpha >= 0)


def test_sinr_zero_power():
    beta = np.full((3, 2), 1e-8)
    alpha = compute_alpha(beta, 1e9, 2)
    sinr = compute_sinr(beta, alpha, np.zeros((3, 2)), 1e10)
    np.testing.assert_array_equal(sinr, np.zeros(2))


def test_sinr_single_link_closed_form():
    beta = np.array([[2e-9]])
    rho_d, rho_u = 3e11, 1e11
    alpha = compute_alpha(beta, rho_u, 1)
    sinr = compute_sinr(beta, alpha, np.ones((1, 1)), rho_d)
    expected = rho_d * alpha[0, 0] / (1.0 + rho_d * beta[0, 0])
    assert sinr[0] == pytest.approx(expected, rel=1e-12)


def test_sinr_symmetric_users_equal():
    beta = np.array([[3e-9, 3e-9], [1e-9, 1e-9]])
    alpha = compute_alpha(beta, 1e10, 2)
    eta = np.full((2, 2), 0.5)
    sinr = compute_sinr(beta, alpha, eta, 1e11)
    assert sinr[0] == pytest.approx(sinr[1], rel=1e-14)


def test_sinr_matches_naive_double_loop():
    rng = np.random.default_rng(17)
    for _ in range(10):
        m, k = rng.integers(1, 7), rng.integers(1, 5)
        beta = 10.0 ** rng.uniform(-12, -7, size=(m, k))
        alpha = compute_alpha(beta, 1e11, int(k))
        eta = rng.random((m, k))
        eta /= np.maximum(eta.sum(axis=1, keepdims=True), 1.0)
        got = compute_sinr(beta, alpha, eta, 2e11)
        want = _naive_sinr(beta, alpha, eta, 2e11)
        np.testing.assert_allclose(got, want, rtol=1e-12)


def test_sinr_kernel_batch_equals_single_exactly():
    """One batched call gives the same bits as compute_sinr one at a time,
    so training losses and evaluation reports share one rounding."""
    rng = np.random.default_rng(5)
    for m, k in [(1, 1), (3, 2), (8, 3), (32, 9)]:
        beta = 10.0 ** rng.uniform(-12, -7, size=(16, m, k))
        alpha = np.stack([compute_alpha(b, 1e11, k) for b in beta])
        eta = rng.random((16, m, k))
        eta /= np.maximum(eta.sum(axis=-1, keepdims=True), 1.0)
        sinr, gain, den = sinr_kernel(beta, alpha, eta, 2e11)
        assert sinr.shape == gain.shape == den.shape == (16, k)
        single = np.stack([compute_sinr(beta[s], alpha[s], eta[s], 2e11)
                           for s in range(16)])
        np.testing.assert_array_equal(sinr, single)
        np.testing.assert_array_equal(sinr, 2e11 * gain * gain / den)


def test_link_uses_radio_defaults_and_one_pilot_per_user_batched_or_not():
    """A batch of draws gets the same alpha bits as one draw at a time."""
    beta = 10.0 ** np.random.default_rng(6).uniform(-12, -7, size=(4, 8, 3))
    alpha, rho_d = link(beta)
    assert rho_d == RadioDefaults.rho_d()
    for s in range(4):
        np.testing.assert_array_equal(
            alpha[s], compute_alpha(beta[s], RadioDefaults.rho_u(), 3))
        np.testing.assert_array_equal(alpha[s], link(beta[s]).alpha)


def test_sinr_rejects_negative_eta():
    beta = np.full((1, 1), 1e-9)
    alpha = compute_alpha(beta, 1e10, 1)
    with pytest.raises(ValueError):
        compute_sinr(beta, alpha, np.array([[-0.1]]), 1e11)


def test_sinr_permutation_equivariance():
    rng = np.random.default_rng(29)
    beta = 10.0 ** rng.uniform(-11, -8, size=(5, 4))
    alpha = compute_alpha(beta, 1e10, 4)
    eta = rng.random((5, 4)) / 4
    base = compute_sinr(beta, alpha, eta, 1e11)
    perm_ap = rng.permutation(5)
    perm_ue = rng.permutation(4)
    permuted = compute_sinr(beta[perm_ap][:, perm_ue],
                            alpha[perm_ap][:, perm_ue],
                            eta[perm_ap][:, perm_ue], 1e11)
    np.testing.assert_allclose(permuted, base[perm_ue], rtol=1e-12)


def test_spectral_efficiency_values():
    np.testing.assert_allclose(spectral_efficiency(np.array([1.0, 3.0])),
                               [1.0, 2.0])
    assert spectral_efficiency(np.array([0.0]))[0] == 0.0


def test_is_feasible_cases():
    assert is_feasible(np.full((3, 4), 0.25))
    assert not is_feasible(np.array([[0.5, -1e-3]]), tol=1e-9)
    row = np.array([[0.5, 0.5 + 1e-12]])
    assert is_feasible(row, tol=1e-9)
    assert not is_feasible(np.array([[0.7, 0.7]]), tol=1e-9)
