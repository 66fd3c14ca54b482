"""Ergodic downlink SINR under conjugate beamforming with imperfect CSI.

With MMSE channel estimates of quality

    alpha[m, k] = rho_u * tau * beta[m, k]**2 / (1 + rho_u * tau * beta[m, k])

and per-AP power fractions eta[m, k] >= 0 with sum_k eta[m, k] <= 1, the
achievable SINR of user k is

                rho_d * (sum_m sqrt(alpha[m, k] * eta[m, k]))**2
    SINR_k = -----------------------------------------------------
              1 + rho_d * sum_m beta[m, k] * sum_j eta[m, j]

The numerator is coherent beamforming gain; the denominator collects noise
plus the total power each AP radiates weighted by how strongly it is heard
by user k.  `sinr_kernel` is the one implementation of this expression,
batched over leading axes; `compute_sinr` validates one (M, K) allocation
and calls it.  `link` fixes the symbols to the package's one link budget.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .channel import RadioDefaults


class Link(NamedTuple):
    """Channel estimate quality and downlink power of a draw or a batch."""

    alpha: np.ndarray
    rho_d: float


def link(beta: np.ndarray) -> Link:
    """The link budget of the package applied to beta (..., M, K): the
    RadioDefaults powers with tau = K orthogonal pilots, one per user."""
    beta = np.asarray(beta, dtype=float)
    return Link(compute_alpha(beta, RadioDefaults.rho_u(), beta.shape[-1]),
                RadioDefaults.rho_d())


def compute_alpha(beta: np.ndarray, rho_u: float, tau: int) -> np.ndarray:
    """Channel estimate quality, same shape as beta (..., M, K)."""
    beta = np.asarray(beta, dtype=float)
    if beta.ndim < 2:
        raise ValueError(f"beta must be (..., M, K), got shape {beta.shape}")
    if np.any(beta < 0):
        raise ValueError("beta entries must be non-negative")
    if rho_u <= 0:
        raise ValueError(f"rho_u must be positive, got {rho_u}")
    if tau < 1:
        raise ValueError(f"tau must be >= 1, got {tau}")
    g = rho_u * tau * beta
    return g * beta / (1.0 + g)


def sinr_kernel(beta: np.ndarray, alpha: np.ndarray, eta: np.ndarray,
                rho_d: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batched SINR over (..., M, K) arrays, without input validation.

    Returns (sinr, gain, den), each (..., K): gain is the beamforming sum
    sum_m sqrt(alpha * eta) and den the denominator 1 + rho_d * interference,
    the intermediates the training backward pass reuses.  A batch gives the
    same bits as one sample at a time.
    """
    gain = np.sqrt(alpha * eta).sum(axis=-2)
    load = eta.sum(axis=-1)
    den = 1.0 + rho_d * (load[..., None, :] @ beta)[..., 0, :]
    return rho_d * gain * gain / den, gain, den


def compute_sinr(beta: np.ndarray, alpha: np.ndarray, eta: np.ndarray,
                 rho_d: float) -> np.ndarray:
    """Per-user SINR vector of length K for one power allocation.

    eta must be elementwise non-negative; feasibility of the per-AP budget is
    not enforced here (use is_feasible) so that infeasible candidates can
    still be scored during search.
    """
    beta = np.asarray(beta, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    eta = np.asarray(eta, dtype=float)
    if beta.shape != alpha.shape or beta.shape != eta.shape:
        raise ValueError(f"shape mismatch: beta {beta.shape}, alpha {alpha.shape}, "
                         f"eta {eta.shape}")
    if rho_d <= 0:
        raise ValueError(f"rho_d must be positive, got {rho_d}")
    if np.any(eta < 0):
        raise ValueError("eta entries must be non-negative")
    return sinr_kernel(beta, alpha, eta, rho_d)[0]


def spectral_efficiency(sinr: np.ndarray) -> np.ndarray:
    """Per-user spectral efficiency log2(1 + SINR) in bit/s/Hz."""
    return np.log2(1.0 + np.asarray(sinr, dtype=float))


def is_feasible(eta: np.ndarray, tol: float = 1e-9) -> bool:
    """Check eta >= 0 and per-AP budget sum_k eta[m, k] <= 1 + tol."""
    eta = np.asarray(eta, dtype=float)
    if np.any(eta < 0):
        return False
    return bool(np.all(eta.sum(axis=1) <= 1.0 + tol))
