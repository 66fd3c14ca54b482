"""Output checks written apart from the program under test.

Nothing here imports cfgnn: the SINR expression, the budget test and the
optimality tests are restated from the model (Ngo et al., IEEE TWC 2017),
so a fault shared by the program's own helpers cannot hide itself.
Every check raises CheckError with a one-line reason.
"""

from __future__ import annotations

import numpy as np


class CheckError(AssertionError):
    """An output of the program failed an independent check."""


def sinr(beta: np.ndarray, eta: np.ndarray, rho_d: float, rho_u: float,
         tau: int) -> np.ndarray:
    """Downlink SINR under conjugate beamforming; (..., M, K) -> (..., K)."""
    pilot = rho_u * tau * beta
    alpha = pilot * beta / (1.0 + pilot)
    coherent = np.sum(np.sqrt(alpha * eta), axis=-2) ** 2
    heard = np.sum(beta * np.sum(eta, axis=-1, keepdims=True), axis=-2)
    return rho_d * coherent / (1.0 + rho_d * heard)


def random_feasible(rng: np.random.Generator, count: int, num_aps: int,
                    num_ues: int) -> np.ndarray:
    """`count` random allocations meeting every per-AP budget: (count, M, K)."""
    shares = rng.dirichlet(np.ones(num_ues), size=(count, num_aps))
    load = rng.uniform(0.5, 1.0, size=(count, num_aps, 1))
    return shares * load


def check_budget(eta: np.ndarray, tol: float = 1e-9) -> None:
    """Non-negative, finite, and every AP row sums to at most 1 + tol."""
    if not np.all(np.isfinite(eta)):
        raise CheckError("eta has non-finite entries")
    if np.any(eta < 0.0):
        raise CheckError(f"eta has negative entries (min {eta.min():.3g})")
    worst = float(np.max(np.sum(eta, axis=-1)))
    if worst > 1.0 + tol:
        raise CheckError(f"per-AP budget exceeded: row sum {worst!r}")


def check_sinr(beta: np.ndarray, eta: np.ndarray, reported: np.ndarray,
               rho_d: float, rho_u: float, tau: int,
               rel_tol: float = 1e-6) -> None:
    """The reported SINRs are what eta achieves by the independent formula."""
    mine = sinr(beta, eta, rho_d, rho_u, tau)
    err = float(np.max(np.abs(mine - reported) / np.maximum(mine, 1e-300)))
    if not err <= rel_tol:
        raise CheckError(f"reported SINR deviates by {err:.3g} relative")


def check_equalised(sinr_values: np.ndarray, spread_rel: float = 5e-4) -> None:
    """Max-min optimum equalises the users: spread <= spread_rel * min."""
    low = float(np.min(sinr_values))
    spread = float(np.max(sinr_values)) - low
    if not spread <= spread_rel * low:
        raise CheckError(f"SINR spread {spread:.3g} exceeds "
                         f"{spread_rel} x min {low:.3g}")


def check_dominance(beta: np.ndarray, label_sinr: np.ndarray,
                    candidates: np.ndarray, rho_d: float, rho_u: float,
                    tau: int, rel_tol: float = 1e-4) -> None:
    """No equal-power or other feasible candidate beats the label's min SINR.

    candidates: (n, M, K) feasible allocations; equal power is added here.
    rel_tol allows for the solver's final bracket width.
    """
    num_aps, num_ues = beta.shape
    label = float(np.min(label_sinr))
    equal = np.full((num_aps, num_ues), 1.0 / num_ues)
    for who, etas in (("equal power", equal[None]), ("a random allocation",
                                                     candidates)):
        best = float(np.max(sinr(beta, etas, rho_d, rho_u, tau).min(axis=-1)))
        if label < best * (1.0 - rel_tol):
            raise CheckError(f"label min SINR {label:.6g} is beaten by {who} "
                             f"({best:.6g})")


def check_label(beta: np.ndarray, eta: np.ndarray, label_sinr: np.ndarray,
                candidates: np.ndarray, rho_d: float, rho_u: float,
                tau: int) -> None:
    """Every property a max-min label must have."""
    check_budget(eta)
    check_sinr(beta, eta, label_sinr, rho_d, rho_u, tau)
    check_equalised(label_sinr)
    check_dominance(beta, label_sinr, candidates, rho_d, rho_u, tau)


def check_equivariant(eta: np.ndarray, eta_permuted: np.ndarray,
                      ap_perm: np.ndarray, ue_perm: np.ndarray,
                      rel_tol: float = 1e-9) -> None:
    """Permuting APs and users of the input permutes the output the same way."""
    expected = eta[ap_perm][:, ue_perm]
    if not np.allclose(eta_permuted, expected, rtol=rel_tol, atol=0.0):
        err = float(np.max(np.abs(eta_permuted - expected) / expected))
        raise CheckError(f"output is not permutation equivariant "
                         f"({err:.3g} relative)")


def check_batch_agreement(single: np.ndarray, batched: np.ndarray,
                          rel_tol: float = 1e-9) -> None:
    """Single-sample calls give what one batched call gives."""
    if single.shape != batched.shape:
        raise CheckError(f"shapes differ: {single.shape} vs {batched.shape}")
    if not np.allclose(single, batched, rtol=rel_tol, atol=0.0):
        err = float(np.max(np.abs(single - batched) / batched))
        raise CheckError(f"single-sample and batched outputs differ "
                         f"({err:.3g} relative)")


def check_cdf_order(se_by_method: dict[str, np.ndarray],
                    rel_tol: float = 2e-4) -> None:
    """The lowest optimal SE is not below the lowest GNN or equal-power SE.

    Each label is the max-min optimum of its sample, so its worst user is at
    least as good as the worst user of any feasible allocation; compared in
    SINR space with the solver's bracket width as slack.
    """
    floor = float(np.exp2(np.min(se_by_method["optimal"])) - 1.0)
    for method in ("gnn", "equal_power"):
        other = float(np.exp2(np.min(se_by_method[method])) - 1.0)
        if floor < other * (1.0 - rel_tol):
            raise CheckError(f"lowest optimal SINR {floor:.6g} is below the "
                             f"lowest {method} SINR {other:.6g}")
