"""Large-scale fading generation for cell-free massive MIMO scenarios.

`draw_fading`, the one draw path, places M single-antenna access points and
K single-antenna users uniformly at random inside a disc.  The large-scale
fading coefficient between AP m and user k is

    beta[m, k] = 10 ** (-(PL(d_mk) + X_mk) / 10)

where PL is a log-distance path loss in dB and X_mk is i.i.d. log-normal
shadow fading.  All coefficients are kept in linear scale; downstream code
works with log2(beta) when it needs a compressed dynamic range.

Conventions used throughout the package:
    * beta has shape (M, K): rows are APs, columns are users.
    * Distances are in metres, powers in mW, bandwidth in Hz.
    * rho_d and rho_u are transmit powers normalised by the noise power.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

BOLTZMANN_J_PER_K = 1.380649e-23
# Distances below this are clamped up to it before the path loss is
# evaluated, which keeps the near-field singularity out of the model.
MIN_DISTANCE_M = 5.0


@dataclass(frozen=True)
class Morphology:
    """Propagation environment for the log-distance path loss model.

    path_loss_db(d) = pl_intercept_db + 10 * pl_exponent * log10(d metres),
    with log-normal shadowing of standard deviation shadow_sigma_db.
    """

    name: str
    radius_m: float
    pl_exponent: float
    pl_intercept_db: float
    shadow_sigma_db: float

    def __post_init__(self) -> None:
        if self.radius_m <= 0:
            raise ValueError(f"radius_m must be positive, got {self.radius_m}")
        if self.pl_exponent <= 0:
            raise ValueError(f"pl_exponent must be positive, got {self.pl_exponent}")
        if self.shadow_sigma_db < 0:
            raise ValueError(f"shadow_sigma_db must be >= 0, got {self.shadow_sigma_db}")


MORPHOLOGIES: dict[str, Morphology] = {
    "urban": Morphology("urban", radius_m=500.0, pl_exponent=3.67,
                        pl_intercept_db=30.5, shadow_sigma_db=8.0),
    "suburban": Morphology("suburban", radius_m=1000.0, pl_exponent=3.91,
                           pl_intercept_db=19.0, shadow_sigma_db=8.0),
    "rural": Morphology("rural", radius_m=4000.0, pl_exponent=3.91,
                        pl_intercept_db=14.0, shadow_sigma_db=8.0),
}


class RadioDefaults:
    """Link-budget constants used to derive the normalised powers.

    This is the one link budget of the package; every K-user scenario uses
    tau = K orthogonal pilots, one per user.
    """

    TX_POWER_DL_MW = 200.0
    TX_POWER_UL_MW = 100.0
    BANDWIDTH_HZ = 20e6
    NOISE_FIGURE_DB = 9.0
    TEMPERATURE_K = 290.0

    @classmethod
    def noise_power_mw(cls) -> float:
        noise_figure = 10.0 ** (cls.NOISE_FIGURE_DB / 10.0)
        watts = BOLTZMANN_J_PER_K * cls.TEMPERATURE_K * cls.BANDWIDTH_HZ * noise_figure
        return watts * 1e3

    @classmethod
    def rho_d(cls) -> float:
        """Downlink transmit power normalised by the noise power."""
        return cls.TX_POWER_DL_MW / cls.noise_power_mw()

    @classmethod
    def rho_u(cls) -> float:
        """Uplink pilot transmit power normalised by the noise power."""
        return cls.TX_POWER_UL_MW / cls.noise_power_mw()


def _uniform_disc(rng: np.random.Generator, n: int, radius: float) -> np.ndarray:
    """Draw n points uniformly over a disc of the given radius.

    Radius uses the sqrt transform so that density is uniform over area.
    Draw order (radii first, then angles) is part of the determinism contract.
    """
    r = radius * np.sqrt(rng.random(n))
    theta = 2.0 * np.pi * rng.random(n)
    return np.column_stack((r * np.cos(theta), r * np.sin(theta)))


def path_loss_db(distance_m: np.ndarray | float, morphology: Morphology) -> np.ndarray | float:
    """Log-distance path loss in dB at the given distance(s) in metres."""
    d = np.asarray(distance_m, dtype=float)
    if np.any(d <= 0):
        raise ValueError("distances must be positive")
    out = morphology.pl_intercept_db + 10.0 * morphology.pl_exponent * np.log10(d)
    return float(out) if np.isscalar(distance_m) else out


def generate_fading(ap_positions: np.ndarray, ue_positions: np.ndarray,
                    morphology: Morphology, rng: np.random.Generator) -> np.ndarray:
    """Large-scale fading matrix beta with shape (M, K), linear scale.

    Positions are (M, 2) and (K, 2) arrays in metres.  Distances are
    clamped up to MIN_DISTANCE_M.  Shadow fading draws one normal per
    (AP, user) pair in row-major order.
    """
    diff = ap_positions[:, None, :] - ue_positions[None, :, :]
    dist = np.sqrt(np.sum(diff * diff, axis=-1))
    dist = np.maximum(dist, MIN_DISTANCE_M)
    pl = path_loss_db(dist, morphology)
    shadow = rng.standard_normal(dist.shape) * morphology.shadow_sigma_db
    return 10.0 ** (-(pl + shadow) / 10.0)


def draw_fading(num_aps: int, num_ues: int, morphology: str,
                rng: np.random.Generator) -> np.ndarray:
    """One fading realisation: APs, then users, uniform over the morphology's
    disc, then shadow fading, all drawn from `rng` in that order."""
    if morphology not in MORPHOLOGIES:
        raise ValueError(f"unknown morphology {morphology!r}; "
                         f"expected one of {sorted(MORPHOLOGIES)}")
    if num_aps < 1:
        raise ValueError(f"num_aps must be >= 1, got {num_aps}")
    if num_ues < 1:
        raise ValueError(f"num_ues must be >= 1, got {num_ues}")
    morph = MORPHOLOGIES[morphology]
    aps = _uniform_disc(rng, num_aps, morph.radius_m)
    ues = _uniform_disc(rng, num_ues, morph.radius_m)
    return generate_fading(aps, ues, morph, rng)
