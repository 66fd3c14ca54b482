"""Path loss, deployment geometry, shadow fading statistics, determinism."""

import math

import numpy as np
import pytest

from cfgnn.channel import (
    MIN_DISTANCE_M,
    MORPHOLOGIES,
    Morphology,
    RadioDefaults,
    _uniform_disc,
    draw_fading,
    generate_fading,
    path_loss_db,
)
from oracle import fading_instance

BOLTZMANN = 1.380649e-23


def test_path_loss_at_one_metre_is_the_intercept():
    for morph in MORPHOLOGIES.values():
        assert path_loss_db(1.0, morph) == pytest.approx(morph.pl_intercept_db)


def test_path_loss_direct_value():
    morph = Morphology("test", radius_m=100.0, pl_exponent=3.5,
                       pl_intercept_db=30.0, shadow_sigma_db=0.0)
    assert path_loss_db(10.0, morph) == pytest.approx(65.0)


def test_path_loss_decade_slope():
    morph = Morphology("test", radius_m=100.0, pl_exponent=3.5,
                       pl_intercept_db=30.0, shadow_sigma_db=0.0)
    assert path_loss_db(100.0, morph) - path_loss_db(10.0, morph) == pytest.approx(35.0)
    rng = np.random.default_rng(0)
    for morph in MORPHOLOGIES.values():
        d = rng.uniform(1.0, 1000.0, size=20)
        slope = path_loss_db(10.0 * d, morph) - path_loss_db(d, morph)
        np.testing.assert_allclose(slope, 10.0 * morph.pl_exponent, rtol=1e-12)


def test_path_loss_rejects_nonpositive_distance():
    with pytest.raises(ValueError):
        path_loss_db(0.0, MORPHOLOGIES["urban"])
    with pytest.raises(ValueError):
        path_loss_db(np.array([1.0, -2.0]), MORPHOLOGIES["urban"])


def test_zero_shadow_zero_intercept_unit_distance_clamps_to_five_metres():
    """Free-space exponent 2, no intercept: beta = d**-2 with d clamped to 5 m."""
    morph = Morphology("flat", radius_m=10.0, pl_exponent=2.0,
                       pl_intercept_db=0.0, shadow_sigma_db=0.0)
    beta = generate_fading(np.array([[0.0, 0.0]]), np.array([[1.0, 0.0]]),
                           morph, np.random.default_rng(0))
    assert MIN_DISTANCE_M == 5.0
    assert beta[0, 0] == pytest.approx(5.0 ** -2)


def test_beta_decreases_with_distance_without_shadowing():
    morph = Morphology("flat", radius_m=100.0, pl_exponent=3.0,
                       pl_intercept_db=20.0, shadow_sigma_db=0.0)
    ues = np.array([[5.0, 0.0], [10.0, 0.0], [20.0, 0.0], [90.0, 0.0]])
    beta = generate_fading(np.array([[0.0, 0.0]]), ues, morph,
                           np.random.default_rng(0))[0]
    assert np.all(np.diff(beta) < 0)


def test_shadow_fading_empirical_mean():
    """10*log10(beta) + PL averages to 0 dB within 0.1 dB over 1e5 draws."""
    morph = MORPHOLOGIES["urban"]
    ues = np.tile([100.0, 0.0], (100_000, 1))
    betas = generate_fading(np.array([[0.0, 0.0]]), ues, morph,
                            np.random.default_rng(123))[0]
    residual = 10.0 * np.log10(betas) + path_loss_db(100.0, morph)
    assert abs(residual.mean()) < 0.1
    assert residual.std() == pytest.approx(morph.shadow_sigma_db, rel=0.02)


def test_deployment_positions_inside_disc():
    radius = MORPHOLOGIES["rural"].radius_m
    rng = np.random.default_rng(7)
    for n in (40, 25) * 5:
        points = _uniform_disc(rng, n, radius)
        assert points.shape == (n, 2)
        assert np.all(np.linalg.norm(points, axis=1) <= radius)


def test_fading_deterministic_and_positive():
    a = fading_instance(6, 4, 99, "suburban", index=3)
    b = fading_instance(6, 4, 99, "suburban", index=3)
    np.testing.assert_array_equal(a, b)
    assert np.all(a > 0)
    c = fading_instance(6, 4, 99, "suburban", index=4)
    assert not np.array_equal(a, c)


def test_min_distance_clamps_path_loss():
    morph = Morphology("flat", radius_m=100.0, pl_exponent=3.0,
                       pl_intercept_db=20.0, shadow_sigma_db=0.0)
    beta = generate_fading(np.array([[0.0, 0.0]]), np.array([[0.0, 0.0]]),
                           morph, np.random.default_rng(0))
    expected = 10.0 ** (-path_loss_db(5.0, morph) / 10.0)
    assert beta[0, 0] == pytest.approx(expected)


def test_radio_defaults_noise_and_power_ratios():
    radio = RadioDefaults()
    expected_noise_mw = (BOLTZMANN * 290.0 * 20e6 * 10 ** (9.0 / 10.0)) * 1e3
    assert radio.noise_power_mw() == pytest.approx(expected_noise_mw)
    assert radio.rho_d() == pytest.approx(200.0 / expected_noise_mw)
    assert radio.rho_d() / radio.rho_u() == pytest.approx(2.0)


def test_draw_fading_order_and_validation():
    """APs, then users, then shadow fading, all from the one stream."""
    morph = MORPHOLOGIES["urban"]
    rng = np.random.default_rng(5)
    aps = _uniform_disc(rng, 8, morph.radius_m)
    ues = _uniform_disc(rng, 3, morph.radius_m)
    want = generate_fading(aps, ues, morph, rng)
    got = draw_fading(8, 3, "urban", np.random.default_rng(5))
    assert got.shape == (8, 3)
    np.testing.assert_array_equal(got, want)
    for args in ((8, 3, "desert"), (0, 3, "urban"), (8, 0, "urban")):
        with pytest.raises(ValueError):
            draw_fading(*args, np.random.default_rng(0))
