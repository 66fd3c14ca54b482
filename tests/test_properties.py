"""Property tests: the invariances the solver, projection and files rely on.

Examples are derandomized (the same draws on every run) and kept few enough
for the file to finish in well under 30 s.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from cfgnn import maxmin
from cfgnn.channel import MORPHOLOGIES, RadioDefaults
from cfgnn.data import (NormStats, Sample, generate_unlabeled,
                        sample_from_json, sample_to_json)
from cfgnn.engine import project_powers
from cfgnn.maxmin import solve_maxmin
from cfgnn.model import init_model, load_checkpoint, save_checkpoint
from cfgnn.sinr import compute_alpha, compute_sinr, is_feasible
from oracle import brute_force_maxmin, fading_instance, feasibility_check, sinr_cap

PROPERTY = settings(derandomize=True, deadline=None, database=None)
RHO_D, RHO_U = RadioDefaults.rho_d(), RadioDefaults.rho_u()


@st.composite
def instances(draw):
    """(beta, K) for one fading draw with M <= 4, K <= 3, any morphology."""
    m = draw(st.integers(1, 4))
    k = draw(st.integers(1, 3))
    morphology = draw(st.sampled_from(sorted(MORPHOLOGIES)))
    seed = draw(st.integers(0, 2**32 - 1))
    return fading_instance(m, k, seed, morphology), k


@settings(PROPERTY, max_examples=40)
@given(instances())
# Two rural draws whose bracket closes before their SINRs are equal: about
# 2 in 900 draws of this space, too rare for 40 examples to meet.
@example((fading_instance(1, 3, 3, "rural"), 3))
@example((fading_instance(2, 3, 21, "rural"), 3))
def test_solver_returns_feasible_powers(instance):
    beta, k = instance
    sol = solve_maxmin(beta)
    assert sol.converged
    assert is_feasible(sol.eta)
    alpha = compute_alpha(beta, RHO_U, k)
    sinr = compute_sinr(beta, alpha, sol.eta, RHO_D)
    assert np.all(sinr > 0)
    assert float(sinr.min()) == pytest.approx(sol.t_star, rel=1e-12)


@settings(PROPERTY, max_examples=25)
@given(instances())
# The draws above the dense size constant, the last the benchmark's 32x9
# instance, on which the bound answers 11 of 25 probes.
@example((fading_instance(16, 5, 7, "rural"), 5))
@example((fading_instance(24, 8, 4, "suburban"), 8))
@example((generate_unlabeled([(32, 9, "urban", 1)], run_seed=2017)[0].beta, 9))
def test_sinr_cap_is_sound(instance):
    """The bound that answers far-infeasible probes is at or above the
    solver's optimum and the grid oracle's, and the barrier alone, with the
    bound switched off, finds no allocation 1e-5 above it."""
    beta, _ = instance
    cap = sinr_cap(beta)
    assert cap >= solve_maxmin(beta).t_star
    if beta.size <= 6:
        assert cap >= brute_force_maxmin(beta, grid_step=0.1).t_star
    with mock.patch.object(maxmin, "_sinr_cap", return_value=math.inf):
        assert feasibility_check(beta, cap * (1.0 + 1e-5)) is None


@settings(PROPERTY, max_examples=15)
@given(instances(), st.randoms(use_true_random=False))
def test_solver_optimum_is_permutation_invariant(instance, rnd):
    beta, k = instance
    ap_perm = rnd.sample(range(beta.shape[0]), beta.shape[0])
    ue_perm = rnd.sample(range(k), k)
    t_star = solve_maxmin(beta).t_star
    t_perm = solve_maxmin(beta[ap_perm][:, ue_perm]).t_star
    assert abs(t_perm - t_star) <= 2e-4 * t_star


@settings(PROPERTY, max_examples=60)
@given(arrays(float, st.tuples(st.integers(1, 3), st.integers(1, 5),
                               st.integers(1, 4)),
              elements=st.floats(-20.0, 20.0)),
       st.floats(-100.0, 100.0), st.floats(0.1, 5.0))
def test_projection_is_feasible_and_idempotent(raw, out_mean, out_std):
    eta = project_powers(raw, NormStats(0.0, 1.0, out_mean, out_std))
    assert np.all(eta >= 0)
    assert np.all(eta.sum(axis=-1) <= 1.0)   # exact, no tolerance
    again = project_powers(np.log2(eta), NormStats(0.0, 1.0, 0.0, 1.0))
    np.testing.assert_allclose(again, eta, rtol=1e-12)


finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def samples(draw):
    m, k = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    beta = draw(arrays(float, (m, k), elements=st.floats(
        min_value=0.0, exclude_min=True, allow_infinity=False)))
    sample = Sample(num_aps=m, num_ues=k,
                    morphology=draw(st.sampled_from(sorted(MORPHOLOGIES))),
                    seed=draw(st.integers(0, 2**64 - 1)), beta=beta)
    if draw(st.booleans()):
        sample.eta_opt = draw(arrays(float, (m, k), elements=st.floats(
            min_value=0.0, allow_infinity=False)))
        sample.sinr_opt = draw(arrays(float, (k,), elements=st.floats(
            min_value=0.0, exclude_min=True, allow_infinity=False)))
    return sample


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and \
        a.tobytes() == b.tobytes()


@settings(PROPERTY, max_examples=100)
@given(samples())
def test_jsonl_round_trip_is_bit_exact(sample):
    line = sample_to_json(sample)
    back = sample_from_json(line)
    assert (back.num_aps, back.num_ues, back.morphology, back.seed) == \
        (sample.num_aps, sample.num_ues, sample.morphology, sample.seed)
    assert _same_bits(back.beta, sample.beta)
    assert back.labeled == sample.labeled
    if sample.labeled:
        assert _same_bits(back.eta_opt, sample.eta_opt)
        assert _same_bits(back.sinr_opt, sample.sinr_opt)
    assert sample_to_json(back) == line


@settings(PROPERTY, max_examples=10)
@given(st.integers(0, 2**32 - 1), arrays(float, (2, 3), elements=finite),
       st.floats(-64.0, 64.0), st.floats(1e-6, 64.0))
def test_checkpoint_round_trip_is_bit_exact(tmp_path_factory, seed, moment,
                                            mean, std):
    model = init_model(seed=seed, norm=NormStats(mean, std, -mean, std))
    model.params["out.b"] = moment[0, :1].copy()
    path = tmp_path_factory.mktemp("ckpt") / "ckpt.json"
    save_checkpoint(model, str(path), extra_arrays={"adam_m.x": moment},
                    extra={"epoch": seed})
    loaded, rest = load_checkpoint(str(path))
    assert loaded.norm == model.norm
    for name, p in model.params.items():
        assert _same_bits(loaded.params[name], p), name
    assert _same_bits(rest["extra_arrays"]["adam_m.x"], moment)
    assert rest["extra"]["epoch"] == seed
