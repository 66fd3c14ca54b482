"""Bisection solver against closed forms, the grid oracle, and baselines."""

import hashlib
import json
import subprocess
import sys
import tracemalloc
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
    "1x1:urban#0": "64cfa7905361e7a0",
    "1x1:urban#1": "5da99eb5c65fe2d2",
    "1x1:urban#2": "4ca01b58ca1e2e0b",
    "1x1:urban#3": "f4ddcc962837ca09",
    "1x1:suburban#0": "b72f51b9e139fb0c",
    "1x1:suburban#1": "27710470a6f14fe5",
    "1x1:suburban#2": "eb9f76f292e2080c",
    "1x1:suburban#3": "c7a00402e25c4e5b",
    "1x1:rural#0": "f78b2eb5287d5efe",
    "1x1:rural#1": "fc15e6f275d412b0",
    "1x1:rural#2": "7d69fdd56e168931",
    "1x1:rural#3": "b83c6da07e9f5d0b",
    "2x3:urban#0": "5e03fc480de21cb8",
    "2x3:urban#1": "243e07dce53dfe7d",
    "2x3:urban#2": "a6b2782b6610e488",
    "2x3:urban#3": "ddf9c6d3714ab5b2",
    "2x3:suburban#0": "df13d4f3a073bfb2",
    "2x3:suburban#1": "0207348dbbfb33c4",
    "2x3:suburban#2": "71d958d882806792",
    "2x3:suburban#3": "049fc40e61f3e164",
    "2x3:rural#0": "4d092f201f05ee25",
    "2x3:rural#1": "92118b39ca78f753",
    "2x3:rural#2": "c1f09a4fecd5a7f2",
    "2x3:rural#3": "3926770d223460d1",
    "3x2:urban#0": "745ac01ad397d409",
    "3x2:urban#1": "63f3acd6e41a2ccf",
    "3x2:urban#2": "13288b0f8eb349ca",
    "3x2:urban#3": "69267a4ced86d3b2",
    "3x2:suburban#0": "638291fb005b65f9",
    "3x2:suburban#1": "f9d067c778c34174",
    "3x2:suburban#2": "23fef7a925607efc",
    "3x2:suburban#3": "ccd54c453423c0be",
    "3x2:rural#0": "749b1c4d96fa864f",
    "3x2:rural#1": "52fb859af6addaaa",
    "3x2:rural#2": "edb98f1b97510615",
    "3x2:rural#3": "6c5bdd1acdfe217a",
    "4x3:urban#0": "7e2238b550c581ff",
    "4x3:urban#1": "9115602763712e6a",
    "4x3:urban#2": "a0ccfbf006bb7e3b",
    "4x3:urban#3": "a819ba0be56404fc",
    "4x3:suburban#0": "651403f665739a48",
    "4x3:suburban#1": "60039aad9321d17f",
    "4x3:suburban#2": "ca24e73efe94ad1f",
    "4x3:suburban#3": "47bd386be000d0f7",
    "4x3:rural#0": "4fb5e7920d9ee391",
    "4x3:rural#1": "78cce1cf8f9d787d",
    "4x3:rural#2": "18bc176a05215677",
    "4x3:rural#3": "5f85ea72cb8f36c0",
    "8x3:urban#0": "5b21994a92e8bf63",
    "8x3:urban#1": "8026e276e9415f1d",
    "8x3:urban#2": "27c9db06e0fac929",
    "8x3:urban#3": "689cb039d00f3e78",
    "8x3:suburban#0": "5f1aae3f23303309",
    "8x3:suburban#1": "6e0f7fd4d9287956",
    "8x3:suburban#2": "4ddbbfabfc1e3bb9",
    "8x3:suburban#3": "e0759df448d2c90f",
    "8x3:rural#0": "e026a2590272c7a4",
    "8x3:rural#1": "c2d59722ec591aa4",
    "8x3:rural#2": "1e5fda9d33a76c68",
    "8x3:rural#3": "20d1bd7f021e3dcc",
    "16x5:rural": "003489299d2f9764",
    "24x8:suburban": "540923c85c29c3af",
    "equalised#0": "89f94e7a5cb8ee75",
    "equalised#1": "994ca2d1cdf3d860",
    "equalised#2": "de826f805a2cd4fc",
    "equalised#3": "50135600840fee22",
}


def test_solver_bits_are_pinned_on_every_branch(monkeypatch):
    """Each draw's t_star, iterations, converged flag, eta and sinr bytes,
    FLOP tallies and Newton event counts, hashed to 16 hex digits.  A
    failure lists the draws whose solve moved."""
    margin_solve = maxmin._margin_solve
    weak_starts = []

    def recorded(sa, bs, t, counter, sig_init=None, full_center=False):
        if sig_init is None and t != maxmin._T_FLOOR:
            weak_starts.append(t)
        return margin_solve(sa, bs, t, counter, sig_init=sig_init,
                            full_center=full_center)

    monkeypatch.setattr(maxmin, "_margin_solve", recorded)
    got = {}
    for name, beta in _sweep_draws().items():
        counter = FlopCounter()
        sol = solve_maxmin(beta, counter=counter)
        digest = hashlib.sha256(repr((
            sol.t_star.hex(), sol.iterations, sol.converged,
            counter.multiplies, counter.adds, counter.newton_dense_fallbacks,
            counter.newton_retries, counter.newton_fallbacks)).encode())
        digest.update(sol.eta.tobytes())
        digest.update(sol.sinr.tobytes())
        got[name] = digest.hexdigest()[:16]
    assert len(weak_starts) == 17
    assert sorted(name for name in got if got[name] != _SWEEP_PINS.get(name)) == []
    assert got.keys() == _SWEEP_PINS.keys()


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
systems = []
direction = maxmin._newton_direction

def counted(*args):
    systems.append(1)
    return direction(*args)

maxmin._newton_direction = counted
counter = Counter()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
sol = solve_maxmin(beta, counter=counter)
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
print(json.dumps({"t_star": sol.t_star, "iterations": sol.iterations,
                  "eta_sha256": hashlib.sha256(sol.eta.tobytes()).hexdigest(),
                  "lu_calls": counter.lu_calls, "systems": len(systems),
                  "dense_fallbacks": counter.newton_dense_fallbacks,
                  "minflt": faults}))
"""


def test_benchmark_32x9_instance_golden_and_fault_budget():
    """The benchmark's label-32x9 instance, solved in a fresh one-BLAS-thread
    process after a warm-up 8x3 solve: golden bits and Newton systems, and a
    fault budget.  32x9 is above the size constant, so every system takes
    the structured step, and the LU calls are its 2K x 2K capacitance
    solves: one per system plus one per refinement correction.  The dense
    step gave t_star = 2.186903999942864 in 24 bisection steps and 847
    systems.
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
    assert (got["systems"], got["dense_fallbacks"]) == (797, 0)
    assert got["lu_calls"] == 921
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
