"""Hand-written reverse-mode gradients against central finite differences.

The comparison metric matches how near-zero gradients behave under FD: a
relative bound for healthy magnitudes with an absolute floor of 1e-8, since
analytically-zero gradients (for example the attention key biases, which
cancel through the softmax row shift) show only rounding noise under FD.
"""

import numpy as np
import pytest

from cfgnn.data import NormStats, normalize_input
from cfgnn.engine import backward, forward
from cfgnn.graph import build_graph
from cfgnn.model import LayerPlan, init_model
from cfgnn.training import loss_and_grads
from oracle import fading_instance

FD_STEP = 1e-5
REL_TOL = 1e-4
ABS_FLOOR = 1e-8


def _fd_ok(fd, an):
    diff = abs(fd - an)
    return diff <= ABS_FLOOR or diff / max(abs(fd), abs(an)) <= REL_TOL


def _surrogate_loss(model, graph, x, w):
    y = forward(graph, x, model)
    return float(np.sum(w * y * y))


def _surrogate_grads(model, graph, x, w):
    y, tape = forward(graph, x, model, want_tape=True)
    return backward(model, tape, 2.0 * w * y)


def test_network_gradients_match_finite_differences():
    graph = build_graph(4, 3)
    model = init_model(seed=11, norm=NormStats(0.0, 1.0, 0.0, 1.0))
    rng = np.random.default_rng(4)
    x = rng.standard_normal((2, 4, 3))
    w = rng.standard_normal((2, 4, 3))
    grads = _surrogate_grads(model, graph, x, w)
    pick = np.random.default_rng(3)
    checked = 0
    for name, p in model.params.items():
        flat = p.reshape(-1)
        for idx in pick.choice(flat.size, size=min(2, flat.size), replace=False):
            orig = flat[idx]
            flat[idx] = orig + FD_STEP
            up = _surrogate_loss(model, graph, x, w)
            flat[idx] = orig - FD_STEP
            down = _surrogate_loss(model, graph, x, w)
            flat[idx] = orig
            fd = (up - down) / (2 * FD_STEP)
            an = grads[name].reshape(-1)[idx]
            assert _fd_ok(fd, an), f"{name}[{idx}]: fd {fd:.3e} vs {an:.3e}"
            checked += 1
    assert checked >= 100


def test_full_loss_chain_gradients_match_finite_differences():
    """FD check through denormalization, the SINR map, and the MSE loss."""
    m, k, batch = 3, 2, 2
    betas = np.stack([fading_instance(m, k, 7, index=i) for i in range(batch)])
    stats = NormStats(in_mean=float(np.log2(betas).mean()),
                      in_std=float(np.log2(betas).std()),
                      out_mean=-3.0, out_std=1.5)
    x = np.stack([normalize_input(b, stats) for b in betas])
    sinr_opt = np.random.default_rng(5).uniform(0.5, 3.0, size=(batch, k))
    model = init_model(seed=9, norm=stats)

    def loss_value():
        loss, _, _ = loss_and_grads(model, x, betas, sinr_opt)
        return loss

    _, grads, _ = loss_and_grads(model, x, betas, sinr_opt)
    pick = np.random.default_rng(2)
    for name, p in model.params.items():
        flat = p.reshape(-1)
        idx = int(pick.integers(flat.size))
        orig = flat[idx]
        flat[idx] = orig + FD_STEP
        up = loss_value()
        flat[idx] = orig - FD_STEP
        down = loss_value()
        flat[idx] = orig
        fd = (up - down) / (2 * FD_STEP)
        an = grads[name].reshape(-1)[idx]
        assert _fd_ok(fd, an), f"{name}[{idx}]: fd {fd:.3e} vs {an:.3e}"


def test_zero_residual_gives_zero_gradients():
    m, k = 3, 2
    beta = fading_instance(m, k, 11)[None]
    stats = NormStats(-30.0, 4.0, -3.0, 1.5)
    x = normalize_input(beta[0], stats)[None]
    model = init_model(seed=4, norm=stats)
    # use the model's own predictions as the target: residual is exactly zero
    loss0, _, sinr_pred = loss_and_grads(model, x, beta, np.zeros((1, k)))
    loss, grads, _ = loss_and_grads(model, x, beta, sinr_pred)
    assert loss == 0.0
    for name, g in grads.items():
        np.testing.assert_array_equal(g, np.zeros_like(g), err_msg=name)


def test_unused_neighbor_maps_have_exactly_zero_gradient():
    """At M=1 the same-user neighbourhoods are empty, so the UE-type value,
    query, and key maps never touch the output."""
    graph = build_graph(1, 4)
    model = init_model(seed=6, norm=NormStats(0.0, 1.0, 0.0, 1.0))
    rng = np.random.default_rng(3)
    x = rng.standard_normal((1, 4))
    w = rng.standard_normal((1, 4))
    grads = _surrogate_grads(model, graph, x[None], w[None])
    for name, g in grads.items():
        if ".ue." in name and any(s in name for s in
                                  (".w2", ".b2", ".w3", ".b3", ".w4", ".b4")):
            np.testing.assert_array_equal(g, np.zeros_like(g), err_msg=name)
        assert np.all(np.isfinite(g))


def test_key_bias_gradient_is_analytically_zero():
    """Shifting every logit in a softmax row by a constant changes nothing,
    and the key bias enters each row's logits only through such a shift."""
    graph = build_graph(3, 3)
    model = init_model(seed=8, norm=NormStats(0.0, 1.0, 0.0, 1.0))
    rng = np.random.default_rng(4)
    x = rng.standard_normal((2, 3, 3))
    w = rng.standard_normal((2, 3, 3))
    grads = _surrogate_grads(model, graph, x, w)
    for name, g in grads.items():
        if name.endswith(".b4"):
            assert np.max(np.abs(g)) < 1e-12, name


def test_gradient_shapes_match_parameters():
    graph = build_graph(2, 2)
    model = init_model(seed=1, norm=NormStats(0.0, 1.0, 0.0, 1.0))
    x = np.zeros((2, 2))
    y, tape = forward(graph, x, model, want_tape=True)
    grads = backward(model, tape, np.ones_like(y))
    assert set(grads) == set(model.params)
    for name, g in grads.items():
        assert g.shape == model.params[name].shape, name


def test_single_sample_tape_gives_the_batch_of_one_gradients():
    """A 2-D forward's tape holds the input as a (1, M, K) batch, and
    backward through it gives the bits of the (1, M, K) call's gradients."""
    graph = build_graph(4, 3)
    model = init_model(seed=4, norm=NormStats(0.0, 1.0, 0.0, 1.0))
    rng = np.random.default_rng(43)
    x = rng.standard_normal((4, 3))
    dy = rng.standard_normal((4, 3))
    y, tape = forward(graph, x, model, want_tape=True)
    y_b, tape_b = forward(graph, x[None], model, want_tape=True)
    assert tape.keys() == tape_b.keys() == {"x", "layers"}
    assert tape["x"].shape == (1, 4, 3)
    assert y.tobytes() == y_b[0].tobytes()
    grads = backward(model, tape, dy)
    grads_b = backward(model, tape_b, dy[None])
    assert list(grads) == list(grads_b)
    for name, g in grads_b.items():
        assert grads[name].tobytes() == g.tobytes(), name
