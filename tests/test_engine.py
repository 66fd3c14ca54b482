"""Forward pass: attention, typed aggregation, layer transitions, projection.

The batched kernels are validated against the slow per-node reference in
`reference` and against hand-computed values on tiny configurations, plus a
frozen-seed golden vector that pins down the exact numerics.  The in-place
attention kernels and the streamed checkpoint writer are held bit for bit to
the straightforward versions in `oracle`.
"""

import json
import math
import tracemalloc

import numpy as np
import pytest

from cfgnn import engine
from cfgnn.data import NormStats
from cfgnn.engine import backward, count_flops, forward, project_powers
from cfgnn.flops import FlopCounter
from cfgnn.graph import build_graph
from cfgnn.model import LayerPlan, init_model, load_checkpoint, save_checkpoint
from cfgnn.training import TrainConfig
import oracle
from reference import (
    attention_weights,
    forward_reference,
    head_params,
    layer_forward,
    neighbor_graph,
    typed_aggregate,
)

NORM = NormStats(0.0, 1.0, -2.0, 1.0)


def test_attention_single_neighbor_weight_one():
    w3 = np.eye(1)
    b3 = np.zeros(1)
    w = attention_weights(np.array([1.0]), np.array([[3.0]]), w3, b3, w3, b3)
    np.testing.assert_allclose(w, [1.0])


def test_attention_identical_neighbors_uniform():
    w3 = np.eye(2)
    b3 = np.zeros(2)
    h_n = np.tile(np.array([0.3, -1.2]), (5, 1))
    w = attention_weights(np.array([0.7, 0.1]), h_n, w3, b3, w3, b3)
    np.testing.assert_allclose(w, np.full(5, 0.2), rtol=1e-15)


def test_attention_hand_softmax():
    """Logits (0, ln 3) over two neighbours give weights (0.25, 0.75)."""
    w3 = np.eye(1)
    b3 = np.zeros(1)
    w4 = np.eye(1)
    b4 = np.zeros(1)
    h_i = np.array([1.0])
    h_n = np.array([[0.0], [math.log(3.0)]])
    w = attention_weights(h_i, h_n, w3, b3, w4, b4)
    np.testing.assert_allclose(w, [0.25, 0.75], rtol=1e-14)


def test_attention_requires_neighbors():
    w3 = np.eye(1)
    with pytest.raises(ValueError):
        attention_weights(np.array([1.0]), np.zeros((0, 1)), w3,
                          np.zeros(1), w3, np.zeros(1))


def _tiny_model():
    plan = LayerPlan(sizes=(1, 2, 1))
    return init_model(plan, seed=7, norm=NORM)


def test_typed_aggregate_zero_value_maps_leave_self_term():
    model = _tiny_model()
    graph = neighbor_graph(2, 2)
    for name in list(model.params):
        if ".w2" in name or ".b2" in name:
            model.params[name][:] = 0.0
    features = np.random.default_rng(0).standard_normal((4, 1))
    for node in range(4):
        got = typed_aggregate(node, features, graph, "ap", model, 0)
        want = np.concatenate([
            head_params(model, 0, "ap", c).w1 @ features[node]
            + head_params(model, 0, "ap", c).b1
            for c in range(model.plan.heads)])
        np.testing.assert_allclose(got, want, rtol=1e-14)


def test_typed_aggregate_hand_weighted_sum():
    """Two neighbours at weights (0.25, 0.75): aggregate matches by hand."""
    plan = LayerPlan(sizes=(1, 2, 1))
    model = init_model(plan, seed=0, norm=NORM)
    graph = neighbor_graph(3, 1)   # node 0 has UE neighbours 1 and 2
    for c in range(2):
        pre = f"layer00.ue"
        model.params[f"{pre}.w1"][c] = 0.0
        model.params[f"{pre}.b1"][c] = 0.0
        model.params[f"{pre}.w2"][c] = 1.0   # value = h_j
        model.params[f"{pre}.b2"][c] = 0.0
        model.params[f"{pre}.w3"][c] = 1.0   # query = h_i
        model.params[f"{pre}.b3"][c] = 0.0
        model.params[f"{pre}.w4"][c] = 1.0   # key = h_j
        model.params[f"{pre}.b4"][c] = 0.0
    features = np.array([[1.0], [0.0], [math.log(3.0)]])
    got = typed_aggregate(0, features, graph, "ue", model, 0)
    expected_head = 0.25 * 0.0 + 0.75 * math.log(3.0)
    np.testing.assert_allclose(got, [expected_head, expected_head], rtol=1e-14)


def test_empty_ue_neighborhood_keeps_self_term_only():
    model = _tiny_model()
    graph = neighbor_graph(1, 3)   # M = 1: UE neighbourhoods are empty
    features = np.random.default_rng(1).standard_normal((3, 1))
    for node in range(3):
        got = typed_aggregate(node, features, graph, "ue", model, 0)
        want = np.concatenate([
            head_params(model, 0, "ue", c).w1 @ features[node]
            + head_params(model, 0, "ue", c).b1
            for c in range(model.plan.heads)])
        np.testing.assert_allclose(got, want, rtol=1e-14)


def test_layer_forward_dead_activation_maps_to_bias():
    model = _tiny_model()
    graph = neighbor_graph(2, 2)
    # force all pre-activations negative via hugely negative biases
    for name, p in model.params.items():
        if name.endswith(".b1"):
            p[:] = -100.0
        if name.endswith(".b2"):
            p[:] = 0.0
    model.params["layer00.ln_bias"][:] = np.array([0.5, -1.5])
    out = layer_forward(graph, np.ones((4, 1)), model, 0)
    np.testing.assert_allclose(out, np.tile([0.5, -1.5], (4, 1)), atol=1e-12)


def test_layer_forward_normalizes_rows():
    plan = LayerPlan(sizes=(1, 8, 1))
    model = init_model(plan, seed=3, norm=NORM)
    graph = neighbor_graph(3, 2)
    features = np.random.default_rng(5).standard_normal((6, 1))
    out = layer_forward(graph, features, model, 0)
    gain = model.params["layer00.ln_gain"]
    bias = model.params["layer00.ln_bias"]
    eps = 1e-5
    for node in range(6):
        z = (typed_aggregate(node, features, graph, "ap", model, 0)
             + typed_aggregate(node, features, graph, "ue", model, 0))
        a = np.maximum(z, 0.0)
        xhat = (a - a.mean()) / math.sqrt(a.var() + eps)
        assert abs(xhat.mean()) < 1e-9
        if a.var() > 1e-3:
            assert xhat.var() == pytest.approx(1.0, abs=1e-2)
        np.testing.assert_allclose(out[node], xhat * gain + bias,
                                   rtol=1e-12, atol=1e-12)


def test_layer_forward_shape_mismatch_raises():
    model = _tiny_model()
    graph = neighbor_graph(2, 2)
    with pytest.raises(ValueError):
        layer_forward(graph, np.ones((4, 3)), model, 0)


def test_batched_forward_matches_reference():
    model = init_model(seed=11, norm=NORM)
    x = np.random.default_rng(2).standard_normal((4, 3))
    got = forward(build_graph(4, 3), x, model)
    want = forward_reference(neighbor_graph(4, 3), x, model)
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)


def test_batched_forward_slices_consistent():
    graph = build_graph(3, 2)
    model = init_model(seed=13, norm=NORM)
    xs = np.random.default_rng(3).standard_normal((5, 3, 2))
    batch = forward(graph, xs, model)
    for s in range(5):
        np.testing.assert_allclose(batch[s], forward(graph, xs[s], model),
                                   rtol=1e-12, atol=1e-14)


def test_forward_golden_vector():
    """Frozen-seed regression: numerics must not drift across refactors."""
    graph = build_graph(2, 2)
    model = init_model(seed=2024, norm=NormStats(0.0, 1.0, -2.0, 1.0))
    x = np.array([[0.25, -1.5], [2.0, 0.75]])
    y = forward(graph, x, model)
    expected_y = np.array([
        [-1.4262540034948035, -0.16707921091306854],
        [-0.586018930425481, 0.6635576911737775],
    ])
    np.testing.assert_allclose(y, expected_y, rtol=0, atol=1e-12)
    eta = project_powers(y, model.norm)
    expected_eta = np.array([
        [0.09302394904156196, 0.22266099965371022],
        [0.1665446677944739, 0.3959959803763606],
    ])
    np.testing.assert_allclose(eta, expected_eta, rtol=0, atol=1e-12)


def test_forward_equivariance_and_duplicate_columns():
    graph = build_graph(5, 4)
    model = init_model(seed=21, norm=NORM)
    rng = np.random.default_rng(9)
    x = rng.standard_normal((5, 4))
    sigma = rng.permutation(5)
    rho = rng.permutation(4)
    base = forward(graph, x, model)
    permuted = forward(graph, x[sigma][:, rho], model)
    np.testing.assert_allclose(permuted, base[sigma][:, rho], atol=1e-6)
    # duplicated user columns produce identical outputs
    x2 = x.copy()
    x2[:, 1] = x2[:, 0]
    out2 = forward(build_graph(5, 4), x2, model)
    np.testing.assert_allclose(out2[:, 0], out2[:, 1], atol=1e-12)


def test_degenerate_sizes_run():
    model = init_model(seed=1, norm=NORM)
    for m, k in [(1, 1), (1, 4), (4, 1)]:
        y = forward(build_graph(m, k), np.zeros((m, k)), model)
        assert y.shape == (m, k)
        eta = project_powers(y, model.norm)
        assert np.all(eta >= 0)
        assert np.all(eta.sum(axis=1) <= 1.0)


def test_projection_renormalizes_rows():
    norm = NormStats(0.0, 1.0, 0.0, 1.0)
    raw = np.log2(np.array([[0.8, 1.2]]))   # eta before budget: (0.8, 1.2)
    eta = project_powers(raw, norm)
    np.testing.assert_allclose(eta, [[0.4, 0.6]], rtol=1e-12)


def test_projection_exact_feasibility_and_idempotence():
    norm = NormStats(0.0, 1.0, -1.0, 2.0)
    rng = np.random.default_rng(33)
    raw = rng.standard_normal((50, 6, 4)) * 3
    eta = project_powers(raw, norm)
    assert np.all(eta >= 0)
    assert np.all(eta.sum(axis=-1) <= 1.0)   # exact, no tolerance
    again = project_powers(np.log2(np.maximum(eta, 1e-300)),
                           NormStats(0.0, 1.0, 0.0, 1.0))
    np.testing.assert_allclose(again, eta, rtol=1e-12)


def test_projection_feasible_input_unchanged():
    norm = NormStats(0.0, 1.0, 0.0, 1.0)
    eta_in = np.array([[0.25, 0.5], [0.1, 0.2]])
    eta = project_powers(np.log2(eta_in), norm)
    np.testing.assert_allclose(eta, eta_in, rtol=1e-12)


def test_projection_rejects_non_finite():
    with pytest.raises(ValueError):
        project_powers(np.array([[np.nan, 0.0]]), NORM)


def test_projection_rejects_powers_that_overflow():
    """A finite raw output whose exp2 overflows must not come back as NaN."""
    with pytest.warns(RuntimeWarning, match="overflow"):
        with pytest.raises(ValueError, match="infinite powers"):
            project_powers(np.array([[2000.0, 0.0]]), NormStats(0, 1, 0, 1))


def test_model_has_documented_parameter_count():
    model = init_model(seed=0, norm=NORM)
    assert sum(p.size for p in model.params.values()) == 16713


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    model = init_model(seed=5, norm=NormStats(-30.25, 4.5, -3.75, 2.25))
    path = tmp_path / "ckpt.json"
    save_checkpoint(model, str(path), fingerprint={"note": "test"},
                    extra_arrays={"adam_m.out.w": np.array([[0.125, -7.5e-17]])},
                    extra={"epoch": 3})
    loaded, rest = load_checkpoint(str(path))
    assert loaded.plan == model.plan
    assert loaded.norm == model.norm
    for name, p in model.params.items():
        np.testing.assert_array_equal(loaded.params[name], p)
    np.testing.assert_array_equal(rest["extra_arrays"]["adam_m.out.w"],
                                  np.array([[0.125, -7.5e-17]]))
    assert rest["extra"]["epoch"] == 3
    # byte-stable: saving the loaded model reproduces the same file
    path2 = tmp_path / "ckpt2.json"
    save_checkpoint(loaded, str(path2), fingerprint={"note": "test"},
                    extra_arrays={"adam_m.out.w": np.array([[0.125, -7.5e-17]])},
                    extra={"epoch": 3})
    assert path.read_bytes() == path2.read_bytes()


def test_plan_needs_one_scalar_in_and_out_at_load(tmp_path):
    """A plan whose end widths are not 1 is refused where it is made, so a
    checkpoint carrying one fails to load, naming its path, instead of
    running with all but the first output unit ignored."""
    for sizes in [(1, 4, 2), (2, 4, 1)]:
        with pytest.raises(ValueError, match="must start and end with 1"):
            LayerPlan(sizes=sizes)
    path = tmp_path / "ckpt.json"
    save_checkpoint(init_model(LayerPlan(sizes=(1, 4, 1)), norm=NORM), str(path))
    doc = json.loads(path.read_text())
    doc["plan"]["sizes"] = [1, 4, 2]
    doc["params"]["out.w"] = {"shape": [2, 4], "data": [0.5] * 8}
    doc["params"]["out.b"] = {"shape": [2], "data": [0.0, 0.0]}
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=r"ckpt\.json: plan sizes \(1, 4, 2\)"):
        load_checkpoint(str(path))


@pytest.mark.parametrize("key, value", [("heads", 2.5), ("heads", True),
                                        ("sizes", [1, 4.0, 1])])
def test_plan_with_non_integer_entries_fails_to_load(tmp_path, key, value):
    """int() would truncate a head count of 2.5 to 2; a plan entry that is
    not a JSON integer is refused, naming the checkpoint's path."""
    path = tmp_path / "ckpt.json"
    save_checkpoint(init_model(LayerPlan(sizes=(1, 4, 1)), norm=NORM), str(path))
    doc = json.loads(path.read_text())
    doc["plan"][key] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=r"ckpt\.json: plan \w+ must be an integer"):
        load_checkpoint(str(path))


def _same(a, b) -> bool:
    """Same structure, and arrays with the same dtype, shape and bytes."""
    if isinstance(a, np.ndarray):
        return (isinstance(b, np.ndarray) and a.dtype == b.dtype
                and a.shape == b.shape and a.tobytes() == b.tobytes())
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[i], b[i]) for i in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(_same, a, b))
    return a == b


def _forward_backward(x, model, dy):
    counter = FlopCounter()
    graph = build_graph(*x.shape[1:])
    y, tape = forward(graph, x, model, counter=counter, want_tape=True)
    return y, tape, backward(model, tape, dy), counter


@pytest.mark.parametrize("s, m, k", [(64, 8, 3), (1, 32, 9), (1, 2, 2),
                                     (3, 1, 4), (2, 5, 1)])
def test_in_place_kernels_match_the_oracle_bit_for_bit(monkeypatch, s, m, k):
    """Forward output, every tape entry, every gradient and the FLOP tally
    of the in-place typed block equal those of the fresh-temporary one.
    M = 1 and K = 1 take the single-member branch for one edge type."""
    model = init_model(seed=m * k, norm=NORM)
    rng = np.random.default_rng(s * 1000 + m * 10 + k)
    x = rng.standard_normal((s, m, k))
    dy = rng.standard_normal((s, m, k))
    y, tape, grads, counter = _forward_backward(x, model, dy)
    monkeypatch.setattr(engine, "_typed_block", oracle.typed_block)
    monkeypatch.setattr(engine, "_typed_block_bwd", oracle.typed_block_bwd)
    y_ref, tape_ref, grads_ref, counter_ref = _forward_backward(x, model, dy)
    assert _same(y, y_ref)
    assert tape.keys() == tape_ref.keys()
    assert len(tape["layers"]) == 9
    for t, entry_ref in enumerate(tape_ref["layers"]):
        assert tape["layers"][t].keys() == entry_ref.keys(), t
        for key, val in entry_ref.items():
            assert _same(tape["layers"][t][key], val), (t, key)
    for key in tape_ref.keys() - {"layers"}:
        assert _same(tape[key], tape_ref[key]), key
    assert list(grads) == list(grads_ref)
    for name in grads_ref:
        assert _same(grads[name], grads_ref[name]), name
    assert counter == counter_ref


@pytest.mark.parametrize("n", range(1, 34))
def test_row_max_has_the_bits_of_the_max_reduction(n):
    """The softmax shift's halving tree, on rows of every length up to 33
    with the diagonal masked as the attention masks it."""
    a = np.random.default_rng(n).standard_normal((2, 3, 2, n, n)) * 10.0
    idx = np.arange(n)
    a[..., idx, idx] = engine._MASK_VALUE
    for rows in (a, a[..., :1, :], a.swapaxes(-1, -2)):
        got = engine._row_max(rows)
        want = rows.max(axis=-1, keepdims=True)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def _held_bytes(obj) -> int:
    """Bytes of the distinct array buffers reachable from a tape."""
    owners = {}

    def walk(o):
        if isinstance(o, np.ndarray):
            while isinstance(o.base, np.ndarray):
                o = o.base
            owners[id(o)] = o.nbytes
        elif isinstance(o, dict):
            for v in o.values():
                walk(v)
        elif isinstance(o, (list, tuple)):
            for v in o:
                walk(v)

    walk(obj)
    return sum(owners.values())


def test_training_tape_at_batch_64_holds_at_most_6_mb():
    """The tape keeps attention, xhat, inv and the ReLU mask per layer
    (4.1 MB at 64x8x3), not the value, query and key tensors or the
    layer inputs that backward recomputes (15.9 MB with them)."""
    model = init_model(seed=0, norm=NORM)
    x = np.random.default_rng(0).standard_normal((64, 8, 3))
    _, tape = forward(build_graph(8, 3), x, model, want_tape=True)
    assert _held_bytes(tape) <= 6 * 2**20
    for entry in tape["layers"]:
        assert entry["relu"].dtype == np.bool_


def _checkpoint_cases():
    """(model, keyword arguments) of each kind of call the program makes,
    plus the float and section edge cases of the JSON text."""
    fp = TrainConfig(epochs=3, seed=2).fingerprint()
    model = init_model(seed=4, norm=NormStats(-30.25, 4.5, -3.75, 2.25))
    rng = np.random.default_rng(8)
    moments = {}
    for name, p in model.params.items():
        moments[f"adam_m.{name}"] = rng.standard_normal(p.shape) * 1e-3
        moments[f"adam_v.{name}"] = rng.random(p.shape) * 1e-7
    extra = {"epoch": 3, "adam_t": 12, "best_val": 0.5079123456789}

    broken = init_model(seed=5, norm=NORM)
    broken.params["out.w"][0, :3] = [np.nan, np.inf, -np.inf]
    dump = {"epoch": 2, "batch_bucket": 0, "batch_indices": [4, 0, 7],
            "loss": repr(float("nan"))}

    edge = init_model(seed=6, norm=NormStats(-0.0, 5e-324, 1e16, 1.0 / 3.0))
    edge.params["out.b"] = np.array([-0.0])
    edge.params["layer00.ln_bias"][:4] = [5e-324, 1e-5, 1e16, 1.0 / 3.0]
    edge_extra = {"epoch": 1, "adam_t": 4, "best_val": -0.0,
                  "floats": [5e-324, 1e-5, 1e16, 1.0 / 3.0, -0.0]}
    return {
        "best": (model, {"fingerprint": fp, "extra": extra}),
        "epoch": (model, {"fingerprint": fp, "extra_arrays": moments,
                          "extra": extra}),
        "diagnostic_dump": (broken, {"fingerprint": fp, "extra": dump}),
        "no_fingerprint": (model, {"extra": extra}),
        "empty_fingerprint": (model, {"fingerprint": {}, "extra_arrays": {}}),
        "best_val_none": (model, {"fingerprint": fp, "extra_arrays": moments,
                                  "extra": dict(extra, best_val=None)}),
        "float_edges": (edge, {"fingerprint": fp, "extra_arrays":
                               {"adam_m.out.b": np.array([[5e-324, -0.0]])},
                               "extra": edge_extra}),
    }


@pytest.mark.parametrize("case", sorted(_checkpoint_cases()))
def test_streamed_checkpoint_has_the_bytes_of_one_json_dump(tmp_path, case):
    model, kwargs = _checkpoint_cases()[case]
    save_checkpoint(model, str(tmp_path / "got.json"), **kwargs)
    oracle.write_checkpoint(model, str(tmp_path / "want.json"), **kwargs)
    assert (tmp_path / "got.json").read_bytes() == (tmp_path / "want.json").read_bytes()


def test_checkpoint_writer_holds_one_array_at_a_time(tmp_path):
    """An epoch checkpoint is ~1.1 MB of text; the writer never holds it."""
    model, kwargs = _checkpoint_cases()["epoch"]
    tracemalloc.start()
    try:
        save_checkpoint(model, str(tmp_path / "epoch.json"), **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (tmp_path / "epoch.json").stat().st_size > 1_000_000
    assert peak < 500_000


def test_count_flops_modes_agree():
    for m, k in [(2, 2), (8, 5), (16, 1), (1, 16)]:
        inst = count_flops(m, k)
        analytic = oracle.gnn_forward_flops(LayerPlan(), m, k).total
        assert inst > 0
        assert abs(inst - analytic) / inst < 0.01
