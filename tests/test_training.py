"""Loss values, Adam closed forms, and the determinism of the training loop."""

import hashlib
import math
from pathlib import Path

import numpy as np
import pytest

from cfgnn.data import NormStats, normalize_input
from cfgnn.model import init_model, load_checkpoint
from cfgnn import training
from cfgnn.training import (
    AdamState,
    TrainConfig,
    adam_step,
    init_adam,
    loss_and_grads,
    sinr_mse_loss,
    split_train_val,
    train,
)


def test_loss_identical_vectors_zero():
    s = np.array([1.5, 2.5, 0.25])
    assert sinr_mse_loss(s, s) == 0.0


def test_loss_direct_value():
    assert sinr_mse_loss(np.array([1.0, 2.0]), np.array([0.0, 0.0])) == 2.5


def test_loss_user_permutation_invariant():
    rng = np.random.default_rng(0)
    opt = rng.uniform(0.5, 4.0, size=6)
    pred = rng.uniform(0.5, 4.0, size=6)
    perm = rng.permutation(6)
    assert sinr_mse_loss(opt, pred) == pytest.approx(
        sinr_mse_loss(opt[perm], pred[perm]), rel=1e-15)


def test_loss_batch_averages_samples():
    opt = np.array([[1.0, 2.0], [1.0, 2.0]])
    pred = np.array([[0.0, 0.0], [1.0, 2.0]])
    assert sinr_mse_loss(opt, pred) == pytest.approx(1.25)


def test_loss_shape_mismatch_raises():
    with pytest.raises(ValueError):
        sinr_mse_loss(np.zeros(3), np.zeros(4))


def test_loss_invariant_under_joint_sample_permutation(labeled_4x2):
    """Permuting a sample's APs and users together cannot change the loss."""
    sample = labeled_4x2[0]
    stats = NormStats(-30.0, 4.0, -3.0, 1.5)
    model = init_model(seed=2, norm=stats)
    rng = np.random.default_rng(1)
    sigma, rho = rng.permutation(4), rng.permutation(2)
    x = normalize_input(sample.beta, stats)
    base, _, _ = loss_and_grads(model, x[None], sample.beta[None],
                                np.asarray(sample.sinr_opt)[None])
    beta_p = sample.beta[sigma][:, rho]
    x_p = normalize_input(beta_p, stats)
    permuted, _, _ = loss_and_grads(model, x_p[None], beta_p[None],
                                    np.asarray(sample.sinr_opt)[rho][None])
    assert permuted == pytest.approx(base, rel=1e-9)


def test_adam_first_step_closed_form():
    cfg = TrainConfig(lr=7e-4)
    params = {"w": np.array([0.5])}
    state = AdamState(m={"w": np.zeros(1)}, v={"w": np.zeros(1)}, t=0)
    adam_step(params, {"w": np.array([1.0])}, state, cfg)
    assert params["w"][0] == pytest.approx(0.5 - 7e-4, abs=1e-9)
    assert state.t == 1


def test_adam_zero_gradient_is_noop():
    cfg = TrainConfig()
    params = {"w": np.array([1.5])}
    state = AdamState(m={"w": np.zeros(1)}, v={"w": np.zeros(1)}, t=0)
    adam_step(params, {"w": np.zeros(1)}, state, cfg)
    assert params["w"][0] == 1.5


def test_adam_deterministic():
    cfg = TrainConfig()
    out = []
    for _ in range(2):
        params = {"w": np.array([0.25, -1.0])}
        state = AdamState(m={"w": np.zeros(2)}, v={"w": np.zeros(2)}, t=0)
        for _ in range(5):
            adam_step(params, {"w": np.array([0.3, -0.7])}, state, cfg)
        out.append(params["w"].copy())
    np.testing.assert_array_equal(out[0], out[1])


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(lr=-1.0)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        TrainConfig(val_fraction=1.0)


def test_split_is_seeded_and_stratified(labeled_4x2):
    cfg = TrainConfig(seed=3, val_fraction=0.25)
    tr1, va1 = split_train_val(labeled_4x2, cfg)
    tr2, va2 = split_train_val(labeled_4x2, cfg)
    assert [s.seed for s in tr1] == [s.seed for s in tr2]
    assert [s.seed for s in va1] == [s.seed for s in va2]
    assert len(va1) == 6 and len(tr1) == 18
    assert {s.seed for s in tr1}.isdisjoint({s.seed for s in va1})


def test_zero_learning_rate_freezes_parameters(labeled_4x2, tmp_path):
    cfg = TrainConfig(lr=0.0, epochs=2, batch_size=8, seed=0)
    tr, va = split_train_val(labeled_4x2, cfg)
    model, _ = train(tr, va, cfg, str(tmp_path / "frozen"))
    fresh = init_model(seed=0, norm=model.norm)
    for name, p in model.params.items():
        np.testing.assert_array_equal(p, fresh.params[name], err_msg=name)


def test_training_improves_loss(tiny_run):
    history = tiny_run["history"]
    assert history[-1]["train_loss"] < history[0]["train_loss"]


def test_metrics_csv_format(tiny_run):
    lines = (tiny_run["out_dir"] / "metrics.csv").read_text().splitlines()
    assert lines[0] == "epoch,train_loss,val_loss,wall_ms"
    assert len(lines) == 1 + len(tiny_run["history"])
    first = lines[1].split(",")
    assert first[0] == "1"
    assert float(first[1]) > 0


def test_checkpoints_written_per_epoch(tiny_run):
    ckpts = sorted((tiny_run["out_dir"] / "checkpoints").glob("epoch_*.json"))
    assert len(ckpts) == len(tiny_run["history"])
    assert (tiny_run["out_dir"] / "best.json").exists()
    model, rest = load_checkpoint(str(ckpts[2]))
    assert rest["extra"]["epoch"] == 3
    assert rest["fingerprint"]["epochs"] == 8
    assert any(name.startswith("adam_m.") for name in rest["extra_arrays"])


def test_resume_continues_bit_identically(labeled_4x2, tmp_path, monkeypatch):
    cfg3 = TrainConfig(epochs=3, batch_size=8, seed=5)
    tr, va = split_train_val(labeled_4x2, cfg3)
    train(tr, va, cfg3, str(tmp_path / "straight"))
    cfg2 = TrainConfig(epochs=2, batch_size=8, seed=5)
    train(tr, va, cfg2, str(tmp_path / "resumed"))
    train(tr, va, cfg3, str(tmp_path / "resumed"),
          resume_from=str(tmp_path / "resumed/checkpoints/epoch_002.json"))

    def digest(p):
        return hashlib.sha256(Path(p).read_bytes()).hexdigest()

    a = digest(tmp_path / "straight/checkpoints/epoch_003.json")
    b = digest(tmp_path / "resumed/checkpoints/epoch_003.json")
    assert a == b

    # A run killed after epoch 3 and resumed must keep the best epoch so far:
    # here the best epoch comes before the kill, so best.json must not move.
    cfg6 = TrainConfig(epochs=6, batch_size=8, seed=1)
    tr, va = split_train_val(labeled_4x2, cfg6)
    train(tr, va, cfg6, str(tmp_path / "straight6"))
    real_save = training.save_checkpoint

    def save_then_die(model, path, **kwargs):
        real_save(model, path, **kwargs)
        if path.endswith("epoch_003.json"):
            raise KeyboardInterrupt

    monkeypatch.setattr(training, "save_checkpoint", save_then_die)
    with pytest.raises(KeyboardInterrupt):
        train(tr, va, cfg6, str(tmp_path / "killed"))
    monkeypatch.undo()
    train(tr, va, cfg6, str(tmp_path / "killed"),
          resume_from=str(tmp_path / "killed/checkpoints/epoch_003.json"))
    assert load_checkpoint(str(tmp_path / "straight6/best.json"))[1]["extra"][
        "epoch"] <= 3
    for name in ("best.json", "checkpoints/epoch_006.json"):
        assert digest(tmp_path / "straight6" / name) == \
            digest(tmp_path / "killed" / name), name
    # The killed run wrote row 3 before its epoch-3 checkpoint.
    assert _metrics_rows(tmp_path / "straight6") == \
        _metrics_rows(tmp_path / "killed")


def test_resume_with_another_config_names_every_changed_field(labeled_4x2,
                                                             tmp_path):
    """Only epochs may change on resume: any other field would continue a
    different run than the checkpoint's, so nothing is written."""
    cfg = TrainConfig(epochs=2, batch_size=4, seed=5)
    tr, va = split_train_val(labeled_4x2, cfg)
    train(tr, va, cfg, str(tmp_path / "run"))
    ckpt = tmp_path / "run" / "checkpoints" / "epoch_002.json"
    other = TrainConfig(epochs=3, batch_size=8, seed=9, lr=0.01)
    with pytest.raises(ValueError) as exc:
        train(tr, va, other, str(tmp_path / "resumed"), resume_from=str(ckpt))
    message = str(exc.value)
    assert message.startswith(f"{ckpt}: ")
    for field in ("batch_size 8 (checkpoint 4)", "lr 0.01 (checkpoint 0.0007)",
                  "seed 9 (checkpoint 5)"):
        assert field in message
    assert "epochs" not in message
    assert not (tmp_path / "resumed").exists()


def _metrics_rows(run_dir):
    """metrics.csv without the wall_ms column, which varies run to run."""
    lines = (Path(run_dir) / "metrics.csv").read_text().splitlines()
    return [line.rsplit(",", 1)[0] for line in lines]


def test_resume_of_finished_run_rewrites_later_metrics_rows(labeled_4x2,
                                                            tmp_path):
    cfg = TrainConfig(epochs=5, batch_size=8, seed=2)
    tr, va = split_train_val(labeled_4x2[:12], cfg)
    run = tmp_path / "run"
    train(tr, va, cfg, str(run))
    finished = _metrics_rows(run)
    train(tr, va, cfg, str(run),
          resume_from=str(run / "checkpoints/epoch_003.json"))
    rows = _metrics_rows(run)
    assert [row.split(",")[0] for row in rows] == \
        ["epoch", "1", "2", "3", "4", "5"]
    assert rows == finished


def test_rerun_reproduces_checkpoints_bytewise(labeled_4x2, tmp_path):
    cfg = TrainConfig(epochs=2, batch_size=8, seed=9)
    tr, va = split_train_val(labeled_4x2, cfg)
    train(tr, va, cfg, str(tmp_path / "a"))
    train(tr, va, cfg, str(tmp_path / "b"))
    for name in ("checkpoints/epoch_001.json", "checkpoints/epoch_002.json",
                 "best.json"):
        assert (tmp_path / "a" / name).read_bytes() == \
               (tmp_path / "b" / name).read_bytes(), name


def test_train_rejects_unlabeled_and_empty(labeled_4x2):
    cfg = TrainConfig(epochs=1)
    with pytest.raises(ValueError):
        train([], [], cfg, "/tmp/unused")
    from cfgnn.data import Sample
    stripped = [Sample(num_aps=s.num_aps, num_ues=s.num_ues,
                       morphology=s.morphology, seed=s.seed, beta=s.beta)
                for s in labeled_4x2[:4]]
    with pytest.raises(ValueError):
        train(stripped, [], cfg, "/tmp/unused")
