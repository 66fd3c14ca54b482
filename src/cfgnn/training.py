"""SINR-space loss, Adam, and the deterministic training loop.

The network is trained to minimise the mean square error of the per-user
SINR, not of the powers: predictions are denormalized (eta = 2^(x*std+mean),
no projection) and pushed through the exact SINR expression, and
the gradient is propagated back through that whole chain by hand.  With
p = x*std + mean the log2 power, the code first forms dL/d(eta) and then
multiplies by d(eta)/dp = ln(2) * eta:

    dL/dp[m,k] = ln(2) * eta[m,k]
                 * (0.5 * dN_k * sqrt(alpha*eta)[m,k] / max(eta[m,k], 1e-300)
                    + rho_d * (beta @ dD)[m])

where dN and dD are the loss gradients with respect to the beamforming sum
and the denominator; dL/dx is this times std.  The
numerator's derivative sqrt(alpha*eta) / (2 eta) grows without bound as
eta -> 0, and the 1e-300 floor keeps an eta that underflows to 0 at a
gradient of 0 instead of 0/0.  In exact arithmetic this equals the fused
ln(2) * (0.5 * dN * sqrt(alpha*eta) + eta * rho_d * (beta @ dD)), but not
bit for bit, and checkpoints keep the bits of the order above.

Everything is reproducible: batch composition depends only on (seed, epoch),
and each epoch checkpoint carries the optimizer state and the best
validation loss so far, so training can resume from it bit-identically,
and all arithmetic runs in fixed order.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .data import (NormStats, Sample, compute_norm_stats, denormalize_output,
                   normalize_input)
from .engine import backward, forward
from .graph import build_graph
from .model import GnnModel, init_model, load_checkpoint, save_checkpoint
from .sinr import link, sinr_kernel

LN2 = math.log(2.0)


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 7e-4
    batch_size: int = 64
    epochs: int = 100
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    seed: int = 0
    val_fraction: float = 0.1

    def __post_init__(self) -> None:
        for name in ("batch_size", "epochs", "seed"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise TypeError(f"{name} must be an integer, not {value!r}")
        for name in ("lr", "beta1", "beta2", "eps"):
            value = getattr(self, name)
            if (isinstance(value, bool) or not isinstance(value, (int, float))
                    or not math.isfinite(value)):
                raise ValueError(f"{name} must be a finite number, "
                                 f"not {value!r}")
        if self.lr < 0:
            raise ValueError("lr must be >= 0")
        if self.batch_size < 1 or self.epochs < 1:
            raise ValueError("batch_size and epochs must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ValueError("beta1 and beta2 must be in [0, 1)")
        if self.eps <= 0:
            raise ValueError("eps must be > 0")
        if not 0.0 <= self.val_fraction < 1.0:
            raise ValueError("val_fraction must be in [0, 1)")

    def fingerprint(self) -> dict:
        return asdict(self)


def sinr_mse_loss(sinr_opt: np.ndarray, sinr_pred: np.ndarray) -> float:
    """(1/K) sum_k (SINR_k - SINR'_k)^2, averaged over any batch axis."""
    sinr_opt = np.asarray(sinr_opt, dtype=float)
    sinr_pred = np.asarray(sinr_pred, dtype=float)
    if sinr_opt.shape != sinr_pred.shape:
        raise ValueError(f"shape mismatch {sinr_opt.shape} vs {sinr_pred.shape}")
    per_sample = np.mean((sinr_opt - sinr_pred) ** 2, axis=-1)
    return float(np.mean(per_sample))


def loss_and_grads(model: GnnModel, batch_x: np.ndarray, batch_beta: np.ndarray,
                   batch_sinr_opt: np.ndarray
                   ) -> tuple[float, dict[str, np.ndarray], np.ndarray]:
    """Loss, parameter gradients and predicted SINRs for one batch.

    batch_x: normalized inputs (S, M, K); batch_beta: (S, M, K);
    batch_sinr_opt: (S, K).
    """
    s, m, k = batch_x.shape
    batch_alpha, rho_d = link(batch_beta)
    graph = build_graph(m, k)
    y, tape = forward(graph, batch_x, model, want_tape=True)
    eta = denormalize_output(y, model.norm)
    sinr, gain, den = sinr_kernel(batch_beta, batch_alpha, eta, rho_d)
    loss = sinr_mse_loss(batch_sinr_opt, sinr)

    dpred = 2.0 * (sinr - batch_sinr_opt) / (s * k)            # (S, K)
    dgain = dpred * 2.0 * rho_d * gain / den                   # (S, K)
    dden = -dpred * rho_d * gain * gain / (den * den)          # (S, K)
    # d eta (stable: fused with the 2^x factor only at the end)
    root = np.sqrt(batch_alpha * eta)                          # (S, M, K)
    deta = (0.5 * dgain[:, None, :] * root / np.maximum(eta, 1e-300)
            + rho_d * np.einsum("smk,sk->sm", batch_beta, dden)[:, :, None])
    dxhat = LN2 * eta * deta
    dy = dxhat * model.norm.out_std
    grads = backward(model, tape, dy)
    return loss, grads, sinr


@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0


def init_adam(model: GnnModel) -> AdamState:
    return AdamState(m={n: np.zeros_like(p) for n, p in model.params.items()},
                     v={n: np.zeros_like(p) for n, p in model.params.items()})


def adam_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
              state: AdamState, cfg: TrainConfig) -> None:
    """One Adam update with bias correction, in place on params and state;
    grads are looked up by parameter name."""
    state.t += 1
    bc1 = 1.0 - cfg.beta1 ** state.t
    bc2 = 1.0 - cfg.beta2 ** state.t
    for name, p in params.items():
        g = grads[name]
        m = state.m[name]
        v = state.v[name]
        m *= cfg.beta1
        m += (1.0 - cfg.beta1) * g
        v *= cfg.beta2
        v += (1.0 - cfg.beta2) * g * g
        p -= cfg.lr * (m / bc1) / (np.sqrt(v / bc2) + cfg.eps)


def split_train_val(samples: list[Sample], cfg: TrainConfig
                    ) -> tuple[list[Sample], list[Sample]]:
    """Seeded 90/10 split, stratified per (M, K, morphology) scenario."""
    rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 500)))
    groups: dict[tuple, list[int]] = {}
    for i, sample in enumerate(samples):
        groups.setdefault((sample.num_aps, sample.num_ues,
                           sample.morphology), []).append(i)
    train_idx, val_idx = [], []
    for key in sorted(groups):
        idx = np.array(groups[key])
        perm = rng.permutation(len(idx))
        n_val = max(1, int(round(len(idx) * cfg.val_fraction))) \
            if len(idx) > 1 and cfg.val_fraction > 0 else 0
        val_idx.extend(idx[perm[:n_val]].tolist())
        train_idx.extend(idx[perm[n_val:]].tolist())
    train_idx.sort()
    val_idx.sort()
    return [samples[i] for i in train_idx], [samples[i] for i in val_idx]


@dataclass
class _Bucket:
    x: np.ndarray          # (n, M, K) normalized inputs
    beta: np.ndarray
    sinr_opt: np.ndarray   # (n, K)


def _make_buckets(samples: list[Sample], stats: NormStats) -> list[_Bucket]:
    grouped: dict[tuple[int, int], list[Sample]] = {}
    for sample in samples:
        grouped.setdefault(sample.beta.shape, []).append(sample)
    buckets = []
    for members in grouped.values():
        beta = np.stack([s.beta for s in members])
        sinr = np.stack([s.sinr_opt for s in members])
        buckets.append(_Bucket(x=normalize_input(beta, stats), beta=beta,
                               sinr_opt=sinr))
    return buckets


def _epoch_batches(buckets: list[_Bucket], batch_size: int,
                   rng: np.random.Generator) -> list[tuple[int, np.ndarray]]:
    """Seeded shuffled list of (bucket index, sample indices) batches."""
    batches = []
    for b, bucket in enumerate(buckets):
        perm = rng.permutation(bucket.x.shape[0])
        for start in range(0, len(perm), batch_size):
            batches.append((b, perm[start:start + batch_size]))
    order = rng.permutation(len(batches))
    return [batches[i] for i in order]


def _validation_loss(model: GnnModel, buckets: list[_Bucket]) -> float:
    total, count = 0.0, 0
    for bucket in buckets:
        graph = build_graph(*bucket.x.shape[1:])
        y = forward(graph, bucket.x, model)
        eta = denormalize_output(y, model.norm)
        alpha, rho_d = link(bucket.beta)
        sinr, _, _ = sinr_kernel(bucket.beta, alpha, eta, rho_d)
        per_sample = np.mean((bucket.sinr_opt - sinr) ** 2, axis=-1)
        total += float(per_sample.sum())
        count += per_sample.size
    return total / max(count, 1)


def train(train_set: list[Sample], val_set: list[Sample], cfg: TrainConfig,
          out_dir: str, resume_from: str | None = None
          ) -> tuple[GnnModel, list[dict]]:
    """Fixed-epoch training with per-epoch checkpoints and best-val tracking.

    Normalisation statistics come from train_set only and are frozen into
    every checkpoint.  Writes metrics.csv (epoch,train_loss,val_loss,wall_ms),
    checkpoints/epoch_NNN.json and best.json under out_dir.  Resuming from an
    epoch checkpoint continues bit-identically, best.json included, because
    batch shuffling is a pure function of (seed, epoch) and the optimizer
    state and best validation loss ride along in the checkpoint; cfg may
    differ from the checkpoint's fingerprint in epochs only.
    """
    if not train_set:
        raise ValueError("empty training set")
    if not all(s.labeled for s in train_set + val_set):
        raise ValueError("training requires labeled samples "
                         "(run `cfgnn solve` first)")
    if resume_from is not None:
        model, rest = load_checkpoint(resume_from)
        stats = model.norm
        try:
            opt = AdamState(m={}, v={}, t=int(rest["extra"]["adam_t"]))
            arrays = rest["extra_arrays"]
            for name in model.params:
                opt.m[name] = arrays[f"adam_m.{name}"]
                opt.v[name] = arrays[f"adam_v.{name}"]
            start_epoch = int(rest["extra"]["epoch"])
            saved_best = rest["extra"]["best_val"]
        except KeyError as exc:
            raise ValueError(f"{resume_from}: not an epoch checkpoint, "
                             f"it lacks {exc}") from None
        saved = rest["fingerprint"]
        changed = [f"{key} {value!r} (checkpoint {saved.get(key)!r})"
                   for key, value in cfg.fingerprint().items()
                   if key != "epochs" and saved.get(key) != value]
        if changed:
            raise ValueError(f"{resume_from}: training config differs from "
                             f"the checkpoint's: {', '.join(changed)}")
        best_val = math.inf if saved_best is None else float(saved_best)
    else:
        stats = compute_norm_stats(train_set)
        model = init_model(seed=cfg.seed, norm=stats)
        opt = init_adam(model)
        start_epoch = 0
        best_val = math.inf

    out = Path(out_dir)
    (out / "checkpoints").mkdir(parents=True, exist_ok=True)
    train_buckets = _make_buckets(train_set, stats)
    val_buckets = _make_buckets(val_set, stats) if val_set else []

    history: list[dict] = []
    metrics_path = out / "metrics.csv"
    # A resumed run keeps the rows up to its start epoch and rewrites the rest.
    kept = []
    if resume_from is not None and metrics_path.exists():
        with open(metrics_path, newline="", encoding="utf-8") as fh:
            kept = [row for row in list(csv.reader(fh))[1:]
                    if int(row[0]) <= start_epoch]
    metrics_fh = open(metrics_path, "w", newline="", encoding="utf-8")
    writer = csv.writer(metrics_fh)
    try:
        writer.writerow(["epoch", "train_loss", "val_loss", "wall_ms"])
        writer.writerows(kept)
        for epoch in range(start_epoch + 1, cfg.epochs + 1):
            t0 = time.perf_counter()
            rng = np.random.default_rng(
                np.random.SeedSequence((cfg.seed, 1000 + epoch)))
            loss_sum, n_seen = 0.0, 0
            for b, idx in _epoch_batches(train_buckets, cfg.batch_size, rng):
                bucket = train_buckets[b]
                loss, grads, _ = loss_and_grads(
                    model, bucket.x[idx], bucket.beta[idx],
                    bucket.sinr_opt[idx])
                if not math.isfinite(loss):
                    dump = out / "diagnostic_dump.json"
                    save_checkpoint(model, str(dump),
                                    fingerprint=cfg.fingerprint(),
                                    extra={"epoch": epoch, "batch_bucket": b,
                                           "batch_indices": idx.tolist(),
                                           "loss": repr(loss)})
                    raise RuntimeError(f"non-finite loss {loss} at epoch "
                                       f"{epoch}; state saved to {dump}")
                adam_step(model.params, grads, opt, cfg)
                loss_sum += loss * len(idx)
                n_seen += len(idx)
            train_loss = loss_sum / max(n_seen, 1)
            val_loss = (_validation_loss(model, val_buckets)
                        if val_buckets else math.nan)
            wall_ms = (time.perf_counter() - t0) * 1e3

            # The row goes first, so every epoch checkpoint has its row.
            writer.writerow([epoch, repr(train_loss), repr(val_loss),
                             f"{wall_ms:.1f}"])
            metrics_fh.flush()
            # Without validation rows every epoch counts as improved, so
            # best.json is the latest epoch.
            improved = not val_buckets or val_loss < best_val
            if improved:
                best_val = val_loss
            # JSON has no infinity or NaN: null stands for "no validation
            # loss yet" or "no validation rows".
            extra = {"epoch": epoch, "adam_t": opt.t,
                     "best_val": best_val if math.isfinite(best_val) else None}
            extra_arrays = {}
            for name in model.params:
                extra_arrays[f"adam_m.{name}"] = opt.m[name]
                extra_arrays[f"adam_v.{name}"] = opt.v[name]
            # best.json first: once the epoch checkpoint exists, a resume
            # from it relies on best.json being current.
            if improved:
                save_checkpoint(model, str(out / "best.json"),
                                fingerprint=cfg.fingerprint(), extra=extra)
            ckpt_path = out / "checkpoints" / f"epoch_{epoch:03d}.json"
            save_checkpoint(model, str(ckpt_path),
                            fingerprint=cfg.fingerprint(),
                            extra_arrays=extra_arrays, extra=extra)
            history.append({"epoch": epoch, "train_loss": train_loss,
                            "val_loss": val_loss, "wall_ms": wall_ms})
    finally:
        metrics_fh.close()
    return model, history
