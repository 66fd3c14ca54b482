"""The benchmark's three workloads.

Each workload has a set-up (inputs, fixture validation and warm-up), a
request (the unit a user waits for), a check of every request's
output, and checks that look at all outputs of a run together.  Requests
come in rounds: the run only stops between rounds, so every run attempts
whole rounds of the same operations.

Inputs come from the workload seed, except the one channel realisation that
label-32x9 solves: solve time at 32x9 varies from 2.5 s to 3.7 s across
realisations (21 to 28 bisection steps), which would hide any change to the
solver, so that instance is fixed and the seed draws the rival allocations
its label is checked against.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
from pathlib import Path

import numpy as np

from cfgnn import channel, cli, data, engine, eval as eval_mod, model, training
from cfgnn.graph import build_graph

import checks
from spans import LayerCounter

HERE = Path(__file__).resolve().parent
FIXTURES = HERE / "fixtures"
RADIO = channel.RadioDefaults()
RHO_D, RHO_U = RADIO.rho_d(), RADIO.rho_u()

# The realisation label-32x9 solves: sample 0 of
# `cfgnn gen-data --scenarios 32x9:urban --count 1 --seed 2017`.
LABEL_INSTANCE_SEED = 2017
INFER_POOL = 64          # 32x9 realisations an infer-32x9 round cycles over
TRAIN_EPOCHS = 4
RIVALS = 256             # random feasible allocations per 32x9 label check
FIXTURE_RIVALS = 32      # and per fixture row


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _with_counter(args, kwargs):
    return args, dict(kwargs, counter=LayerCounter())


def _record_solve(rec, args, kwargs, sol):
    counter = kwargs["counter"]
    rec.counts.update(flops=counter.total, lu_flops=counter.lu_flops,
                      newton_systems=counter.lu_systems,
                      bisection_steps=sol.iterations,
                      nonconverged=int(not sol.converged))


def _record_flops(rec, args, kwargs, result):
    rec.counts["flops"] = kwargs["counter"].total


def _record_samples(rec, args, kwargs, result):
    rec.counts["samples"] = len(result)


def _record_bytes(path_arg: int):
    def after(rec, args, kwargs, result):
        rec.counts["bytes"] = os.path.getsize(args[path_arg])
    return after


class Workload:
    """Defaults: rounds of one request, one sample each, no end-of-run check."""

    name = ""
    round_size = 1
    samples_per_request = 1

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir

    def finish(self) -> None:
        pass


class LabelWorkload(Workload):
    """label-32x9: the exact solver on one fixed 32x9 urban realisation."""

    name = "label-32x9"
    first_eta: bytes | None = None

    def setup(self) -> None:
        self.sample = data.generate_unlabeled(
            [(32, 9, "urban", 1)], run_seed=LABEL_INSTANCE_SEED)[0]
        rng = np.random.default_rng(self.seed)
        self.rivals = checks.random_feasible(rng, RIVALS, 32, 9)
        # Warm-up: one small solve through the same path, on a fixed 8x3
        # instance so that set-up time does not vary with the seed.
        warm = data.generate_unlabeled([(8, 3, "urban", 1)],
                                       run_seed=LABEL_INSTANCE_SEED)
        out = data.label_samples(warm, threads=1)
        if len(out) != 1:
            raise checks.CheckError("warm-up solve was dropped")
        checks.check_label(out[0].beta, out[0].eta_opt, out[0].sinr_opt,
                           checks.random_feasible(rng, RIVALS, 8, 3),
                           RHO_D, RHO_U, 3)

    def request(self, i: int):
        return data.label_samples([self.sample], threads=1)

    def check(self, result) -> None:
        if len(result) != 1:
            raise checks.CheckError("the solve was dropped (non-converged "
                                    "or solver error)")
        label = result[0]
        checks.check_label(label.beta, label.eta_opt, label.sinr_opt,
                           self.rivals, RHO_D, RHO_U, 9)
        eta = label.eta_opt.tobytes()
        if self.first_eta is None:
            self.first_eta = eta
        elif eta != self.first_eta:
            raise checks.CheckError("the same instance got a different label")

    def trace_specs(self) -> list[tuple]:
        return [(data, "label_samples", "data.label_samples"),
                (data, "solve_maxmin", "maxmin.solve_maxmin",
                 _with_counter, _record_solve)]


class InferWorkload(Workload):
    """infer-32x9: one realisation at a time through the inference path."""

    name = "infer-32x9"
    round_size = INFER_POOL

    def setup(self) -> None:
        self.outputs: dict[int, np.ndarray] = {}
        self.pool = data.generate_unlabeled([(32, 9, "urban", INFER_POOL)],
                                            run_seed=self.seed)
        stats = data.compute_norm_stats(self.pool)
        self.model = model.init_model(seed=self.seed, norm=stats)
        self.graph = build_graph(32, 9)
        for i in range(4):
            self.check(self.request(i))

    def _infer(self, beta: np.ndarray) -> np.ndarray:
        x = data.normalize_input(beta, self.model.norm)
        raw = engine.forward(self.graph, x, self.model)
        return engine.project_powers(raw, self.model.norm)

    def request(self, i: int):
        index = i % INFER_POOL
        return index, self._infer(self.pool[index].beta)

    def check(self, result) -> None:
        index, eta = result
        checks.check_budget(eta)
        sinr = checks.sinr(self.pool[index].beta, eta, RHO_D, RHO_U, 9)
        if not np.all(sinr > 0.0):
            raise checks.CheckError("an inferred allocation leaves a user "
                                    "without signal")
        self.outputs[index] = eta

    def finish(self) -> None:
        """Single-sample outputs agree with one batched call, and permuting
        a realisation's APs and users permutes its output."""
        indices = sorted(self.outputs)
        betas = np.stack([self.pool[i].beta for i in indices])
        x = data.normalize_input(betas, self.model.norm)
        raw = engine.forward(self.graph, x, self.model)
        batched = engine.project_powers(raw, self.model.norm)
        checks.check_batch_agreement(np.stack([self.outputs[i]
                                               for i in indices]), batched)
        rng = np.random.default_rng(self.seed)
        for i in indices[:4]:
            ap_perm, ue_perm = rng.permutation(32), rng.permutation(9)
            beta = self.pool[i].beta[ap_perm][:, ue_perm]
            checks.check_equivariant(self.outputs[i], self._infer(beta),
                                     ap_perm, ue_perm)

    def trace_specs(self) -> list[tuple]:
        return [(data, "generate_unlabeled", "channel.generate_unlabeled",
                 None, _record_samples),
                (data, "normalize_input", "data.normalize_input"),
                (engine, "forward", "engine.forward",
                 _with_counter, _record_flops),
                (engine, "project_powers", "engine.project_powers",
                 _with_counter, _record_flops)]


class TrainWorkload(Workload):
    """train-8x3: `cfgnn train` then `cfgnn eval`, in process, on the fixture."""

    name = "train-8x3"
    first_digests: dict[str, str] | None = None

    def setup(self) -> None:
        self.train_path = FIXTURES / "train_8x3.jsonl"
        self.heldout_path = FIXTURES / "heldout_8x3.jsonl"
        rng = np.random.default_rng(self.seed)
        rows = []
        for path in (self.train_path, self.heldout_path):
            loaded = data.read_jsonl(str(path))
            for line, row in enumerate(loaded, start=1):
                try:
                    validate_fixture_row(row, rng)
                except (ValueError, checks.CheckError) as exc:
                    raise checks.CheckError(
                        f"{path.name}:{line}: stale or corrupt fixture row: "
                        f"{exc}") from None
            rows.append(loaded)
        cfg = training.TrainConfig(epochs=TRAIN_EPOCHS, batch_size=64,
                                   seed=self.seed)
        train_rows, _ = training.split_train_val(rows[0], cfg)
        self.samples_per_request = TRAIN_EPOCHS * len(train_rows)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.config_path = self.workdir / "train.json"
        self.config_path.write_text(json.dumps(
            {"epochs": TRAIN_EPOCHS, "batch_size": 64, "seed": self.seed}),
            encoding="utf-8")
        # Warm-up: one forward and backward pass at the batch shape.
        x = data.normalize_input(np.stack([r.beta for r in rows[0][:64]]),
                                 data.compute_norm_stats(rows[0]))
        net = model.init_model(seed=self.seed)
        y, tape = engine.forward(build_graph(8, 3), x, net, want_tape=True)
        engine.backward(net, tape, np.ones_like(y))

    def _cli(self, argv: list[str]) -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["--threads", "1", *argv])
        if code != 0:
            raise RuntimeError(f"cfgnn {argv[0]} exited with {code}")

    def request(self, i: int):
        cycle = self.workdir / f"cycle{i:04d}"
        self._cli(["train", "--data", str(self.train_path), "--config",
                   str(self.config_path), "--out", str(cycle / "run")])
        self._cli(["eval", "--model", str(cycle / "run" / "best.json"),
                   "--data", str(self.heldout_path), "--report-dir",
                   str(cycle / "reports")])
        return cycle

    def check(self, cycle: Path) -> None:
        try:
            self._check_cycle(cycle)
        finally:
            shutil.rmtree(cycle, ignore_errors=True)

    def _check_cycle(self, cycle: Path) -> None:
        lines = (cycle / "run" / "metrics.csv").read_text().splitlines()[1:]
        losses = [float(line.split(",")[1]) for line in lines]
        if len(losses) != TRAIN_EPOCHS or not losses[-1] < losses[0]:
            raise checks.CheckError(f"train loss did not fall: {losses}")
        reports = cycle / "reports"
        digests = {"best.json": _digest(cycle / "run" / "best.json")}
        for path in sorted(reports.iterdir()):
            digests[path.name] = _digest(path)
        if self.first_digests is None:
            self.first_digests = digests
        elif digests != self.first_digests:
            raise checks.CheckError("two cycles gave different best.json or "
                                    "eval reports")
        se: dict[str, list[float]] = {}
        cdf = (reports / "cdf_8x3_urban.csv").read_text().splitlines()[1:]
        for line in cdf:
            value, _, method = line.split(",")
            se.setdefault(method, []).append(float(value))
        checks.check_cdf_order({m: np.array(v) for m, v in se.items()})

    def trace_specs(self) -> list[tuple]:
        return [(data, "read_jsonl", "data.read_jsonl", None,
                 _record_bytes(0)),
                (training, "train", "training.train"),
                (training, "loss_and_grads", "training.loss_and_grads"),
                (training, "adam_step", "training.adam_step"),
                (training, "forward", "engine.forward.train"),
                (training, "backward", "engine.backward"),
                (training, "save_checkpoint", "model.save_checkpoint", None,
                 _record_bytes(1)),
                (model, "load_checkpoint", "model.load_checkpoint"),
                (eval_mod, "evaluate", "eval.evaluate"),
                (eval_mod, "forward", "eval.forward"),
                (eval_mod, "flop_comparison", "eval.flop_comparison")]


def validate_fixture_row(row: data.Sample, rng: np.random.Generator) -> None:
    """The program's own label check plus the independent ones."""
    if not row.labeled:
        raise checks.CheckError("row carries no label")
    row.validate(RHO_D, RHO_U, row.num_ues)
    rivals = checks.random_feasible(rng, FIXTURE_RIVALS, row.num_aps,
                                    row.num_ues)
    checks.check_label(row.beta, row.eta_opt, row.sinr_opt, rivals,
                       RHO_D, RHO_U, row.num_ues)


WORKLOADS = {w.name: w for w in (LabelWorkload, InferWorkload, TrainWorkload)}
