"""Per-layer metrics computed from a traced run's spans.

Times are means per call (ms) over the traced requests; counts are per call
or per request as named.  Set-up spans feed only the channel metric.  A
span name in SPANS that a traced run never opened (the program now calls
that function through another name) is reported as missing, and the run is
then not correct: its metrics would read 0, which looks like a gain.
"""

from __future__ import annotations

import statistics

from workloads import TRAIN_EPOCHS, WORKLOADS

# (name, unit, better)
PER_LAYER = [
    ("maxmin.solve_ms", "ms", "lower"),
    ("maxmin.bisection_steps", "count", "lower"),
    ("maxmin.newton_systems", "count", "lower"),
    ("maxmin.ms_per_newton_system", "ms", "lower"),
    ("maxmin.flops", "count", "lower"),
    ("maxmin.lu_flops", "count", "lower"),
    ("maxmin.minflt", "count", "lower"),
    ("maxmin.nonconverged", "count", "lower"),
    ("data.label_overhead_ms", "ms", "lower"),
    ("data.read_jsonl_ms", "ms", "lower"),
    ("data.read_jsonl_mb_per_s", "MB/s", "higher"),
    ("channel.generate_ms_per_sample", "ms", "lower"),
    ("engine.forward_ms", "ms", "lower"),
    ("engine.project_ms", "ms", "lower"),
    ("engine.forward_flops", "count", "lower"),
    ("engine.forward_gflops", "GFLOP/s", "higher"),
    ("engine.forward_minflt", "count", "lower"),
    ("engine.train_forward_ms", "ms", "lower"),
    ("engine.backward_ms", "ms", "lower"),
    ("training.step_ms", "ms", "lower"),
    ("training.loss_and_grads_ms", "ms", "lower"),
    ("training.adam_ms", "ms", "lower"),
    ("training.epoch_ms", "ms", "lower"),
    ("model.save_checkpoint_ms", "ms", "lower"),
    ("model.checkpoint_bytes", "bytes", "lower"),
    ("model.checkpoints_written", "count", "lower"),
    ("model.load_checkpoint_ms", "ms", "lower"),
    ("eval.evaluate_ms", "ms", "lower"),
    ("eval.forward_calls", "count", "lower"),
    ("eval.flop_comparison_ms", "ms", "lower"),
] + [(f"{kind}.{name}", unit, "lower")
     for name in WORKLOADS
     for kind, unit in (("process.wall_s", "s"), ("process.cpu_s", "s"),
                        ("process.minflt", "count"),
                        ("trace.overhead_ms", "ms"))]


# Span names every traced run must open inside a request, as (name, parent).
SPANS = [
    ("maxmin.solve_maxmin", None), ("data.label_samples", None),
    ("data.normalize_input", None), ("engine.forward", None),
    ("engine.project_powers", None), ("data.read_jsonl", None),
    ("training.train", None), ("training.loss_and_grads", None),
    ("training.adam_step", None),
    ("engine.forward.train", "training.loss_and_grads"),
    ("engine.backward", None), ("model.save_checkpoint", None),
    ("model.load_checkpoint", None), ("eval.evaluate", None),
    ("eval.forward", None), ("eval.flop_comparison", None),
]


def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def per_layer(tracer, process: dict) -> tuple[dict, dict, list[str]]:
    """(metrics as name -> (value, unit), summary figures for the trace file,
    span names the run never opened)."""
    def calls(name, parent=None):
        return [s for s in tracer.named(name) if s.request is not None
                and (parent is None or (s.parent is not None and
                                        tracer.spans[s.parent].name == parent))]

    def ms(name, parent=None):
        return _mean(s.ms for s in calls(name, parent))

    def count(name, key):
        return _mean(s.counts.get(key, 0) for s in calls(name))

    missing = [name for name, parent in SPANS if not calls(name, parent)]
    generated = tracer.named("channel.generate_unlabeled")
    if not generated:
        missing.append("channel.generate_unlabeled")
    solves = calls("maxmin.solve_maxmin")
    newton = count("maxmin.solve_maxmin", "newton_systems")
    forwards = calls("engine.forward")
    forward_s = sum(s.ms for s in forwards) / 1e3
    reads = calls("data.read_jsonl")
    read_s = sum(s.ms for s in reads) / 1e3
    n_generated = sum(s.counts.get("samples", 0) for s in generated)
    train_requests = max(len(process.get("train-8x3", {}).get("traced_s",
                                                              [])), 1)
    evaluations = max(len(calls("eval.evaluate")), 1)

    values = {
        "maxmin.solve_ms": ms("maxmin.solve_maxmin"),
        "maxmin.bisection_steps": count("maxmin.solve_maxmin",
                                        "bisection_steps"),
        "maxmin.newton_systems": newton,
        "maxmin.ms_per_newton_system":
            ms("maxmin.solve_maxmin") / newton if newton else 0.0,
        "maxmin.flops": count("maxmin.solve_maxmin", "flops"),
        "maxmin.lu_flops": count("maxmin.solve_maxmin", "lu_flops"),
        "maxmin.minflt": count("maxmin.solve_maxmin", "minflt"),
        "maxmin.nonconverged": sum(s.counts.get("nonconverged", 0)
                                   for s in solves),
        "data.label_overhead_ms":
            ms("data.label_samples") - ms("maxmin.solve_maxmin"),
        "data.read_jsonl_ms": ms("data.read_jsonl"),
        "data.read_jsonl_mb_per_s":
            sum(s.counts.get("bytes", 0) for s in reads) / read_s / 1e6
            if read_s else 0.0,
        "channel.generate_ms_per_sample":
            sum(s.ms for s in generated) / n_generated if n_generated else 0.0,
        "engine.forward_ms": ms("engine.forward"),
        "engine.project_ms": ms("engine.project_powers"),
        "engine.forward_flops": count("engine.forward", "flops"),
        "engine.forward_gflops":
            sum(s.counts.get("flops", 0) for s in forwards) / forward_s / 1e9
            if forward_s else 0.0,
        "engine.forward_minflt": count("engine.forward", "minflt"),
        "engine.train_forward_ms": ms("engine.forward.train",
                                      parent="training.loss_and_grads"),
        "engine.backward_ms": ms("engine.backward"),
        "training.step_ms":
            ms("training.loss_and_grads") + ms("training.adam_step"),
        "training.loss_and_grads_ms": ms("training.loss_and_grads"),
        "training.adam_ms": ms("training.adam_step"),
        "training.epoch_ms": ms("training.train") / TRAIN_EPOCHS,
        "model.save_checkpoint_ms": ms("model.save_checkpoint"),
        "model.checkpoint_bytes": count("model.save_checkpoint", "bytes"),
        "model.checkpoints_written":
            len(calls("model.save_checkpoint")) / train_requests,
        "model.load_checkpoint_ms": ms("model.load_checkpoint"),
        "eval.evaluate_ms": ms("eval.evaluate"),
        "eval.forward_calls": len(calls("eval.forward")) / evaluations,
        "eval.flop_comparison_ms": ms("eval.flop_comparison"),
    }
    for name, runs in process.items():
        values[f"process.wall_s.{name}"] = _median(runs["wall_s"])
        values[f"process.cpu_s.{name}"] = _median(runs["cpu_s"])
        values[f"process.minflt.{name}"] = _median(runs["minflt"])
        values[f"trace.overhead_ms.{name}"] = (
            _median(runs["traced_s"]) - _median(runs["wall_s"])) * 1e3
    metrics = {name: (values.get(name, 0.0), unit)
               for name, unit, _ in PER_LAYER}

    gnn_flops = values["engine.forward_flops"] + count("engine.project_powers",
                                                       "flops")
    gnn_ms = (ms("data.normalize_input") + values["engine.forward_ms"]
              + values["engine.project_ms"])
    summary = {
        "solver_over_gnn_flops_32x9":
            values["maxmin.flops"] / gnn_flops if gnn_flops else 0.0,
        "solver_over_gnn_wall_32x9":
            values["maxmin.solve_ms"] / gnn_ms if gnn_ms else 0.0,
    }
    return metrics, summary, missing
