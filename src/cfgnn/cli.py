"""Command-line entry point: gen-data | solve | train | eval | flops.

This is the only module that writes to the terminal: summaries go to
stdout, errors and the seeds of dropped samples to stderr.

Only stdlib imports at module scope.  main() pins BLAS libraries to a single
thread before the numeric modules load, so results are byte-identical no
matter what --threads is set to; --threads only controls process-level
parallelism when labeling datasets.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "OMP_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def _pin_blas() -> None:
    for var in _BLAS_VARS:
        os.environ.setdefault(var, "1")


def _parse_size(text: str) -> tuple[int, int]:
    """Parse "8x3" into (num_aps, num_ues), both at least 1."""
    text = text.strip()
    try:
        m_str, k_str = text.lower().split("x")
        num_aps, num_ues = int(m_str), int(k_str)
    except ValueError:
        raise ValueError(f"malformed size {text!r}, expected <M>x<K>") from None
    if num_aps < 1 or num_ues < 1:
        raise ValueError(f"size {text!r} needs positive M and K")
    return num_aps, num_ues


def parse_scenarios(text: str) -> list[tuple[int, int, str]]:
    """Parse "8x3:urban,32x9:suburban" into (num_aps, num_ues, morphology)."""
    from .channel import MORPHOLOGIES
    out = []
    for part in text.split(","):
        part = part.strip()
        try:
            shape, morphology = part.split(":")
        except ValueError:
            raise ValueError(f"malformed scenario {part!r}, "
                             "expected <M>x<K>:<morphology>") from None
        if morphology not in MORPHOLOGIES:
            raise ValueError(f"unknown morphology {morphology!r} in {part!r}, "
                             f"expected one of {', '.join(MORPHOLOGIES)}")
        out.append((*_parse_size(shape), morphology))
    return out


def _require_file(parser: argparse.ArgumentParser, path: str) -> None:
    if not Path(path).is_file():
        parser.error(f"file not found: {path}")


def _cmd_gen_data(args, parser) -> int:
    from .data import generate_unlabeled, write_jsonl
    if args.count < 1:
        parser.error("--count must be >= 1")
    try:
        scenarios = [(m, k, morph, args.count)
                     for m, k, morph in parse_scenarios(args.scenarios)]
    except ValueError as exc:
        parser.error(str(exc))
    samples = generate_unlabeled(scenarios, run_seed=args.seed)
    write_jsonl(samples, args.out)
    print(f"wrote {len(samples)} unlabeled samples to {args.out}")
    return 0


def _cmd_solve(args, parser) -> int:
    _require_file(parser, args.infile)
    from .data import label_samples, read_jsonl, write_jsonl
    samples = read_jsonl(args.infile)
    labeled = label_samples(samples, threads=args.threads)
    write_jsonl(labeled, args.out)
    kept = {id(sample.beta) for sample in labeled}  # shared with the input row
    dropped = [sample for sample in samples if id(sample.beta) not in kept]
    for sample in dropped:
        print(f"dropped sample seed={sample.seed} ({sample.num_aps}x"
              f"{sample.num_ues}): the solver failed or did not converge",
              file=sys.stderr)
    note = f" ({len(dropped)} dropped)" if dropped else ""
    print(f"labeled {len(labeled)} samples{note} -> {args.out}")
    return 0


def _cmd_train(args, parser) -> int:
    _require_file(parser, args.data)
    overrides = {}
    if args.config is not None:
        _require_file(parser, args.config)
        with open(args.config, encoding="utf-8") as fh:
            overrides = json.load(fh)
    from .data import read_jsonl
    from .training import TrainConfig, split_train_val, train
    try:
        cfg = TrainConfig(**overrides)
    except (TypeError, ValueError) as exc:
        parser.error(f"bad training config: {exc}")
    train_set, val_set = split_train_val(read_jsonl(args.data), cfg)
    model, history = train(train_set, val_set, cfg, args.out,
                           resume_from=args.resume_from)
    last = history[-1] if history else {}
    print(f"trained {len(history)} epochs; final train loss "
          f"{last.get('train_loss', float('nan')):.6f}; artifacts in {args.out}")
    return 0


def _cmd_eval(args, parser) -> int:
    _require_file(parser, args.model)
    _require_file(parser, args.data)
    from .data import read_jsonl
    from .eval import evaluate, export_cdf_csv, export_summary_csv
    from .model import load_checkpoint
    model, _ = load_checkpoint(args.model)
    samples = read_jsonl(args.data)
    if not samples:
        print("error: empty evaluation set", file=sys.stderr)
        return 1
    groups: dict[tuple[int, int, str], list] = {}
    for sample in samples:
        key = (sample.num_aps, sample.num_ues, sample.morphology)
        groups.setdefault(key, []).append(sample)
    report_dir = Path(args.report_dir)
    report_dir.mkdir(parents=True, exist_ok=True)
    reports = []
    for group in groups.values():
        report = evaluate(model, group)
        reports.append(report)
        tag = report.scenario.replace(":", "_")
        export_cdf_csv(report, str(report_dir / f"cdf_{tag}.csv"))
        print(f"{report.scenario}: loss at median {report.loss_at_median:.3f}%"
              f", 95%-likely loss {report.likely95_loss:.3f}%")
    export_summary_csv(reports, str(report_dir / "summary.csv"))
    print(f"reports written to {report_dir}")
    return 0


def _cmd_flops(args, parser) -> int:
    import csv as _csv
    from .engine import count_flops
    try:
        grid = [_parse_size(part) for part in args.grid.split(",")]
    except ValueError as exc:
        parser.error(f"bad --grid {args.grid!r}: {exc}")
    model = None
    if args.model is not None:
        _require_file(parser, args.model)
        from .model import load_checkpoint
        model, _ = load_checkpoint(args.model)
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = _csv.writer(fh)
        writer.writerow(["num_aps", "num_ues", "flops"])
        for m, k in grid:
            writer.writerow([m, k, count_flops(m, k, model)])
    print(f"wrote {len(grid)} rows to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cfgnn",
        description="Max-min power control for cell-free networks: "
                    "data generation, optimal solver, GNN training and "
                    "evaluation, FLOP accounting.")
    parser.add_argument("--threads", type=int, default=os.cpu_count() or 1,
                        help="worker processes for dataset labeling; never "
                             "affects numeric results")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate unlabeled channel samples")
    p.add_argument("--scenarios", required=True,
                   help="comma-separated <M>x<K>:<morphology> specs")
    p.add_argument("--count", type=int, required=True,
                   help="samples per scenario")
    p.add_argument("--out", required=True, help="output JSONL path")
    p.add_argument("--seed", type=int, required=True)

    p = sub.add_parser("solve", help="label a dataset with optimal powers")
    p.add_argument("--in", dest="infile", required=True,
                   help="unlabeled JSONL path")
    p.add_argument("--out", required=True, help="labeled JSONL path")

    p = sub.add_parser("train", help="train the network on a labeled dataset")
    p.add_argument("--data", required=True, help="labeled JSONL path")
    p.add_argument("--config", default=None,
                   help="JSON file overriding training defaults")
    p.add_argument("--out", required=True,
                   help="run directory for checkpoints and metrics")
    p.add_argument("--resume-from", default=None,
                   help="epoch checkpoint to continue from")

    p = sub.add_parser("eval", help="evaluate a checkpoint on labeled data")
    p.add_argument("--model", required=True, help="checkpoint path")
    p.add_argument("--data", required=True, help="labeled JSONL path")
    p.add_argument("--report-dir", required=True)

    p = sub.add_parser("flops", help="count inference FLOPs over a size grid")
    p.add_argument("--model", default=None,
                   help="checkpoint path (default: fresh seed-0 model)")
    p.add_argument("--grid", required=True, help="M1xK1,M2xK2,...")
    p.add_argument("--out", required=True, help="output CSV path")
    return parser


_COMMANDS = {
    "gen-data": _cmd_gen_data,
    "solve": _cmd_solve,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "flops": _cmd_flops,
}


def main(argv: list[str] | None = None) -> int:
    _pin_blas()
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.threads < 1:
        parser.error("--threads must be >= 1")
    try:
        return _COMMANDS[args.command](args, parser)
    except (OSError, RuntimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
