"""Command-line contract: subcommands, exit codes, end-to-end determinism."""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from cfgnn.cli import _BLAS_VARS, main, parse_scenarios
from oracle import subprocess_env

FIXTURES = Path(__file__).resolve().parent.parent / "perfbench" / "fixtures"
# sha256 of the artifacts of `cfgnn --threads 1 train` (epochs 4, batch 64,
# seed 3) on the 8x3 fixture, then `eval` on its held-out rows; measured
# with numpy 2.4.6 and one BLAS thread.
FIXTURE_RUN_SHA256 = {
    "run/best.json":
        "f4c57ef0481346ceb7057a52127b80c44e285c6394e9bd6b9fc1adc7c6d9a3e5",
    "run/checkpoints/epoch_004.json":
        "d43ecda75996bb52d22e193b00caea171464c1a7fb15c87b579653f476a1533a",
    "reports/summary.csv":
        "650a11db372f2b6e0719cbe07e88213dc4630d8dedd7641182f775b4218d94a0",
    "reports/cdf_8x3_urban.csv":
        "63dbfdbd7c0a4dbf838dde83f3fd7d2fa7c9251616e54c2f297df5f026f0049f",
}


def test_parse_scenarios_grammar():
    assert parse_scenarios("8x3:urban") == [(8, 3, "urban")]
    assert parse_scenarios("8x3:urban,32x9:suburban") == [
        (8, 3, "urban"), (32, 9, "suburban")]
    for bad in ("8x3", "8:urban", "axb:urban", "0x3:urban", "8x3:urban;4x2:rural",
                "8x3:desert"):
        with pytest.raises(ValueError):
            parse_scenarios(bad)


def test_gen_data_count_contract(tmp_path):
    out = tmp_path / "data.jsonl"
    rc = main(["gen-data", "--scenarios", "3x2:urban", "--count", "10",
               "--out", str(out), "--seed", "1"])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 10
    record = json.loads(lines[0])
    assert record["M"] == 3 and record["K"] == 2


def test_gen_data_deterministic(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    args = ["gen-data", "--scenarios", "3x2:rural,2x2:urban", "--count", "5",
            "--seed", "7"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_usage_errors_exit_two(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen-data", "--scenarios", "bogus", "--count", "1",
              "--out", str(tmp_path / "x"), "--seed", "1"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--in", str(tmp_path / "missing.jsonl"),
              "--out", str(tmp_path / "y")])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    for scenarios, count in (("0x3:urban", "1"), ("3x2:urban", "-1"),
                             ("8x3:desert", "1")):
        out = tmp_path / f"gen_{scenarios[0]}_{count}.jsonl"
        with pytest.raises(SystemExit) as exc:
            main(["gen-data", "--scenarios", scenarios, "--count", count,
                  "--out", str(out), "--seed", "1"])
        assert exc.value.code == 2, (scenarios, count)
        assert not out.exists(), (scenarios, count)
    capsys.readouterr()


def test_full_pipeline_roundtrip(tmp_path):
    raw = tmp_path / "raw.jsonl"
    labeled = tmp_path / "labeled.jsonl"
    run_dir = tmp_path / "run"
    reports = tmp_path / "reports"
    assert main(["gen-data", "--scenarios", "3x2:urban", "--count", "8",
                 "--out", str(raw), "--seed", "5"]) == 0
    assert main(["--threads", "1", "solve", "--in", str(raw),
                 "--out", str(labeled)]) == 0
    assert len(labeled.read_text().strip().splitlines()) == 8

    cfg = tmp_path / "train.json"
    cfg.write_text(json.dumps({"epochs": 2, "batch_size": 4, "seed": 0}))
    assert main(["train", "--data", str(labeled), "--config", str(cfg),
                 "--out", str(run_dir)]) == 0
    assert (run_dir / "best.json").exists()
    assert (run_dir / "metrics.csv").exists()

    assert main(["eval", "--model", str(run_dir / "best.json"),
                 "--data", str(labeled), "--report-dir", str(reports)]) == 0
    summary = (reports / "summary.csv").read_text().splitlines()
    assert summary[0].startswith("scenario,")
    assert summary[1].startswith("3x2:urban,")
    assert (reports / "cdf_3x2_urban.csv").exists()


def test_solve_and_train_rerun_byte_identical(tmp_path):
    raw = tmp_path / "raw.jsonl"
    main(["gen-data", "--scenarios", "2x2:urban", "--count", "6",
          "--out", str(raw), "--seed", "3"])
    la, lb = tmp_path / "la.jsonl", tmp_path / "lb.jsonl"
    assert main(["--threads", "1", "solve", "--in", str(raw), "--out", str(la)]) == 0
    assert main(["--threads", "1", "solve", "--in", str(raw), "--out", str(lb)]) == 0
    assert la.read_bytes() == lb.read_bytes()

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"epochs": 1, "batch_size": 4}))
    ra, rb = tmp_path / "ra", tmp_path / "rb"
    assert main(["train", "--data", str(la), "--config", str(cfg),
                 "--out", str(ra)]) == 0
    assert main(["train", "--data", str(la), "--config", str(cfg),
                 "--out", str(rb)]) == 0
    assert (ra / "checkpoints/epoch_001.json").read_bytes() == \
           (rb / "checkpoints/epoch_001.json").read_bytes()


def test_flops_csv(tmp_path):
    from cfgnn.engine import count_flops

    out = tmp_path / "flops.csv"
    assert main(["flops", "--grid", "2x2,4x3", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "num_aps,num_ues,flops"
    assert len(lines) == 3
    for line in lines[1:]:
        m, k, flops = (int(v) for v in line.split(","))
        assert flops == count_flops(m, k)
    with pytest.raises(SystemExit) as exc:
        main(["flops", "--grid", "2x", "--out", str(out)])
    assert exc.value.code == 2
    # A size the engine cannot run is a usage error found before any row is
    # written, not a runtime error after a partial CSV.
    for grid in ("8x3,0x3", "0x3", "8x3,3x-1"):
        partial = tmp_path / "partial.csv"
        with pytest.raises(SystemExit) as exc:
            main(["flops", "--grid", grid, "--out", str(partial)])
        assert exc.value.code == 2, grid
        assert not partial.exists(), grid


def test_train_unlabeled_data_is_runtime_error(tmp_path, capsys):
    raw = tmp_path / "raw.jsonl"
    main(["gen-data", "--scenarios", "2x2:urban", "--count", "4",
          "--out", str(raw), "--seed", "2"])
    rc = main(["train", "--data", str(raw), "--out", str(tmp_path / "run")])
    assert rc == 1
    assert "labeled" in capsys.readouterr().err


def test_train_config_with_removed_key_is_usage_error(tmp_path, capsys):
    raw = tmp_path / "raw.jsonl"
    main(["gen-data", "--scenarios", "2x2:urban", "--count", "2",
          "--out", str(raw), "--seed", "2"])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grad_clip": 1.0}))
    with pytest.raises(SystemExit) as exc:
        main(["train", "--data", str(raw), "--config", str(cfg),
              "--out", str(tmp_path / "run")])
    assert exc.value.code == 2
    assert "bad training config" in capsys.readouterr().err


@pytest.mark.parametrize("config", [
    {"epochs": 1.5},
    {"batch_size": 8.5, "epochs": 1},
    {"seed": 1.5, "epochs": 1},
    {"epochs": True},
    {"lr": -1},
    {"beta1": 1.0},
    {"eps": 0.0},
])
def test_train_config_with_bad_value_is_usage_error(tmp_path, capsys,
                                                    labeled_4x2, config):
    """A wrong type or an out-of-range value fails before training starts,
    not as a traceback, a non-finite loss or a silent bool-as-int."""
    from cfgnn.data import write_jsonl

    data = tmp_path / "labeled.jsonl"
    write_jsonl(labeled_4x2, str(data))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    with pytest.raises(SystemExit) as exc:
        main(["--threads", "1", "train", "--data", str(data),
              "--config", str(cfg), "--out", str(tmp_path / "run")])
    assert exc.value.code == 2
    assert "bad training config" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_malformed_dataset_exits_one_with_line_number(tmp_path, capsys):
    from cfgnn.model import init_model, save_checkpoint

    raw = tmp_path / "raw.jsonl"
    main(["gen-data", "--scenarios", "2x2:urban", "--count", "2",
          "--out", str(raw), "--seed", "2"])
    lines = raw.read_text().splitlines()
    doc = json.loads(lines[1])
    doc["beta"][0] = -doc["beta"][0]
    lines[1] = json.dumps(doc)
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    model = tmp_path / "model.json"
    save_checkpoint(init_model(seed=0), str(model))
    capsys.readouterr()
    for argv in (["solve", "--in", str(bad), "--out", str(tmp_path / "l")],
                 ["train", "--data", str(bad), "--out", str(tmp_path / "r")],
                 ["eval", "--model", str(model), "--data", str(bad),
                  "--report-dir", str(tmp_path / "rep")]):
        assert main(["--threads", "1", *argv]) == 1, argv
        assert f"{bad}:2: beta entries must be positive" in \
            capsys.readouterr().err, argv


def test_broken_checkpoint_exits_one_naming_the_file(tmp_path, capsys):
    """A checkpoint that does not decode, lacks a section, has a wrong
    shape, holds a NaN or has a fingerprint that is not an object fails on
    load with its path, through `eval` and `train --resume-from` alike."""
    raw, labeled = tmp_path / "raw.jsonl", tmp_path / "labeled.jsonl"
    main(["gen-data", "--scenarios", "2x2:urban", "--count", "8",
          "--out", str(raw), "--seed", "2"])
    assert main(["--threads", "1", "solve", "--in", str(raw),
                 "--out", str(labeled)]) == 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"epochs": 1, "batch_size": 4}))
    run = tmp_path / "run"
    assert main(["train", "--data", str(labeled), "--config", str(cfg),
                 "--out", str(run)]) == 0
    text = (run / "checkpoints/epoch_001.json").read_text()

    def edited(keys, value):
        """The checkpoint text with doc[k0][k1]... set to value, or the
        entry deleted when value is None; json writes NaN as a bare NaN."""
        top = doc = json.loads(text)
        *parents, leaf = keys
        for key in parents:
            doc = doc[key]
        if value is None:
            del doc[leaf]
        else:
            doc[leaf] = value
        return json.dumps(top)

    cases = [
        ("truncated", text[:1000], "not a JSON checkpoint"),
        ("nan_weight", edited(("params", "out.w", "data", 0), float("nan")),
         "params tensor out.w holds non-finite values"),
        ("inf_moment", edited(("extra_arrays", "adam_v.out.b", "data", 0),
                              float("inf")),
         "extra_arrays tensor adam_v.out.b holds non-finite values"),
        ("no_params", edited(("params",), None), "checkpoint lacks 'params'"),
        ("no_norm", edited(("norm",), None), "checkpoint lacks 'norm'"),
        ("list_fingerprint", edited(("fingerprint",), [1]),
         "checkpoint fingerprint is not a JSON object"),
        ("wrong_shape", edited(("params", "out.w", "shape"), [8, 1]),
         "checkpoint shape mismatch for out.w"),
    ]
    capsys.readouterr()
    for name, body, message in cases:
        path = tmp_path / f"{name}.json"
        path.write_text(body)
        for argv in (["eval", "--model", str(path), "--data", str(labeled),
                      "--report-dir", str(tmp_path / "rep")],
                     ["train", "--data", str(labeled), "--config", str(cfg),
                      "--out", str(tmp_path / "resumed"),
                      "--resume-from", str(path)]):
            assert main(argv) == 1, (name, argv[0])
            assert f"error: {path}: {message}" in capsys.readouterr().err, \
                (name, argv[0])
    # best.json carries no optimizer state, so it cannot be resumed from.
    assert main(["train", "--data", str(labeled), "--config", str(cfg),
                 "--out", str(tmp_path / "resumed"),
                 "--resume-from", str(run / "best.json")]) == 1
    assert f"error: {run / 'best.json'}: not an epoch checkpoint" in \
        capsys.readouterr().err


def test_fixture_run_bytes_are_pinned(tmp_path):
    """Training and evaluation on the benchmark fixture reproduce the
    pinned checkpoint and report bytes in a fresh one-BLAS-thread process."""
    env = subprocess_env(**{var: "1" for var in _BLAS_VARS})
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"epochs": 4, "batch_size": 64, "seed": 3}')
    run, reports = tmp_path / "run", tmp_path / "reports"
    for command in (["train", "--data", str(FIXTURES / "train_8x3.jsonl"),
                     "--config", str(cfg), "--out", str(run)],
                    ["eval", "--model", str(run / "best.json"),
                     "--data", str(FIXTURES / "heldout_8x3.jsonl"),
                     "--report-dir", str(reports)]):
        result = subprocess.run(
            [sys.executable, "-m", "cfgnn.cli", "--threads", "1", *command],
            env=env, capture_output=True, text=True)
        assert result.returncode == 0, (command, result.stderr)
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in FIXTURE_RUN_SHA256}
    assert digests == FIXTURE_RUN_SHA256
