"""Every workload runs a few requests with all checks on, and the
benchmark's description matches what it reports."""

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import checks
import layers
import workloads
from spans import Tracer, patched

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(BENCH / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_runs_clean(name, spec):
    result = _result(_run(ROOT, "--workload", name, "--seed", "3",
                          "--seconds", "1", "--trace", "0"))
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] % workloads.WORKLOADS[name].round_size == 0
    expected = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_reports_every_layer_metric(spec):
    result = _result(_run(ROOT, "--workload", "infer-32x9", "--seed", "3",
                          "--seconds", "1", "--trace", "1"))
    assert result["correct"] and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    values = {k: v["value"] for k, v in result["metrics"].items()}
    may_be_zero = [k for k in values if k == "maxmin.nonconverged"
                   or k.startswith("trace.overhead_ms.")]
    assert {k for k, v in values.items() if not v > 0} <= set(may_be_zero)
    assert values["eval.forward_calls"] == 64
    # one per epoch, plus best.json whenever validation improved
    assert workloads.TRAIN_EPOCHS < values["model.checkpoints_written"] \
        <= 2 * workloads.TRAIN_EPOCHS
    assert (BENCH / "out" / "trace-infer-32x9-seed3.json").is_file()


def test_a_renamed_function_is_not_silently_skipped():
    with pytest.raises(AttributeError):
        with patched(Tracer(), [(types.SimpleNamespace(), "gone", "x")]):
            pass


def test_a_layer_without_spans_is_reported_missing():
    missing = layers.per_layer(Tracer(), {})[2]
    assert set(missing) == {name for name, _ in layers.SPANS} \
        | {"channel.generate_unlabeled"}


def test_spec_lists_what_the_benchmark_has(spec):
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == layers.PER_LAYER


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "label-32x9", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_a_corrupt_fixture_fails_loudly(tmp_path, monkeypatch):
    lines = (workloads.FIXTURES / "train_8x3.jsonl").read_text().splitlines()
    doc = json.loads(lines[4])
    doc["eta_opt"][0] *= 2.0
    lines[4] = json.dumps(doc, separators=(",", ":"))
    (tmp_path / "train_8x3.jsonl").write_text("\n".join(lines) + "\n")
    shutil.copy(workloads.FIXTURES / "heldout_8x3.jsonl", tmp_path)
    monkeypatch.setattr(workloads, "FIXTURES", tmp_path)
    with pytest.raises(checks.CheckError, match=r"train_8x3.jsonl:5"):
        workloads.TrainWorkload(1, tmp_path / "work").setup()
