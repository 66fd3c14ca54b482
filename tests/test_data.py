"""Dataset generation, JSONL serialization, and log-domain normalization."""

import json
from pathlib import Path

import numpy as np
import pytest

from cfgnn.channel import RadioDefaults, draw_fading
from cfgnn.data import (
    NormStats,
    Sample,
    compute_norm_stats,
    denormalize_output,
    derive_sample_seed,
    generate_unlabeled,
    label_samples,
    normalize_input,
    read_jsonl,
    sample_from_json,
    sample_to_json,
    write_jsonl,
)


def test_generate_unlabeled_counts_and_determinism():
    specs = [(3, 2, "urban", 4), (2, 2, "rural", 3)]
    a = generate_unlabeled(specs, run_seed=5)
    b = generate_unlabeled(specs, run_seed=5)
    assert len(a) == 7
    assert [(s.num_aps, s.num_ues, s.morphology) for s in a[:4]] == [(3, 2, "urban")] * 4
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x.beta, y.beta)
    for row in a:
        again = draw_fading(row.num_aps, row.num_ues, row.morphology,
                            np.random.default_rng(row.seed))
        np.testing.assert_array_equal(again, row.beta)
    c = generate_unlabeled(specs, run_seed=6)
    assert not np.array_equal(a[0].beta, c[0].beta)


def test_generate_zero_count_is_empty():
    assert generate_unlabeled([(3, 2, "urban", 0)], run_seed=1) == []


def test_derived_seeds_distinct():
    seeds = {derive_sample_seed(42, i) for i in range(100)}
    assert len(seeds) == 100


def test_jsonl_roundtrip_bit_exact(tmp_path, labeled_4x2):
    path = tmp_path / "data.jsonl"
    write_jsonl(labeled_4x2, str(path))
    back = read_jsonl(str(path))
    assert len(back) == len(labeled_4x2)
    for a, b in zip(labeled_4x2, back):
        assert a.morphology == b.morphology
        assert a.seed == b.seed
        np.testing.assert_array_equal(a.beta, b.beta)
        np.testing.assert_array_equal(a.eta_opt, b.eta_opt)
        np.testing.assert_array_equal(a.sinr_opt, b.sinr_opt)
    # a second write is byte-identical
    path2 = tmp_path / "data2.jsonl"
    write_jsonl(back, str(path2))
    assert path.read_bytes() == path2.read_bytes()


def test_jsonl_field_names(labeled_4x2):
    record = json.loads(sample_to_json(labeled_4x2[0]))
    assert set(record) == {"M", "K", "morphology", "seed", "beta",
                           "eta_opt", "sinr_opt"}
    assert len(record["beta"]) == 8          # row-major M*K
    assert len(record["sinr_opt"]) == 2


def test_unlabeled_serialization_omits_labels():
    sample = generate_unlabeled([(2, 2, "urban", 1)], run_seed=3)[0]
    record = json.loads(sample_to_json(sample))
    assert "eta_opt" not in record and "sinr_opt" not in record
    back = sample_from_json(sample_to_json(sample))
    assert not back.labeled


def test_label_samples_adds_valid_labels(labeled_4x2, radio):
    for sample in labeled_4x2[:4]:
        assert sample.labeled
        sample.validate(radio.rho_d(), radio.rho_u(), sample.num_ues)


def test_sample_validate_rejects_corrupt_labels(labeled_4x2, radio):
    good = labeled_4x2[0]
    bad = Sample(num_aps=good.num_aps, num_ues=good.num_ues,
                 morphology=good.morphology, seed=good.seed, beta=good.beta,
                 eta_opt=good.eta_opt, sinr_opt=np.asarray(good.sinr_opt) * 1.5)
    with pytest.raises(ValueError):
        bad.validate(radio.rho_d(), radio.rho_u(), good.num_ues)


def test_norm_stats_standardize_and_roundtrip(labeled_4x2):
    stats = compute_norm_stats(labeled_4x2)
    assert stats.in_std > 0 and stats.out_std > 0
    pooled = np.concatenate([np.log2(s.beta).ravel() for s in labeled_4x2])
    assert stats.in_mean == pytest.approx(pooled.mean())
    x = normalize_input(labeled_4x2[0].beta, stats)
    assert x.shape == (4, 2)
    # output transform round-trips through its inverse
    eta = np.asarray(labeled_4x2[0].eta_opt)
    y = (np.log2(np.maximum(eta, 1e-12)) - stats.out_mean) / stats.out_std
    np.testing.assert_allclose(denormalize_output(y, stats),
                               np.maximum(eta, 1e-12), rtol=1e-12)


def test_constant_dataset_normalizes_to_zero():
    sample = Sample(num_aps=2, num_ues=2, morphology="urban", seed=0,
                    beta=np.full((2, 2), 1e-9))
    stats = compute_norm_stats([sample])
    x = normalize_input(sample.beta, stats)
    np.testing.assert_allclose(x, 0.0, atol=1e-12)


def test_log2_transform_compresses_range():
    lo, hi = np.log2(1e-15), np.log2(1e-5)
    assert -50 < lo < hi < -16


FIXTURE = Path(__file__).resolve().parents[1] / "perfbench" / "fixtures"


def test_labels_reproduce_committed_fixture_bytes():
    """The solver's labels are part of the data contract: the first rows of
    the committed held-out fixture must come out byte for byte."""
    committed = (FIXTURE / "heldout_8x3.jsonl").read_text(
        encoding="utf-8").splitlines()[:8]
    samples = generate_unlabeled([(8, 3, "urban", 8)], run_seed=816)
    labeled = label_samples(samples, threads=1)
    assert [sample_to_json(s) for s in labeled] == committed


def _write_with_bad_second_line(tmp_path, labeled_4x2, corrupt):
    good = sample_to_json(labeled_4x2[0])
    doc = json.loads(sample_to_json(labeled_4x2[1]))
    corrupt(doc)
    path = tmp_path / "bad.jsonl"
    path.write_text(good + "\n" + json.dumps(doc) + "\n", encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("field", ["beta", "eta_opt", "sinr_opt"])
def test_read_jsonl_rejects_wrong_length(tmp_path, labeled_4x2, field):
    path = _write_with_bad_second_line(tmp_path, labeled_4x2,
                                       lambda doc: doc[field].pop())
    with pytest.raises(ValueError, match=rf"bad\.jsonl:2: {field} has shape"):
        read_jsonl(path)


@pytest.mark.parametrize("field", ["beta", "eta_opt", "sinr_opt"])
def test_read_jsonl_rejects_non_finite(tmp_path, labeled_4x2, field):
    def corrupt(doc):
        doc[field][0] = float("nan")
    path = _write_with_bad_second_line(tmp_path, labeled_4x2, corrupt)
    with pytest.raises(ValueError, match=rf"bad\.jsonl:2: {field} holds non-finite"):
        read_jsonl(path)


@pytest.mark.parametrize("value", [0.0, -1e-9])
def test_read_jsonl_rejects_nonpositive_beta(tmp_path, labeled_4x2, value):
    def corrupt(doc):
        doc["beta"][3] = value
    path = _write_with_bad_second_line(tmp_path, labeled_4x2, corrupt)
    with pytest.raises(ValueError, match=r"bad\.jsonl:2: beta entries must be positive"):
        read_jsonl(path)


def test_read_jsonl_rejects_negative_eta(tmp_path, labeled_4x2):
    def corrupt(doc):
        doc["eta_opt"][1] = -1e-3
    path = _write_with_bad_second_line(tmp_path, labeled_4x2, corrupt)
    with pytest.raises(ValueError, match=r"bad\.jsonl:2: eta_opt entries must be non-negative"):
        read_jsonl(path)


@pytest.mark.parametrize("values", [[0.0, 0.0], [-2.0, 0.5]])
def test_read_jsonl_rejects_nonpositive_sinr(tmp_path, labeled_4x2, values):
    """The solver never labels a zero SINR (it raises SolverError), so such
    a label is corrupt and must not reach eval's log2 or the trainer."""
    def corrupt(doc):
        doc["sinr_opt"] = values
    path = _write_with_bad_second_line(tmp_path, labeled_4x2, corrupt)
    with pytest.raises(ValueError, match=r"bad\.jsonl:2: sinr_opt entries must be positive"):
        read_jsonl(path)


def test_read_jsonl_rejects_unknown_morphology(tmp_path, labeled_4x2):
    def corrupt(doc):
        doc["morphology"] = "desert"
    path = _write_with_bad_second_line(tmp_path, labeled_4x2, corrupt)
    with pytest.raises(ValueError, match=r"bad\.jsonl:2: unknown morphology 'desert'"):
        read_jsonl(path)


@pytest.mark.parametrize("field", ["M", "K"])
def test_read_jsonl_rejects_empty_scenario(tmp_path, labeled_4x2, field):
    """A zero size with matching empty arrays is consistent but not a
    scenario: it must not reach the solver or the trainer."""
    def corrupt(doc):
        doc[field] = 0
        doc["beta"], doc["eta_opt"] = [], []
        if field == "K":
            doc["sinr_opt"] = []
    path = _write_with_bad_second_line(tmp_path, labeled_4x2, corrupt)
    with pytest.raises(ValueError, match=r"bad\.jsonl:2: M and K must be >= 1"):
        read_jsonl(path)


@pytest.mark.parametrize("field, value", [("M", 2.5), ("K", True),
                                          ("seed", 1.9), ("seed", "8")])
def test_read_jsonl_rejects_non_integer_fields(tmp_path, labeled_4x2, field,
                                               value):
    """int() would truncate 2.5 and 1.9 and accept true and "8"; a size or
    seed that is not a JSON integer is refused with path:line instead."""
    def corrupt(doc):
        doc[field] = value
    path = _write_with_bad_second_line(tmp_path, labeled_4x2, corrupt)
    with pytest.raises(ValueError,
                       match=rf"bad\.jsonl:2: {field} must be an integer"):
        read_jsonl(path)
