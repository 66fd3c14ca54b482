"""Dataset records, JSON Lines serialization and log-domain preprocessing.

A sample couples one fading realisation with its optimal power control.
Datasets are stored as JSON Lines, one object per sample with keys
{"M", "K", "morphology", "seed", "beta", "eta_opt", "sinr_opt"}; matrices
are flattened row-major.  Unlabeled samples simply omit the last two keys.
Floats are serialized with Python's shortest round-trip repr, so files are
bit-exact across writes and reads.

Both fading gains and power fractions span many orders of magnitude, so the
network works in log2 space: inputs and targets are log2-transformed and
standardised with scalar statistics computed over every entry of the
training set.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from .channel import MORPHOLOGIES, draw_fading
from .maxmin import SolverError, solve_maxmin
from .sinr import compute_alpha, compute_sinr, is_feasible

ETA_LOG_FLOOR = 1e-12
STD_FLOOR = 1e-12
LABEL_REL_TOL = 1e-6     # stored sinr_opt vs recomputation, relative


@dataclass(frozen=True)
class NormStats:
    """Scalar standardisation statistics for log2 inputs and outputs."""

    in_mean: float
    in_std: float
    out_mean: float
    out_std: float

    def __post_init__(self) -> None:
        for name in ("in_mean", "in_std", "out_mean", "out_std"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.in_std <= 0 or self.out_std <= 0:
            raise ValueError("stds must be positive")


@dataclass
class Sample:
    """One fading realisation, optionally labeled with the optimal control."""

    num_aps: int
    num_ues: int
    morphology: str
    seed: int
    beta: np.ndarray                 # (M, K) linear
    eta_opt: np.ndarray | None = None
    sinr_opt: np.ndarray | None = None

    @property
    def labeled(self) -> bool:
        return self.eta_opt is not None and self.sinr_opt is not None

    def validate(self, rho_d: float, rho_u: float, tau: int) -> None:
        """Check label consistency: eta feasible, sinr matches recomputation."""
        if self.beta.shape != (self.num_aps, self.num_ues):
            raise ValueError(f"beta shape {self.beta.shape} does not match "
                             f"({self.num_aps}, {self.num_ues})")
        if not self.labeled:
            return
        if not is_feasible(self.eta_opt):
            raise ValueError("stored eta_opt violates the per-AP budget")
        alpha = compute_alpha(self.beta, rho_u, tau)
        sinr = compute_sinr(self.beta, alpha, self.eta_opt, rho_d)
        err = np.max(np.abs(sinr - self.sinr_opt) / np.maximum(self.sinr_opt, 1e-300))
        if err > LABEL_REL_TOL:
            raise ValueError(f"stored sinr_opt deviates from recomputation "
                             f"by {err:.3g} relative")


def sample_to_json(sample: Sample) -> str:
    doc: dict = {
        "M": sample.num_aps,
        "K": sample.num_ues,
        "morphology": sample.morphology,
        "seed": sample.seed,
        "beta": sample.beta.ravel().tolist(),
    }
    if sample.labeled:
        doc["eta_opt"] = sample.eta_opt.ravel().tolist()
        doc["sinr_opt"] = sample.sinr_opt.tolist()
    return json.dumps(doc, separators=(",", ":"))


def _finite_field(doc: dict, key: str, size: int) -> np.ndarray:
    arr = np.array(doc[key], dtype=float)
    if arr.shape != (size,):
        raise ValueError(f"{key} has shape {arr.shape}, expected ({size},)")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{key} holds non-finite values")
    return arr


def require_int(value, name: str) -> int:
    """`value` if it is a JSON integer; floats, booleans and strings raise
    ValueError instead of being truncated or coerced."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def sample_from_json(line: str) -> Sample:
    """Parse one JSONL record, rejecting M, K or seed that are not integers,
    M or K below 1, unknown morphologies, wrong lengths, non-finite values,
    non-positive gains or SINRs, and negative powers."""
    doc = json.loads(line)
    m, k = require_int(doc["M"], "M"), require_int(doc["K"], "K")
    if m < 1 or k < 1:
        raise ValueError(f"M and K must be >= 1, got M={m}, K={k}")
    if doc["morphology"] not in MORPHOLOGIES:
        raise ValueError(f"unknown morphology {doc['morphology']!r}, expected "
                         f"one of {', '.join(MORPHOLOGIES)}")
    beta = _finite_field(doc, "beta", m * k).reshape(m, k)
    if np.any(beta <= 0):
        raise ValueError("beta entries must be positive")
    eta = sinr = None
    if "eta_opt" in doc:
        eta = _finite_field(doc, "eta_opt", m * k).reshape(m, k)
        if np.any(eta < 0):
            raise ValueError("eta_opt entries must be non-negative")
        sinr = _finite_field(doc, "sinr_opt", k)
        if np.any(sinr <= 0):
            raise ValueError("sinr_opt entries must be positive")
    return Sample(num_aps=m, num_ues=k, morphology=doc["morphology"],
                  seed=require_int(doc["seed"], "seed"), beta=beta,
                  eta_opt=eta, sinr_opt=sinr)


def write_jsonl(samples: list[Sample], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for sample in samples:
            fh.write(sample_to_json(sample) + "\n")


def read_jsonl(path: str) -> list[Sample]:
    """Read a dataset; a malformed record raises ValueError naming path:line."""
    samples = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                samples.append(sample_from_json(line))
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    return samples


def derive_sample_seed(run_seed: int, index: int) -> int:
    """Independent per-sample integer seed from a run seed and sample index."""
    ss = np.random.SeedSequence((run_seed, index))
    return int(ss.generate_state(1, np.uint64)[0])


def generate_unlabeled(scenarios: list[tuple[int, int, str, int]],
                       run_seed: int) -> list[Sample]:
    """Draw fading realisations for a list of (M, K, morphology, count) specs.

    Sample i (indexed across the whole run) gets its own derived seed, so
    generation order and thread count cannot affect the values.
    """
    samples = []
    index = 0
    for num_aps, num_ues, morphology, count in scenarios:
        for _ in range(count):
            seed = derive_sample_seed(run_seed, index)
            beta = draw_fading(num_aps, num_ues, morphology,
                               np.random.default_rng(seed))
            samples.append(Sample(num_aps=num_aps, num_ues=num_ues,
                                  morphology=morphology, seed=seed, beta=beta))
            index += 1
    return samples


def _label_one(beta: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    try:
        sol = solve_maxmin(beta)
    except SolverError:
        return None
    if not sol.converged:
        return None
    return sol.eta, sol.sinr


def label_samples(samples: list[Sample], threads: int = 1) -> list[Sample]:
    """Attach optimal (eta, sinr) labels, in input order.

    A sample whose solve fails (`SolverError` or no convergence) shows up
    only as a missing row; each labeled row shares its input's `beta`.
    Results are deterministic for any thread count because each solve is
    pure and outputs are collected in input order.
    """
    jobs = [s.beta for s in samples]
    if threads > 1:
        # Imported here: the pool's modules cost every other command ~2 MB.
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(_label_one, jobs, chunksize=8))
    else:
        results = [_label_one(job) for job in jobs]
    return [replace(sample, eta_opt=result[0], sinr_opt=result[1])
            for sample, result in zip(samples, results) if result is not None]


def compute_norm_stats(samples: list[Sample]) -> NormStats:
    """Scalar log2 mean/std over all beta entries and all eta entries.

    Statistics must come from the training split only; checkpoints freeze
    them so that evaluation never recomputes anything.
    """
    if not samples:
        raise ValueError("cannot compute statistics of an empty sample list")
    logs_in = np.concatenate([np.log2(s.beta).ravel() for s in samples])
    in_mean = float(np.mean(logs_in))
    in_std = float(max(np.std(logs_in), STD_FLOOR))
    if all(s.labeled for s in samples):
        logs_out = np.concatenate([
            np.log2(np.maximum(s.eta_opt, ETA_LOG_FLOOR)).ravel()
            for s in samples])
        out_mean = float(np.mean(logs_out))
        out_std = float(max(np.std(logs_out), STD_FLOOR))
    else:
        out_mean, out_std = 0.0, 1.0
    return NormStats(in_mean=in_mean, in_std=in_std,
                     out_mean=out_mean, out_std=out_std)


def normalize_input(beta: np.ndarray, stats: NormStats) -> np.ndarray:
    """(log2(beta) - mean) / std, elementwise."""
    return (np.log2(beta) - stats.in_mean) / stats.in_std


def denormalize_output(x: np.ndarray, stats: NormStats) -> np.ndarray:
    """Invert the output standardisation and the log2 transform."""
    return np.exp2(x * stats.out_std + stats.out_mean)
