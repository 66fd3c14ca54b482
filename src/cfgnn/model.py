"""Graph-transformer model container: parameter layout, init, checkpoints.

The network applies T - 1 = 9 transformer transitions followed by one final
linear map, with feature widths (1, 8, 8, 16, 16, 32, 16, 16, 8, 8, 1).
Every transition owns, per edge type ("ap", "ue"), four linear maps with
C = 2 heads stacked in the leading axis:

    w1/b1  self map       w2/b2  value map
    w3/b3  query map      w4/b4  key map

each of shape (C, d, n_in) / (C, d) with d = n_out / C, plus a layer-norm
gain and bias of width n_out.  No parameter is shared across layers, types
or heads.  Parameters live in an ordered name -> ndarray dict; the canonical
order (transitions ascending, "ap" before "ue", w1..b4, then layer norm,
then the output map) also fixes the initialisation draw order.

Checkpoints are a single JSON document with the plan, the normalisation
statistics, every tensor as a named flat array with its shape, and an
optional training fingerprint.  Floats use Python's shortest round-trip
repr, which guarantees bit-exact save/load cycles.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .data import NormStats, require_int

DEFAULT_SIZES = (1, 8, 8, 16, 16, 32, 16, 16, 8, 8, 1)
EDGE_TYPES = ("ap", "ue")
MAP_NAMES = ("w1", "b1", "w2", "b2", "w3", "b3", "w4", "b4")


@dataclass(frozen=True)
class LayerPlan:
    """Feature widths per layer and the head count."""

    sizes: tuple[int, ...] = DEFAULT_SIZES
    heads: int = 2

    def __post_init__(self) -> None:
        if len(self.sizes) < 3:
            raise ValueError("plan needs at least input, one hidden, output")
        if self.sizes[0] != 1 or self.sizes[-1] != 1:
            raise ValueError(f"plan sizes {self.sizes} must start and end with "
                             "1 (one scalar per node in and out)")
        if self.heads < 1:
            raise ValueError("heads must be >= 1")
        for width in self.sizes[1:-1]:
            if width % self.heads != 0:
                raise ValueError(f"hidden width {width} not divisible by "
                                 f"{self.heads} heads")

    @property
    def transformer_transitions(self) -> int:
        return len(self.sizes) - 2

    def head_dim(self, t: int) -> int:
        return self.sizes[t + 1] // self.heads


@dataclass
class GnnModel:
    plan: LayerPlan
    params: dict[str, np.ndarray]
    norm: NormStats


def param_shapes(plan: LayerPlan) -> dict[str, tuple[int, ...]]:
    """Canonical parameter order and shapes for a plan."""
    shapes: dict[str, tuple[int, ...]] = {}
    c = plan.heads
    for t in range(plan.transformer_transitions):
        n_in, n_out = plan.sizes[t], plan.sizes[t + 1]
        d = plan.head_dim(t)
        for edge_type in EDGE_TYPES:
            prefix = f"layer{t:02d}.{edge_type}"
            for name in MAP_NAMES:
                if name.startswith("w"):
                    shapes[f"{prefix}.{name}"] = (c, d, n_in)
                else:
                    shapes[f"{prefix}.{name}"] = (c, d)
        shapes[f"layer{t:02d}.ln_gain"] = (n_out,)
        shapes[f"layer{t:02d}.ln_bias"] = (n_out,)
    shapes["out.w"] = (plan.sizes[-1], plan.sizes[-2])
    shapes["out.b"] = (plan.sizes[-1],)
    return shapes


def init_model(plan: LayerPlan | None = None, seed: int = 0,
               norm: NormStats | None = None) -> GnnModel:
    """Fan-balanced uniform init: weights U(+-sqrt(6/(fan_in+fan_out))),
    biases zero, layer-norm gain one and bias zero."""
    plan = plan if plan is not None else LayerPlan()
    rng = np.random.default_rng(seed)
    params: dict[str, np.ndarray] = {}
    for name, shape in param_shapes(plan).items():
        leaf = name.rsplit(".", 1)[-1]
        if leaf == "ln_gain":
            params[name] = np.ones(shape)
        elif leaf == "ln_bias" or leaf.startswith("b"):
            params[name] = np.zeros(shape)
        else:
            fan_in = shape[-1]
            fan_out = shape[-2] if len(shape) > 1 else 1
            bound = math.sqrt(6.0 / (fan_in + fan_out))
            params[name] = rng.uniform(-bound, bound, size=shape)
    if norm is None:
        norm = NormStats(0.0, 1.0, 0.0, 1.0)
    return GnnModel(plan=plan, params=params, norm=norm)


def _arrays_from_json(section: str, doc: dict) -> dict[str, np.ndarray]:
    out = {}
    for name, entry in doc.items():
        arr = np.array(entry["data"], dtype=float).reshape(entry["shape"])
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"{section} tensor {name} holds non-finite values")
        out[name] = arr
    return out


def _write_arrays(fh, encode, arrays: dict[str, np.ndarray]) -> None:
    """Write {name: {"shape": [...], "data": [...]}} one array at a time."""
    fh.write("{")
    for i, (name, arr) in enumerate(arrays.items()):
        fh.write(f'{"," if i else ""}{encode(name)}:'
                 f'{{"shape":{encode(list(arr.shape))},"data":')
        fh.write(encode(arr.ravel().tolist()))
        fh.write("}")
    fh.write("}")


def save_checkpoint(model: GnnModel, path: str, fingerprint: dict | None = None,
                    extra_arrays: dict[str, np.ndarray] | None = None,
                    extra: dict | None = None) -> None:
    """Write the model (and optional optimizer tensors) as one JSON document.

    The document is streamed section by section and array by array through
    the C encoder, so no more than one array's text is held at a time.  The
    bytes equal `json.dump(doc, fh, separators=(",", ":"))` of the whole
    document: both encoders write floats with `float.__repr__`.
    """
    encode = json.JSONEncoder(separators=(",", ":")).encode
    sections: list[tuple[str, object]] = [
        ("format_version", 1),
        ("plan", {"sizes": list(model.plan.sizes), "heads": model.plan.heads}),
        ("norm", {"in_mean": model.norm.in_mean, "in_std": model.norm.in_std,
                  "out_mean": model.norm.out_mean,
                  "out_std": model.norm.out_std}),
        ("fingerprint", fingerprint if fingerprint is not None else {}),
        ("params", model.params),
    ]
    if extra_arrays:
        sections.append(("extra_arrays", extra_arrays))
    if extra:
        sections.append(("extra", extra))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("{")
        for i, (key, value) in enumerate(sections):
            fh.write(f'{"," if i else ""}{encode(key)}:')
            if key in ("params", "extra_arrays"):
                _write_arrays(fh, encode, value)
            else:
                fh.write(encode(value))
        fh.write("}")


def load_checkpoint(path: str) -> tuple[GnnModel, dict]:
    """Read a checkpoint; returns the model and a dict with the remaining
    sections (fingerprint, extra, extra_arrays).

    A file that is not a whole, finite checkpoint raises ValueError naming
    the path: text that does not decode, a missing section or field, a plan
    that LayerPlan refuses, a fingerprint or extra that is not an object, a
    parameter name or shape mismatch, a plan size or head count that is not
    an integer, or a NaN or infinite entry in params or extra_arrays.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:   # JSONDecodeError, UnicodeDecodeError
            raise ValueError(f"{path}: not a JSON checkpoint: {exc}") from None
    try:
        return _checkpoint_from_doc(doc)
    except KeyError as exc:
        raise ValueError(f"{path}: checkpoint lacks {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from None


def _checkpoint_from_doc(doc: dict) -> tuple[GnnModel, dict]:
    plan = LayerPlan(sizes=tuple(require_int(size, "plan size")
                                 for size in doc["plan"]["sizes"]),
                     heads=require_int(doc["plan"]["heads"], "plan heads"))
    norm = NormStats(**doc["norm"])
    params = _arrays_from_json("params", doc["params"])
    expected = param_shapes(plan)
    if set(params) != set(expected):
        missing = set(expected) ^ set(params)
        raise ValueError(f"checkpoint parameter names mismatch: {sorted(missing)}")
    for name, shape in expected.items():
        if tuple(params[name].shape) != shape:
            raise ValueError(f"checkpoint shape mismatch for {name}: "
                             f"{params[name].shape} vs {shape}")
    ordered = {name: params[name] for name in expected}
    rest = {"fingerprint": doc.get("fingerprint", {}),
            "extra": doc.get("extra", {})}
    for key, value in rest.items():
        if not isinstance(value, dict):
            raise ValueError(f"checkpoint {key} is not a JSON object")
    if "extra_arrays" in doc:
        rest["extra_arrays"] = _arrays_from_json("extra_arrays",
                                                 doc["extra_arrays"])
    return GnnModel(plan=plan, params=ordered, norm=norm), rest
