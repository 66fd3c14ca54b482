"""The benchmark's view of the package, checked without running it.

`perfbench/` calls the package directly: `build_graph`,
`engine.forward(graph, x, model)`, `Sample.validate(rho_d, rho_u, tau)`, and
the module attributes its tracer wraps (`training.forward`,
`eval.flop_comparison`, ...).  Its own tests run whole benchmark processes,
so this check sets up each workload in process and resolves every traced
attribute: a renamed or re-signatured call fails here, in seconds.
"""

import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_workload_sets_up_and_finds_what_it_traces(tmp_path,
                                                         monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    assert set(workloads.WORKLOADS) == {"label-32x9", "infer-32x9",
                                        "train-8x3"}
    for name, cls in workloads.WORKLOADS.items():
        workload = cls(seed=1, workdir=tmp_path / name)
        workload.setup()
        for module, attr, span, *_ in workload.trace_specs():
            assert callable(getattr(module, attr, None)), \
                (name, f"{module.__name__}.{attr}", span)
