"""Reference timings of the network at shapes no workload runs.

    python3 perfbench/shapes.py

Prints, for single-sample 128x32 and batch-64 32x9 (and the two workload
shapes for comparison), the median wall time of normalize + forward +
projection per call and per sample, and the instrumented FLOPs per call.
"""

from __future__ import annotations

import os
import statistics
import sys
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
SHAPES = [(1, 32, 9), (64, 8, 3), (1, 128, 32), (64, 32, 9)]  # (batch, M, K)
REPEATS = 20


def main() -> int:
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
    import numpy as np
    from cfgnn import data, engine, model
    from spans import LayerCounter
    from cfgnn.graph import build_graph
    print("shape        ms/call    ms/sample  flops/call")
    for batch, m, k in SHAPES:
        pool = data.generate_unlabeled([(m, k, "urban", batch)], run_seed=1)
        net = model.init_model(seed=1, norm=data.compute_norm_stats(pool))
        beta = pool[0].beta if batch == 1 else np.stack([s.beta
                                                         for s in pool])
        graph = build_graph(m, k)

        def call(counter=None):
            x = data.normalize_input(beta, net.norm)
            raw = engine.forward(graph, x, net, counter=counter)
            return engine.project_powers(raw, net.norm, counter=counter)

        counter = LayerCounter()
        call(counter)
        times = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            call()
            times.append(time.perf_counter() - t0)
        ms = statistics.median(times) * 1e3
        print(f"{batch:>2} x {m}x{k:<4} {ms:10.3f} {ms / batch:10.3f}  "
              f"{counter.total:>12,}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
