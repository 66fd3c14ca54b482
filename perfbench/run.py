"""Benchmark for cfgnn: exact solver, online inference and CLI training.

    python3 perfbench/run.py --workload label-32x9 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  One process, one client, closed loop: the
next request starts when the previous one has returned.  With --trace 0 the
workload is set up once, then timed for --seconds (stopping only between
whole rounds), and the last stdout line is a JSON object with the
end-to-end metrics.  After the timed phase, SETUP_REPS - 1 more processes
(`--setup-only`) each import and set up the workload once, and setup_s is
the median over all SETUP_REPS processes of the time from the start of
run.py to the end of set-up.  With --trace 1 the run instead tours all three
workloads, alternating untraced and traced rounds, and reports the
per-layer metrics; spans and self times go to perfbench/out/.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

# One BLAS thread, fixed before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
SETUP_REPS = 3
# Rounds per workload in a traced run, each taken once untraced and once
# traced: label-32x9 rounds are one ~3 s solve, infer-32x9 rounds are 64
# requests, train-8x3 needs two cycles to compare their artifacts.
TOUR_ROUNDS = {"label-32x9": 1, "infer-32x9": 1, "train-8x3": 2}
MAX_REPORTED_ERRORS = 5


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


class Phase:
    """Requests of one workload: latencies and failures."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.latencies: list[float] = []
        self.samples = 0
        self.attempted = 0
        self.failed = 0

    def request(self) -> tuple[float, object] | None:
        """One request and its check; None if it failed."""
        i = self.attempted
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = self.workload.request(i)
            elapsed = time.perf_counter() - t0
            self.workload.check(result)
        except Exception:  # a failed request is counted, and the run goes on
            self.failed += 1
            if self.failed <= MAX_REPORTED_ERRORS:
                print(f"request {i} of {self.workload.name} failed:",
                      file=sys.stderr)
                traceback.print_exc(file=sys.stderr)
            return None
        self.latencies.append(elapsed)
        self.samples += self.workload.samples_per_request
        return elapsed, result

    def run_for(self, seconds: float) -> None:
        """Whole rounds until `seconds` have passed."""
        deadline = time.perf_counter() + seconds
        while self.attempted == 0 or time.perf_counter() < deadline:
            for _ in range(self.workload.round_size):
                self.request()


def _finish(workload) -> bool:
    try:
        workload.finish()
    except Exception:  # reported; the run's outputs are then not correct
        print(f"final checks of {workload.name} failed:", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return False
    return True


def setup_in_new_process(workload: str, seed: int) -> float:
    """Seconds from the start of run.py to the end of set-up, in a fresh
    process, so that one-time costs of imports and set-up count each time."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload",
         workload, "--seed", str(seed), "--seconds", "0", "--setup-only"],
        capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up of {workload} in a new process failed:\n"
                           f"{proc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1])


def run_untraced(cls, seed: int, seconds: float, workdir: Path) -> dict:
    workload = cls(seed, workdir)
    workload.setup()
    setups = [time.perf_counter() - _T0]
    phase = Phase(workload)
    phase.run_for(seconds)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    correct = _finish(workload)
    setups += [setup_in_new_process(cls.name, seed)
               for _ in range(SETUP_REPS - 1)]
    busy = sum(phase.latencies)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        "samples_per_s": (phase.samples / busy if busy else 0.0, "1/s"),
        "request_ms_p50": (statistics.median(phase.latencies) * 1e3
                           if phase.latencies else 0.0, "ms"),
    }
    return _result(correct, phase, metrics)


def _result(correct: bool, phase: Phase, metrics: dict) -> dict:
    return {"correct": bool(correct and phase.latencies),
            "attempted": phase.attempted, "failed": phase.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def run_traced(seed: int, workloads_by_name: dict, out_dir: Path,
               workdir: Path, label: str) -> dict:
    """Untraced and traced rounds of every workload, in one process."""
    from spans import Tracer, patched
    import layers
    tracer = Tracer()
    total = Phase(None)
    process: dict[str, dict] = {}
    correct = True
    for name, cls in workloads_by_name.items():
        workload = cls(seed, workdir / name)
        phase = Phase(workload)
        with patched(tracer, workload.trace_specs()):
            with tracer.span(f"setup.{name}"):
                workload.setup()
        plain, traced, cpu, faults = [], [], [], []
        for _ in range(TOUR_ROUNDS[name]):
            for _ in range(workload.round_size):
                cpu0, flt0 = _cpu_s(), resource.getrusage(
                    resource.RUSAGE_SELF).ru_minflt
                done = phase.request()
                if done is not None:
                    plain.append(done[0])
                    cpu.append(_cpu_s() - cpu0)
                    faults.append(resource.getrusage(
                        resource.RUSAGE_SELF).ru_minflt - flt0)
            for _ in range(workload.round_size):
                tracer.request = phase.attempted
                with patched(tracer, workload.trace_specs()):
                    with tracer.span(f"request.{name}"):
                        done = phase.request()
                tracer.request = None
                if done is not None:
                    traced.append(done[0])
        correct = _finish(workload) and correct and bool(plain and traced)
        total.attempted += phase.attempted
        total.failed += phase.failed
        total.latencies += phase.latencies
        process[name] = {"wall_s": plain, "cpu_s": cpu, "minflt": faults,
                         "traced_s": traced}
    metrics, summary, missing = layers.per_layer(tracer, process)
    if missing:
        print(f"no traced calls of {', '.join(missing)}: the program no "
              "longer calls these functions by the patched names",
              file=sys.stderr)
        correct = False
    out_dir.mkdir(parents=True, exist_ok=True)
    tracer.dump(str(out_dir / f"trace-{label}-seed{seed}.json"),
                {"summary": summary})
    for key, value in summary.items():
        print(f"{key}: {value:.6g}", file=sys.stderr)
    return _result(correct, total, metrics)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set the workload up once, print the seconds "
                        "since the start of run.py and exit")
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "cfgnn").is_dir():
        print(f"error: {root} holds no cfgnn sources (src/cfgnn); run from "
              "the root of a checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(root / "src"), str(HERE)]
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of "
                     f"{sorted(workloads.WORKLOADS)}")
    out_dir = HERE / "out"
    workdir = out_dir / f"work-{os.getpid()}"
    try:
        if args.setup_only:
            workloads.WORKLOADS[args.workload](args.seed, workdir).setup()
            print(time.perf_counter() - _T0)
            return 0
        if args.trace:
            result = run_traced(args.seed, workloads.WORKLOADS, out_dir,
                                workdir, args.workload)
        else:
            result = run_untraced(workloads.WORKLOADS[args.workload],
                                  args.seed, args.seconds, workdir)
    except workloads.checks.CheckError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
