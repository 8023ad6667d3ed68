"""Benchmark of microloc: one workload per run, closed loop, one caller.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; microloc is imported from its
`src/` directory and from nowhere else.  The last line of standard output
is one JSON object with `correct`, `attempted`, `failed` and `metrics`.

With `--trace 0` the run reports the end-to-end metrics:
  setup_s        median time, over several fresh interpreters, from start to
                 the workload's inputs being built (imports included)
  op_p50_ms      median latency of one operation
  results_per_s  verdicts (round trips for gabor_roundtrip) per second of ops
  peak_mem_mb    peak tracemalloc allocation over one round, taken untimed
With `--trace 1` it alternates untraced and traced rounds and reports the
per-layer metrics of `tracer.py` per traced round; it writes them with the
spans of the first traced round and the tracing overhead under
perfbench/results/.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

# Fixed before numpy loads: one BLAS thread keeps timings steady on a shared
# two-core machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = Path.cwd() / "src"
RESULTS_DIR = BENCH_DIR / "results"
SETUP_PROBES = 9
PROBE_TIMEOUT_S = 60


def _import_microloc():
    if not (SRC_DIR / "microloc" / "__init__.py").is_file():
        sys.exit(f"error: no microloc sources under {SRC_DIR}; run from a checkout root")
    sys.path.insert(0, str(SRC_DIR))
    import microloc

    if Path(microloc.__file__).resolve().parent != (SRC_DIR / "microloc").resolve():
        sys.exit(f"error: imported microloc from {microloc.__file__}, not from {SRC_DIR}")
    return microloc


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    import workloads

    if args.workload not in workloads.BUILDERS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.BUILDERS)}")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def setup_probe(workload: str, seed: int) -> float:
    """Wall time from launching a fresh interpreter until it has built the inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=PROBE_TIMEOUT_S)
    if code != 0 or line.strip() != "ready":
        sys.exit(f"error: setup probe exited with {code}, said {line.strip()!r}")
    return elapsed


class Round:
    """Runs the ops of one round, timing each call and judging it untimed.

    While tracemalloc traces, `peak` is the highest allocation above the
    round's starting point seen during the op calls, not during judging.
    """

    def __init__(self, wl, quiet=contextlib.nullcontext):
        self.wl = wl
        self.quiet = quiet  # context the untimed judging runs in
        self.times: list[float] = []
        self.results = 0
        self.failed = 0
        self.failures: dict = {}
        self.fingerprints: list = []
        self.peak = 0

    def run(self) -> "Round":
        clock = time.perf_counter
        tracing = tracemalloc.is_tracing()
        base = tracemalloc.get_traced_memory()[0] if tracing else 0
        for op in self.wl.ops:
            if tracing:
                tracemalloc.reset_peak()
            t0 = clock()
            out = op.run()
            self.times.append(clock() - t0)
            if tracing:
                self.peak = max(self.peak, tracemalloc.get_traced_memory()[1] - base)
            with self.quiet():
                reason, n, fingerprint = op.judge(out)
            self.results += n
            self.fingerprints.append(fingerprint)
            if reason:
                self.failed += 1
                key = f"{op.fault or 'unexpected'}: {reason}: {op.label}"
                self.failures[key] = self.failures.get(key, 0) + 1
        return self


def _tally(rounds, reference):
    problems = []
    for r in rounds:
        if r.fingerprints != reference.fingerprints:
            problems.append("outputs differ between rounds of the same operations")
            break
    failures: dict = {}
    for r in rounds:
        for key, n in r.failures.items():
            failures[key] = failures.get(key, 0) + n
    return problems, failures


def run_timed(wl, seed: int, seconds: float):
    setup = [setup_probe(wl.name, seed) for _ in range(2)]
    tracemalloc.start()
    reference = Round(wl).run()  # also warms up and fixes the expected outputs
    tracemalloc.stop()

    # The remaining set-up probes are spread between the timed rounds, so the
    # median samples the whole run rather than one moment of a shared machine.
    start = time.perf_counter()
    rounds = []
    while not rounds or time.perf_counter() < start + seconds:
        rounds.append(Round(wl).run())
        due = 2 + int((SETUP_PROBES - 2) * (time.perf_counter() - start) / seconds)
        while len(setup) < min(due, SETUP_PROBES):
            setup.append(setup_probe(wl.name, seed))
    while len(setup) < SETUP_PROBES:
        setup.append(setup_probe(wl.name, seed))
    problems, failures = _tally(rounds, reference)
    times = [t for r in rounds for t in r.times]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "op_p50_ms": (1e3 * statistics.median(times), "ms"),
        "results_per_s": (sum(r.results for r in rounds) / sum(times), "1/s"),
        "peak_mem_mb": (reference.peak / 1e6, "MB"),
    }
    detail = {
        "rounds": len(rounds),
        "ops_per_round": len(wl.ops),
        "setup_samples_s": setup,
        "op_ms": {
            "p50": 1e3 * statistics.median(times),
            "p90": 1e3 * statistics.quantiles(times, n=10, method="inclusive")[-1]
            if len(times) > 1 else None,
            "max": 1e3 * max(times),
            "n": len(times),
        },
    }
    return rounds, problems, failures, metrics, detail


def run_traced(wl, seconds: float):
    from tracer import Tracer

    # Untraced and traced rounds alternate, so a slow spell of the machine
    # weighs on both sides of the overhead alike.
    tracer = Tracer()
    untraced, traced = [], []
    first_round_spans = None
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        untraced.append(Round(wl).run())
        tracer.install()
        try:
            traced.append(Round(wl, tracer.paused).run())
        finally:
            tracer.uninstall()
        if first_round_spans is None:
            first_round_spans = list(tracer.spans)
    problems, failures = _tally(traced + untraced[1:], untraced[0])
    layers = tracer.layer_metrics(len(traced))
    per_round = [sum(r.times) for r in traced]
    base = [sum(r.times) for r in untraced]
    overhead = statistics.median(per_round) / statistics.median(base) - 1.0
    t0 = first_round_spans[0][1] if first_round_spans else 0.0
    detail = {
        "traced_rounds": len(traced),
        "untraced_rounds": len(untraced),
        "round_s_traced": statistics.median(per_round),
        "round_s_untraced": statistics.median(base),
        "rounds_s": {"untraced": base, "traced": per_round},
        "tracing_overhead": overhead,
        "absent_paths": tracer.absent,
        "layers": layers,
        "spans_first_round": [[n, a - t0, b - t0, p] for n, a, b, p in first_round_spans],
    }
    metrics = {name: (value, _unit(name)) for name, value in layers.items()}
    return untraced + traced, problems, failures, metrics, detail


def _unit(name: str) -> str:
    stat = name.rsplit(".", 1)[1]
    if stat.endswith("_s"):
        return "s"
    if stat == "alloc_mb":
        return "MB"
    if stat in ("support_ratio", "scans_per_row"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    args = _parse(argv)
    _import_microloc()
    import workloads

    wl = workloads.build(args.workload, args.seed)
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    problems = list(wl.static_problems())
    if args.trace:
        rounds, more, failures, metrics, detail = run_traced(wl, args.seconds)
    else:
        rounds, more, failures, metrics, detail = run_timed(wl, args.seed, args.seconds)
    problems += more
    attempted = sum(len(r.times) for r in rounds)
    failed = sum(r.failed for r in rounds)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    kind = "trace" if args.trace else "result"
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "composition": wl.composition, "problems": problems,
              "failures": failures, **detail, "result": result}
    (RESULTS_DIR / f"{kind}_{args.workload}_seed{args.seed}.json").write_text(
        json.dumps(report, indent=1) + "\n")
    for line in problems:
        print(f"problem: {line}")
    for key, n in sorted(failures.items()):
        print(f"failed x{n}: {key}")
    if args.trace:
        print(f"tracing overhead: {100 * detail['tracing_overhead']:.1f}% per round")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
