"""The mflef benchmark: one seeded workload per run, every output checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py): isolated-sweep, koszul-hom, corpus-cli.  All
run single-threaded in this process.

--trace 0 measures the end-to-end metrics with tracing off:
  set-up (a fresh `import mflef` plus generating and validating the first
  pass's inputs) is repeated SETUPS times and its median reported as setup_s;
  one warm-up pass of the tiny size follows; then whole passes, each with
  fresh seeded inputs and a full garbage collection before it, run until
  `--seconds` have been measured, MIN_PASSES passes made and MIN_SAMPLES
  cases timed.  cases_per_s is the median over the passes of each pass's
  cases over its seconds, so that a burst of load from elsewhere on the
  machine during one pass does not move it; case_p50_ms and case_p90_ms come
  from the wall times of all timed cases.

--trace 1 runs pass 0 three times after the warm-up: untraced, with spans on
  every layer's public functions, and with the scalar counters alone.  It
  reports the per-layer metrics, the tracing overhead as the change in
  cases_per_s, and writes the spans to out/spans-<workload>-<seed>.jsonl.
  Work counts (calls, distinct inputs, sizes) repeat exactly for a seed.

Every case is checked against its known verdict and its recorded printed
values; the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The exit status is 1 if any case
failed.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SETUPS = 5
MIN_PASSES = 3
MIN_SAMPLES = {"full": 101, "tiny": 1}  # ten samples beyond p90
OUT_DIR = HERE / "out"

END_TO_END_UNITS = {
    "cases_per_s": "1/s",
    "case_p50_ms": "ms",
    "case_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def fresh_import():
    """Import mflef as a new process would, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "mflef" or n.startswith("mflef.")]:
        del sys.modules[name]
    package = importlib.import_module("mflef")
    if not Path(package.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"mflef was imported from {package.__file__}, not from {SRC}")
    importlib.import_module("mflef.cli")


def setup(workload, seed, size):
    start = time.perf_counter()
    fresh_import()
    inputs = workload.make_pass(seed, 0, size)
    return time.perf_counter() - start, inputs


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def add(self, result):
        self.attempted += result.attempted
        self.failed += result.failed
        self.messages += [f"{c.key}: {c.error}" for c in result.cases if c.error]
        self.messages += result.errors


def timed_pass(workload, inputs, reference, tally, tracer=None):
    """(pass seconds, per-case ns) of one checked pass."""
    gc.collect()  # every pass starts from the same collector state
    start = time.perf_counter_ns()
    result = workload.run_pass(inputs, reference, tracer)
    elapsed = time.perf_counter_ns() - start
    tally.add(result)
    return elapsed / 1e9, [c.ns for c in result.cases]


def measure(workload, seed, seconds, size, reference, tally):
    setups = []
    for _ in range(SETUPS):
        took, inputs = setup(workload, seed, size)
        setups.append(took)
    timed_pass(workload, workload.make_pass(seed, 0, "tiny"), reference, tally)
    total, samples, rates = 0.0, [], []
    while True:
        took, ns = timed_pass(workload, inputs, reference, tally)
        total += took
        samples += ns
        rates.append(len(ns) / took)
        if (total >= seconds and len(rates) >= MIN_PASSES
                and len(samples) >= MIN_SAMPLES[size]):
            break
        inputs = workload.make_pass(seed, len(rates), size)
    ms = sorted(n / 1e6 for n in samples)
    return {
        "cases_per_s": statistics.median(rates),
        "case_p50_ms": statistics.median(ms),
        "case_p90_ms": statistics.quantiles(ms, n=10)[8] if len(ms) > 1 else ms[0],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }, {"cases": len(samples), "passes": len(rates), "seconds": total}


def trace(workload, seed, size, reference, tally):
    _, inputs = setup(workload, seed, size)
    timed_pass(workload, workload.make_pass(seed, 0, "tiny"), reference, tally)
    untraced, ns = timed_pass(workload, inputs, reference, tally)
    cases = len(ns)

    # fresh inputs for each pass, made before patching so that only the
    # pass itself is traced or counted
    inputs = workload.make_pass(seed, 0, size)
    spans = tracing.SpanTracer().install()
    try:
        traced, _ = timed_pass(workload, inputs, reference, tally, spans)
    finally:
        spans.uninstall()
    inputs = workload.make_pass(seed, 0, size)
    counter = tracing.ScalarCounter().install()
    try:
        timed_pass(workload, inputs, reference, tally)
    finally:
        counter.uninstall()
    spans.write_spans(OUT_DIR / f"spans-{workload.name}-{seed}.jsonl")

    values = {**counter.metrics(), **spans.metrics()}
    values["trace.untraced_cases_per_s"] = (cases / untraced, "1/s")
    values["trace.cases_per_s"] = (cases / traced, "1/s")
    values["trace.overhead_share"] = (1 - untraced / traced, "share")
    units = tracing.per_layer_names()
    return {name: values[name][0] for name in units}, units


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs a few cases per pass, for the self-test")
    opts = parser.parse_args(argv)

    workload = workloads.WORKLOADS[opts.workload]
    reference = workloads.load_reference(workload.name)
    tally = Tally()
    if opts.trace:
        values, units = trace(workload, opts.seed, opts.size, reference, tally)
        note = f"traced pass 0 of {workload.name}, seed {opts.seed}"
    else:
        values, info = measure(workload, opts.seed, opts.seconds, opts.size, reference, tally)
        units = END_TO_END_UNITS
        note = (f"{workload.name}, seed {opts.seed}: {info['cases']} cases timed "
                f"in {info['passes']} passes, {info['seconds']:.1f} s")
    failed_share = tally.failed / tally.attempted
    for message in tally.messages[:20]:
        print(f"FAILED {message}")
    print(note)
    for name, unit in units.items():
        print(f"{name}: {values[name]:.6g} {unit}")
    print(f"failed_share: {failed_share:.6g} share ({tally.failed} of {tally.attempted})")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
