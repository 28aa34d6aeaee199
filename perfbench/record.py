"""Record the reference output that every benchmark case is checked against.

    python3 perfbench/record.py [workload ...]

Runs every case that any seed can draw, through the same calls the benchmark
times, and writes reference/<workload>.json.  The references were recorded
once, from the program at the commit that added the benchmark; re-record only
to extend a workload, never to accept a changed value.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def record_api(workload, cases):
    reference = {}
    seconds = defaultdict(float)
    for case in cases:
        start = time.perf_counter()
        rep = case.call()
        seconds[case.key.split()[0]] += time.perf_counter() - start
        if not rep.equal:
            raise SystemExit(f"{workload.name}: {case.key} does not verify: {rep}")
        reference[case.key] = [str(rep.lhs), str(rep.rhs)]
    return reference, seconds


def record_corpus(workload):
    templates = workload.all_templates()
    names = [f"t{k:04d}" for k in range(len(templates))]
    text = workload.document(templates, names)
    workloads.WORK_DIR.mkdir(exist_ok=True)
    path = workloads.WORK_DIR / "record.mflef"
    path.write_text(text, encoding="utf-8")
    status, stdout, case_ns = workload.run_document(path)
    if status != 0:
        raise SystemExit(f"corpus exited {status}:\n{stdout}")
    lines = defaultdict(list)
    for line in stdout.splitlines()[:-1]:
        name, _, rest = line.partition(": ")
        lines[name].append(rest)
    reference, seconds = {}, defaultdict(float)
    for name, (template, _), ns in zip(names, templates, case_ns):
        reference[template] = lines[name]
        seconds[template.split()[0]] += ns / 1e9
    return reference, seconds


def main(argv):
    chosen = argv or list(workloads.WORKLOADS)
    for name in chosen:
        workload = workloads.WORKLOADS[name]
        if name == "isolated-sweep":
            reference, seconds = record_api(workload, workload.make_pass(0, 0, "full"))
        elif name == "koszul-hom":
            reference, seconds = record_api(workload, workload.build(workload.everything()))
        else:
            reference, seconds = record_corpus(workload)
        workloads.REFERENCE_DIR.mkdir(exist_ok=True)
        with open(workloads.REFERENCE_DIR / f"{name}.json", "w", encoding="utf-8") as handle:
            json.dump(reference, handle, indent=0, sort_keys=True)
            handle.write("\n")
        summary = ", ".join(f"{k} {v:.1f}s" for k, v in sorted(seconds.items()))
        print(f"{name}: {len(reference)} references ({summary})")


if __name__ == "__main__":
    main(sys.argv[1:])
