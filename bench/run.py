"""Time to verdict of moca-verify on one workload.

    python3 bench/run.py --workload corpus --seed 1 --seconds 20 --trace 0

Verifies the workload's litmus programs through the public API
(``parse_program`` -> ``explore`` -> ``ExplorationReport.to_json`` and
``json.dumps``, the work of ``moca-verify verify --json``) in repeated
passes: as many as are expected to end within ``--seconds``, at least one.
One process and one thread drive the checker, one program after another: a
closed loop with one client.

Every report is checked against an answer that does not come from the
checker (see ``workloads``) and against the trace-id set pinned in
``trace_ids.json``, and every pass must give byte-identical reports.

The last line of standard output is one JSON object.  With ``--trace 0`` its
metrics are the end-to-end ones:

* ``setup_s``: import of ``moca_verify`` in a fresh interpreter plus making
  the workload's sources; the median of several set-ups.
* ``verdict_s``: median wall time of one pass over the workload.
* ``verdict_ms.p50`` / ``verdict_ms.p90``: per-program time to verdict over
  every program of every pass (the sample count is printed above).
* ``peak_rss_mb``: peak resident memory of this process.
* ``verdicts_correct``: share of program verdicts equal to the known answer.

With ``--trace 1`` untraced and traced passes alternate, and the metrics are
the per-layer ones of ``spans.Tracer.metrics`` (medians over traced passes),
plus ``run.wall_s`` and ``run.cpu_s`` of the untraced passes and
``trace.overhead`` = traced / untraced median pass time - 1.

Exits 2 without a result when the checker's sources are not there.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time

import workloads
from spans import Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
PINS = HERE / "trace_ids.json"
SETUP_REPS = 9

_IMPORT_TIMER = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import moca_verify
print(time.perf_counter() - t0)
"""


@dataclass
class Pass:
    wall_s: float
    cpu_s: float
    program_s: list[float] = field(default_factory=list)
    reports: dict[str, str] = field(default_factory=dict)   # key -> JSON report
    sequences: int = 0
    traces: int = 0


def measure_setup(workload: str, seed: int) -> float:
    times = []
    for _ in range(SETUP_REPS):
        out = subprocess.run([sys.executable, "-c", _IMPORT_TIMER, str(SRC)],
                             capture_output=True, text=True, check=True, timeout=60)
        t0 = perf_counter()
        workloads.sources(workload, seed)
        times.append(float(out.stdout) + perf_counter() - t0)
    return statistics.median(times)


def run_pass(checker, cases, tracer: Tracer | None = None) -> Pass:
    """One pass over ``cases`` through the ``moca_verify`` module ``checker``."""
    span = tracer.span if tracer is not None else lambda name: nullcontext()
    gc.collect()
    p = Pass(0.0, 0.0)
    w0, c0 = perf_counter(), process_time()
    for key, source in cases:
        t0 = perf_counter()
        with span("ir.parse"):
            program = checker.parse_program(source)
        with span("explore"):
            report = checker.explore(program)
        with span("cli.report"):
            p.reports[key] = json.dumps(report.to_json(), sort_keys=True)
        p.program_s.append(perf_counter() - t0)
        p.sequences += report.sequences_explored
        p.traces += report.distinct_traces
    p.wall_s, p.cpu_s = perf_counter() - w0, process_time() - c0
    return p


def wrong_verdicts(p: Pass, expected: dict, pins: dict) -> list[str]:
    """Keys whose report differs from the known answer or the pinned ids."""
    wrong = []
    for key, text in p.reports.items():
        doc, exp = json.loads(text), expected[key]
        ok = (doc["distinct_traces"] == exp.traces
              and bool(doc["violations"]) == exp.violated
              and (doc["racy_sequence_count"] > 0) == exp.racy
              and doc["non_mca_sequences"] == 0
              and doc["c11_oracle_failures"] == 0
              and not doc["budget_exhausted"]
              and sorted(t["trace_id"] for t in doc["traces"]) == pins.get(key))
        if not ok:
            wrong.append(key)
    return wrong


def percentile(samples: list[float], q: float) -> float:
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "moca_verify" / "__init__.py").is_file():
        print(f"error: checker sources not found under {SRC}", file=sys.stderr)
        return 2
    try:
        setup_s = measure_setup(args.workload, args.seed)
    except (OSError, subprocess.SubprocessError) as e:
        print(f"error: cannot set up the checker: {e}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import moca_verify
    import moca_verify.explorer

    cases = workloads.sources(args.workload, args.seed)
    expected = {key: workloads.expected(key, source) for key, source in cases}
    pins = json.loads(PINS.read_text())
    tracer = Tracer(moca_verify.explorer) if args.trace else None

    plain: list[Pass] = []
    traced: list[Pass] = []
    layers: list[dict] = []
    reference: dict[str, str] = {}
    attempted = failed = 0
    inconsistent: set[str] = set()

    def check(p: Pass) -> None:
        """Count wrong verdicts and reports that differ from the first pass's,
        then drop the reports so memory does not grow with the pass count."""
        nonlocal attempted, failed
        wrong = wrong_verdicts(p, expected, pins)
        for key in wrong:
            print(f"wrong verdict: {key}")
        attempted += len(p.reports)
        failed += len(wrong)
        for key, text in p.reports.items():
            if reference.setdefault(key, text) != text:
                inconsistent.add(key)
        p.reports = {}

    # run whole rounds (a pass, or in traced mode an untraced and a traced
    # pass) while the next one is expected to end within --seconds
    start = perf_counter()
    while True:
        t0 = perf_counter()
        plain.append(run_pass(moca_verify, cases))
        check(plain[-1])
        if tracer is not None:
            tracer.reset()
            with tracer.installed():
                traced.append(run_pass(moca_verify, cases, tracer))
            check(traced[-1])
            layers.append(tracer.metrics(traced[-1].sequences, traced[-1].traces))
        now = perf_counter()
        if now + (now - t0) - start > args.seconds:
            break
    for key in sorted(inconsistent):
        print(f"report differs between passes: {key}")

    samples = [s for p in plain for s in p.program_s]
    wall = statistics.median(p.wall_s for p in plain)
    print(f"workload {args.workload} seed {args.seed}: {len(plain)} passes, "
          f"{len(traced)} traced, {len(samples)} per-program samples")
    print("pass wall s: " + " ".join(f"{p.wall_s:.3f}" for p in plain)
          + (" | traced: " + " ".join(f"{p.wall_s:.3f}" for p in traced) if traced else ""))
    if tracer is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            "verdict_s": (wall, "s"),
            "verdict_ms.p50": (statistics.median(samples) * 1e3, "ms"),
            "verdict_ms.p90": (percentile(samples, 0.9) * 1e3, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "verdicts_correct": ((attempted - failed) / attempted, "share"),
        }
    else:
        if tracer.absent:
            print("absent spans: " + " ".join(tracer.absent))
        metrics = {name: (statistics.median(m[name][0] for m in layers), unit)
                   for name, (_, unit) in layers[0].items()}
        metrics["run.wall_s"] = (wall, "s")
        metrics["run.cpu_s"] = (statistics.median(p.cpu_s for p in plain), "s")
        metrics["trace.overhead"] = (
            statistics.median(p.wall_s for p in traced) / wall - 1, "ratio")

    print(json.dumps({
        "correct": failed == 0 and not inconsistent,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
