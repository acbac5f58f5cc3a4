"""Per-layer spans, recorded from outside the checker.

``Tracer.installed()`` replaces the module-level names that
``moca_verify.explorer`` calls, plus two ``ExecState`` methods, with timing
wrappers that return the wrapped function's value unchanged, and puts the
originals back on exit.  The benchmark opens the spans for the calls it makes
itself (``parse_program``, ``explore``, the JSON report) with ``span``.

Spans nest: a span's self time is its duration minus the time of the spans
opened inside it, so ``explore``'s self time is the search itself (race
detection, backtrack insertion, sleep sets).  A wrapped name that the checker
no longer has is reported as absent and its span reads zero.

Each layer metric and the end-to-end metric it should move.  BENCHMARK.json
registers corpus and counter-4; fib-4 and sb-ring-4 are run by hand.

====================================  ==========================================
``ir.parse_s``,                       ``verdict_ms.p50`` on corpus
``transform.early_write_s``,
``cli.report_s``
``engine.step_s|steps|step_us``,      ``verdict_s`` on counter-4, most on fib-4
``engine.sequence_s``                 (deepest sequences)
``coherence.check_step_s|_calls``,    ``verdict_s`` on sb-ring-4, the only
``coherence.pruned[.<rule>]``         workload that prunes much (corpus: 19)
``coherence.check_moca_s``,           ``verdict_s`` on counter-4 and fib-4
``coherence.c11_oracle_s``,
``relations.compute_s``,
``explorer.trace_id_s|races_s|
asserts_s|record_s``
``explorer.sequences|traces|          ``verdict_s`` on counter-4 and sb-ring-4;
duplicates|redundancy``,              unchanged on fib-4 (redundancy 1.0)
``explorer.self_s``
====================================  ==========================================
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

# span name -> attribute of moca_verify.explorer ("Class.method" for methods)
WRAPPED = {
    "transform.early_write": "early_write_transform",
    "engine.step": "ExecState.step",
    "engine.sequence": "ExecState.sequence",
    "coherence.check_step": "check_step",
    "coherence.check_moca": "check_moca",
    "coherence.c11_oracle": "check_c11_oracle",
    "relations.compute": "compute_relations",
    "explorer.trace_id": "canonical_trace_id",
    "explorer.races": "detect_na_races",
    "explorer.asserts": "check_asserts",
}

# spans that run once per maximal sequence
RECORD_SPANS = ("engine.sequence", "relations.compute", "coherence.check_moca",
                "coherence.c11_oracle", "explorer.trace_id", "explorer.races",
                "explorer.asserts")

PRUNE_RULES = ("shco", "shmo", "shmo1", "shmo2", "shmo3", "shrmo", "shto")


class Tracer:
    def __init__(self, explorer_module):
        self._module = explorer_module
        self.total: defaultdict[str, float] = defaultdict(float)
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.pruned: Counter[str] = Counter()
        self.absent: list[str] = []
        self._stack = [0.0]     # child time accumulated by each open span

    def reset(self) -> None:
        self.total.clear()
        self.self_time.clear()
        self.calls.clear()
        self.pruned.clear()

    def _close(self, name: str, elapsed: float) -> None:
        child = self._stack.pop()
        self._stack[-1] += elapsed
        self.total[name] += elapsed
        self.self_time[name] += elapsed - child
        self.calls[name] += 1

    @contextmanager
    def span(self, name: str):
        self._stack.append(0.0)
        t0 = perf_counter()
        try:
            yield
        finally:
            self._close(name, perf_counter() - t0)

    def _wrap(self, name: str, fn):
        stack, close = self._stack, self._close
        pruned = self.pruned if name == "coherence.check_step" else None

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                close(name, perf_counter() - t0)
            if pruned is not None and result is not None:
                pruned[result[0]] += 1
            return result

        return timed

    @contextmanager
    def installed(self):
        """Wrap every name in ``WRAPPED`` for the duration of the block."""
        restore = []
        self.absent = []
        for name, attr in WRAPPED.items():
            owner, field = self._module, attr
            if "." in attr:
                cls_name, field = attr.split(".")
                owner = getattr(self._module, cls_name, None)
            original = getattr(owner, field, None)
            if original is None:
                self.absent.append(name)
                continue
            setattr(owner, field, self._wrap(name, original))
            restore.append((owner, field, original))
        try:
            yield self
        finally:
            for owner, field, original in reversed(restore):
                setattr(owner, field, original)

    def metrics(self, sequences: int, traces: int) -> dict[str, tuple[float, str]]:
        """Layer metrics of everything recorded since the last ``reset``;
        ``sequences`` and ``traces`` come from the reports."""
        t, n = self.total, self.calls
        steps = n["engine.step"]
        explore_s = t["explore"]
        out = {
            "ir.parse_s": (t["ir.parse"], "s"),
            "transform.early_write_s": (t["transform.early_write"], "s"),
            "engine.step_s": (t["engine.step"], "s"),
            "engine.steps": (steps, "count"),
            "engine.step_us": (t["engine.step"] / steps * 1e6 if steps else 0.0, "us"),
            "engine.sequence_s": (t["engine.sequence"], "s"),
            "coherence.check_step_s": (t["coherence.check_step"], "s"),
            "coherence.check_step_calls": (n["coherence.check_step"], "count"),
            "coherence.pruned": (sum(self.pruned.values()), "count"),
        }
        for rule in PRUNE_RULES:
            out[f"coherence.pruned.{rule}"] = (self.pruned[rule], "count")
        out.update({
            "coherence.check_moca_s": (t["coherence.check_moca"], "s"),
            "coherence.c11_oracle_s": (t["coherence.c11_oracle"], "s"),
            "relations.compute_s": (t["relations.compute"], "s"),
            "explorer.trace_id_s": (t["explorer.trace_id"], "s"),
            "explorer.races_s": (t["explorer.races"], "s"),
            "explorer.asserts_s": (t["explorer.asserts"], "s"),
            "explorer.record_s": (sum(t[s] for s in RECORD_SPANS), "s"),
            "explorer.self_s": (self.self_time["explore"], "s"),
            "explorer.sequences": (sequences, "count"),
            "explorer.traces": (traces, "count"),
            "explorer.duplicates": (sequences - traces, "count"),
            "explorer.redundancy": (sequences / traces if traces else 0.0, "ratio"),
            "explorer.seqs_per_s": (sequences / explore_s if explore_s else 0.0, "1/s"),
            "cli.report_s": (t["cli.report"], "s"),
        })
        return out
