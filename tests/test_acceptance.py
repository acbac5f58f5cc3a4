"""Acceptance gate: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the suite is also part of the default ``pytest`` run.
"""

from __future__ import annotations

import time

import pytest

from conftest import corpus_names, corpus_program
from oracles import check_spr

from moca_verify.explorer import EnumerationCapExceeded, enumerate_all, explore
from moca_verify.transform import early_write_transform

from test_properties import run_hb_validity_suite


def _ok(line: str) -> None:
    print(f"[acceptance] {line}")


class TestAcceptance:
    def test_criterion_1_litmus_trace_counts(self):
        expected = {
            "wrc-addrs": 7,
            "wr-ctrl": 4,
            "z6-poxxs": 4,
            "iriw-addrs": 15,
            "ww-rr": 15,
        }
        for name, want in expected.items():
            t0 = time.monotonic()
            report = explore(corpus_program(name))
            elapsed = time.monotonic() - t0
            assert report.distinct_traces == want, \
                f"{name}: {report.distinct_traces} != {want}"
            assert report.sequences_explored >= want
            assert report.non_mca_sequences == 0, name
            assert elapsed < 10.0, f"{name} took {elapsed:.1f}s"
        _ok("criterion 1: PASS: litmus trace counts exact "
            f"({', '.join(f'{n}={v}' for n, v in expected.items())}), "
            "all explored sequences coherent")

    def test_criterion_2_iriw_forbidden_outcome(self):
        report = explore(corpus_program("iriw"))
        assert report.violations == []
        for t in report.traces:
            a = t.final_locals["T2"]["a"]
            b = t.final_locals["T4"]["b"]
            assert not (a == 0 and b == 0), t.schedule
        addrs = explore(corpus_program("iriw-addrs"))
        assert addrs.violations == []
        for t in addrs.traces:
            vals = (t.final_locals["T2"]["r1"], t.final_locals["T2"]["a"],
                    t.final_locals["T4"]["r2"], t.final_locals["T4"]["b"])
            assert vals != (1, 0, 1, 0), t.schedule
        _ok("criterion 2: PASS: no trace with the forbidden independent-"
            "reads disagreement, zero assertion violations")

    def test_criterion_3_mca_litmus_sanity(self):
        t0 = time.monotonic()
        corr = explore(corpus_program("corr"))
        assert corr.distinct_traces == 3
        assert time.monotonic() - t0 < 5.0
        violating = {}
        for name in ("luc10", "s-popl"):
            t0 = time.monotonic()
            report = explore(corpus_program(name))
            assert time.monotonic() - t0 < 5.0
            assert len(report.violations) >= 1, name
            violating[name] = len(report.violations)
        _ok("criterion 3: PASS: corr=3 traces exactly; violations detected: "
            f"{violating}")

    def test_criterion_4_na_race_counts(self):
        sw = explore(corpus_program("simple-sw"))
        assert sw.sequences_explored == 3, sw.sequences_explored
        assert sw.racy_sequence_count == 2, sw.racy_sequence_count
        ithb = explore(corpus_program("simple-ithb"))
        assert ithb.sequences_explored == 4, ithb.sequences_explored
        assert ithb.racy_sequence_count == 2, ithb.racy_sequence_count
        _ok("criterion 4: PASS: simple-sw: 3 sequences / 2 racy; "
            "simple-ithb: 4 sequences / 2 racy")

    def test_criterion_5_c11_oracle_suite(self):
        checked = 0
        for name in corpus_names():
            report = explore(corpus_program(name))
            assert report.c11_oracle_failures == 0, name
            checked += report.sequences_explored
        _ok(f"criterion 5: PASS: per-location coherence axioms hold on all "
            f"{checked} explored sequences across the corpus")

    def test_criterion_6_transform_preservation_suite(self):
        for name in corpus_names():
            program = corpus_program(name)
            verdict = check_spr(program, early_write_transform(program))
            assert verdict.spr1 and verdict.spr2 and verdict.spr3, \
                (name, verdict.detail)
        _ok("criterion 6: PASS: early-write transformation preserves "
            "statement multisets, thread semantics, and per-location order "
            "on every corpus program")

    def test_criterion_7_oracle_equivalence(self):
        compared = []
        for name in corpus_names():
            program = corpus_program(name)
            t0 = time.monotonic()
            try:
                oracle = enumerate_all(program, cap=12)
            except EnumerationCapExceeded:
                continue
            report = explore(program)
            elapsed = time.monotonic() - t0
            assert report.trace_ids == set(oracle), name
            assert elapsed < 60.0, f"{name} took {elapsed:.1f}s"
            compared.append(name)
        assert len(compared) >= 20
        _ok(f"criterion 7: PASS: explorer and brute-force enumeration agree "
            f"on {len(compared)} programs within the event cap")

    @pytest.mark.slow
    def test_criterion_8_hb_validity_properties(self):
        checked = run_hb_validity_suite(1000)
        assert checked == 1000
        _ok("criterion 8: PASS: happens-before validity properties 1-7 "
            "hold on 1000 random programs (zero counterexamples)")

    def test_criterion_9_scaled_benchmarks(self):
        results = {}
        for name in ("fibonacci-2", "counter-3", "flipper-3"):
            program = corpus_program(name)
            t0 = time.monotonic()
            report = explore(program, max_seqs=1_000_000, max_depth=10_000)
            elapsed = time.monotonic() - t0
            assert not report.budget_exhausted, name
            assert report.non_mca_sequences == 0, name
            assert report.c11_oracle_failures == 0, name
            oracle = enumerate_all(program, cap=12)
            assert report.trace_ids == set(oracle), name
            results[name] = (report.sequences_explored, report.distinct_traces,
                             round(elapsed, 2))
        _ok("criterion 9: PASS: scaled benchmarks terminate under budget "
            f"with coherent sequences only: {results}")
