"""Tests of the benchmark itself:  python3 -m pytest bench -q"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types

import pytest

import fibsim
import run
import workloads
from spans import WRAPPED, Tracer

sys.path.insert(0, str(run.SRC))

import moca_verify  # noqa: E402
import moca_verify.explorer  # noqa: E402
from moca_verify import explore, parse_program  # noqa: E402


@pytest.mark.parametrize("workload", ["counter-2", "counter-4", "sb-ring-3",
                                      "sb-ring-4", "fib-1", "fib-4"])
@pytest.mark.parametrize("seed", [0, 1, 987654321])
def test_generated_programs_parse(workload, seed):
    [(key, source)] = workloads.sources(workload, seed)
    assert key == workload
    assert workloads.sources(workload, seed) == [(key, source)]
    parse_program(source)


@pytest.mark.parametrize("workload", ["counter-3", "sb-ring-3", "fib-2"])
def test_small_family_members_get_their_known_answer_for_any_seed(workload):
    ids = set()
    for seed in (3, 4):
        [(key, source)] = workloads.sources(workload, seed)
        report = explore(parse_program(source))
        want = workloads.expected(key, source)
        assert report.distinct_traces == want.traces
        assert not report.violations and not report.racy_sequence_count
        ids.add(tuple(sorted(report.trace_ids)))
    assert len(ids) == 1


def test_simulator_reproduces_corpus_fibonacci_2():
    text = (workloads.CORPUS / "fibonacci-2.lit").read_text()
    assert "expect traces = 20" in text
    assert fibsim.count_traces(2) == 20


def test_traced_pass_gives_identical_reports_on_corpus():
    cases = workloads.sources("corpus", 0)
    plain = run.run_pass(moca_verify, cases)
    tracer = Tracer(moca_verify.explorer)
    with tracer.installed():
        traced = run.run_pass(moca_verify, cases, tracer)
    assert tracer.absent == []
    assert traced.reports == plain.reports
    # the wrappers are gone again
    assert run.run_pass(moca_verify, cases).reports == plain.reports
    assert tracer.calls["engine.step"] > 0 and tracer.calls["explore"] == len(cases)
    pins = json.loads(run.PINS.read_text())
    expected = {key: workloads.expected(key, source) for key, source in cases}
    assert run.wrong_verdicts(plain, expected, pins) == []


def test_wrappers_pass_values_through_and_missing_names_are_absent():
    original = lambda rels: ("shto", rels)  # noqa: E731
    module = types.SimpleNamespace(check_step=original)
    tracer = Tracer(module)
    with tracer.installed():
        assert module.check_step("w") == ("shto", "w")
        assert module.check_step is not original
    assert module.check_step is original
    assert tracer.pruned == {"shto": 1} and tracer.calls["coherence.check_step"] == 1
    assert sorted(tracer.absent) == sorted(set(WRAPPED) - {"coherence.check_step"})
    assert tracer.metrics(sequences=0, traces=0)["engine.step_s"] == (0.0, "s")


def test_wrong_answer_is_reported():
    cases = workloads.sources("corpus", 0)[:3]
    p = run.run_pass(moca_verify, cases)
    expected = {key: workloads.expected(key, source) for key, source in cases}
    key = cases[0][0]
    expected[key] = workloads.Expected(expected[key].traces + 1,
                                       expected[key].violated, expected[key].racy)
    pins = json.loads(run.PINS.read_text())
    assert run.wrong_verdicts(p, expected, pins) == [key]


def test_exits_without_result_when_checker_is_missing(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "corpus",
                          "--seed", "0", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_names_every_declared_metric(trace, section):
    declared = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())[section]
    out = subprocess.run([sys.executable, str(run.HERE / "run.py"), "--workload", "corpus",
                          "--seed", "5", "--seconds", "0", "--trace", str(trace)],
                         capture_output=True, text=True, timeout=120, check=True)
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 25
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
