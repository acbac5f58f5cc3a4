from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from conftest import CORPUS

import moca_verify
from moca_verify import cli, explorer
from moca_verify.cli import main
from moca_verify.coherence import CoherenceVerdict


@pytest.fixture
def runner():
    return CliRunner()


def corpus(name: str) -> str:
    return str(CORPUS / f"{name}.lit")


def transform_output(runner, name: str) -> str:
    result = runner.invoke(main, ["transform", corpus(name)])
    assert result.exit_code == 0, result.output
    return result.output


class TestVerify:
    def test_clean_program_exits_zero(self, runner):
        result = runner.invoke(main, ["verify", corpus("iriw-addrs"), "--json"])
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        assert payload["schema"] == "moca-verify-report/1"
        assert payload["distinct_traces"] == 15
        assert payload["violations"] == []
        assert payload["non_mca_sequences"] == 0

    def test_violation_exits_one(self, runner):
        result = runner.invoke(main, ["verify", corpus("luc10")])
        assert result.exit_code == 1
        assert "assert never" in result.output

    def test_racy_program_exits_one(self, runner):
        result = runner.invoke(main, ["verify", corpus("simple-sw")])
        assert result.exit_code == 1
        assert "na race" in result.output
        assert "racy_sequences:     2" in result.output

    def test_parse_error_exits_two(self, runner, tmp_path):
        bad = tmp_path / "bad.lit"
        bad.write_text("program x\ninit a = 0\nthread T1:\n  while (1):\n")
        result = runner.invoke(main, ["verify", str(bad)])
        assert result.exit_code == 2

    def test_missing_file_exits_two(self, runner):
        result = runner.invoke(main, ["verify", "/nonexistent/zz.lit"])
        assert result.exit_code == 2

    def test_deep_single_thread_explores(self, runner, tmp_path):
        # 500 stores put about 1000 events on one search path: the search
        # needs no recursion, and only --max-depth bounds it
        deep = tmp_path / "deep.lit"
        deep.write_text("program deep\ninit x = 0\nthread T1:\n"
                        + "".join(f"  store(x, {i}, rlx)\n" for i in range(500)))
        result = runner.invoke(main, ["verify", str(deep), "--json"])
        assert result.exit_code == 0, result.output
        payload = json.loads(result.stdout)
        assert payload["sequences_explored"] == 1
        assert not payload["budget_exhausted"]
        result = runner.invoke(main, ["verify", str(deep), "--json", "--max-depth", "50"])
        assert result.exit_code == 3, result.output
        payload = json.loads(result.stdout)
        assert payload["budget_exhausted"]
        assert payload["sequences_explored"] == 0

    def test_budget_exhausted_exits_three(self, runner):
        result = runner.invoke(main, ["verify", corpus("ww-rr"), "--max-seqs", "2"])
        assert result.exit_code == 3

    @pytest.mark.parametrize("name,total", [("empty", 1), ("mp", 3)])
    def test_budget_of_exactly_the_search_is_complete(self, runner, name, total):
        # the budget runs out only when one more sequence than it allows
        # arrives: a search of exactly --max-seqs sequences is complete
        for max_seqs, code in ((total, 0), (total - 1, 3), (0, 3)):
            result = runner.invoke(
                main, ["verify", corpus(name), "--json", "--max-seqs", str(max_seqs)])
            assert result.exit_code == code, (max_seqs, result.output)
            payload = json.loads(result.stdout)
            assert payload["sequences_explored"] == max_seqs
            assert payload["budget_exhausted"] == (code == 3)

    @pytest.mark.parametrize("command", ["verify", "enumerate", "transform", "relations"])
    def test_source_that_is_not_utf8_exits_two(self, runner, tmp_path, command):
        f = tmp_path / "bytes.lit"
        f.write_bytes(b"program b\ninit x = 0\xff\n")
        result = runner.invoke(main, [command, str(f)])
        assert result.exit_code == 2, result.output
        assert f"error: cannot read {f}: " in result.stderr
        assert "internal error" not in result.output

    def test_expect_mismatch_exits_one(self, runner, tmp_path):
        src = (CORPUS / "mp.lit").read_text().replace(
            "expect traces = 3", "expect traces = 99")
        f = tmp_path / "mp.lit"
        f.write_text(src)
        result = runner.invoke(main, ["verify", str(f)])
        assert result.exit_code == 1
        assert "trace-count mismatch" in result.output

    def test_no_enforce_expect(self, runner, tmp_path):
        src = (CORPUS / "mp.lit").read_text().replace(
            "expect traces = 3", "expect traces = 99")
        f = tmp_path / "mp.lit"
        f.write_text(src)
        result = runner.invoke(main, ["verify", str(f), "--no-enforce-expect"])
        assert result.exit_code == 0

    def test_no_early_write_changes_lb(self, runner):
        # without the transformation the load-buffering outcome disappears
        result = runner.invoke(
            main, ["verify", corpus("s-popl"), "--no-early-write",
                   "--no-enforce-expect", "--json"])
        payload = json.loads(result.output)
        assert payload["violations"] == []
        assert payload["distinct_traces"] == 3

    def test_emit_transformed_keeps_json_parseable(self, runner):
        plain = runner.invoke(main, ["verify", corpus("s-popl"), "--json"])
        result = runner.invoke(
            main, ["verify", corpus("s-popl"), "--json", "--emit-transformed"])
        assert result.exit_code == plain.exit_code, result.output
        payload = json.loads(result.output)
        source = payload.pop("transformed")
        assert payload == json.loads(plain.output)
        assert source == transform_output(runner, "s-popl")
        # text mode still prints the source ahead of the report
        text = runner.invoke(main, ["verify", corpus("s-popl"), "--emit-transformed"])
        assert text.output.startswith(source)

    def test_emit_transformed_prints_the_program_explored(self, runner):
        # with --no-early-write the explored program is the source as
        # written: T1's load stays ahead of its store
        args = ["verify", corpus("s-popl"), "--no-early-write", "--emit-transformed"]
        text = runner.invoke(main, args + ["--no-enforce-expect"])
        source = runner.invoke(main, args + ["--json", "--no-enforce-expect"])
        payload = json.loads(source.output)
        assert payload["sequences_explored"] == 3
        assert payload["transformed"].splitlines()[2:4] == [
            "thread T1:", "  r1 = load(x, rlx)"]
        assert text.output.startswith(payload["transformed"])

    def test_dump_trace_prints_store_snapshots(self, runner):
        result = runner.invoke(main, ["verify", corpus("mp"), "--dump-trace"])
        assert "shadow-write" in result.output
        assert "x=1" in result.output

    def test_dump_trace_with_json_is_one_document(self, runner):
        result = runner.invoke(main, ["verify", corpus("mp"), "--json", "--dump-trace"])
        payload = json.loads(result.output)
        for entry in payload["traces"]:
            snapshots = entry["snapshots"]
            assert len(snapshots) == len(entry["schedule"])
            assert snapshots[-1]["shared"] == entry["final_shared"]
        assert any(s["event"].startswith("sth_x") and s["shared"]["x"] == 1
                   for e in payload["traces"] for s in e["snapshots"])

    def test_dump_relations_embeds_edges(self, runner):
        result = runner.invoke(
            main, ["verify", corpus("mp"), "--json", "--dump-relations"])
        payload = json.loads(result.output)
        rel = payload["traces"][0]["relations"]
        assert rel["schema"] == "moca-verify-relations/1"
        assert set(rel) >= {"rf", "sw", "dob", "hb", "mo", "to"}

    def test_dump_relations_needs_json(self, runner):
        result = runner.invoke(main, ["verify", corpus("mp"), "--dump-relations"])
        assert result.exit_code == 2
        assert "--dump-relations needs --json" in result.output

    def test_internal_error_exits_four(self, runner, monkeypatch):
        def crash(*args, **kwargs):
            raise RecursionError("maximum recursion depth exceeded\nin _explore")

        monkeypatch.setattr(cli, "explore", crash)
        result = runner.invoke(main, ["verify", corpus("mp")])
        assert result.exit_code == 4
        assert result.stdout == ""
        assert result.stderr == (
            "internal error: RecursionError: maximum recursion depth exceeded"
            " in _explore\n")

    @pytest.mark.parametrize("oracle,counts", [
        ("check_moca", ("non_mca_sequences:  3", "c11_oracle_failures: 0")),
        ("check_c11_oracle", ("non_mca_sequences:  0", "c11_oracle_failures: 3")),
    ])
    def test_oracle_disagreement_exits_four(self, runner, monkeypatch, oracle, counts):
        # every explored sequence passed the incremental filter, so an oracle
        # that rejects one means the checker contradicts itself
        monkeypatch.setattr(explorer, oracle,
                            lambda rels: CoherenceVerdict({"shmo1": ()}))
        result = runner.invoke(main, ["verify", corpus("mp")])
        assert result.exit_code == 4
        lines = result.stdout.splitlines()
        assert all(line in lines for line in counts), result.stdout
        assert result.stderr.count("\n") == 1
        assert result.stderr.startswith("internal error: ")
        result = runner.invoke(main, ["verify", corpus("mp"), "--json"])
        assert result.exit_code == 4
        payload = json.loads(result.stdout)
        assert (payload["non_mca_sequences"], payload["c11_oracle_failures"]) == (
            (3, 0) if oracle == "check_moca" else (0, 3))

    def test_undefined_assert_exits_two(self, runner, tmp_path):
        # x == 5 holds in some trace, but q is defined nowhere: the assert
        # cannot be evaluated, which must not read as verified
        lit = tmp_path / "undefined.lit"
        lit.write_text("program u\ninit x = 0\nthread T1:\n  store(x, 5, rlx)\n"
                       "thread T2:\n  r = load(x, rlx)\n"
                       "assert never (x == 5 || q == 1)\n")
        result = runner.invoke(main, ["verify", str(lit)])
        assert result.exit_code == 2
        assert "violations:         0" in result.stdout
        assert result.stdout.count("assert diagnostic:") == 1
        assert "assert diagnostic: assert 0: undefined reference q" in result.stdout
        result = runner.invoke(main, ["verify", str(lit), "--json"])
        assert result.exit_code == 2
        payload = json.loads(result.stdout)
        assert payload["assert_diagnostics"] == ["assert 0: undefined reference q"]

    def test_violation_outranks_an_undefined_assert(self, runner, tmp_path):
        lit = tmp_path / "both.lit"
        lit.write_text("program b\ninit x = 0\nthread T1:\n  store(x, 5, rlx)\n"
                       "assert never (q == 1)\nassert never (x == 5)\n")
        result = runner.invoke(main, ["verify", str(lit)])
        assert result.exit_code == 1
        assert "assert diagnostic: assert 0: undefined reference q" in result.stdout

    @pytest.mark.parametrize("name", ["init", "sth_x"])
    def test_reserved_thread_name_exits_two(self, runner, tmp_path, name):
        f = tmp_path / "reserved.lit"
        f.write_text(f"program r\ninit x = 0\nthread {name}:\n  store(x, 1, rlx)\n")
        result = runner.invoke(main, ["verify", str(f)])
        assert result.exit_code == 2
        assert f"reserved.lit:3:1: reserved thread name {name!r}" in result.stderr

    @pytest.mark.parametrize("expr", ["(" * 400 + "1" + ")" * 400, "-" * 1200 + "1",
                                      " + ".join(["1"] * 2000)],
                             ids=["parentheses", "minus", "sum"])
    def test_deep_expression_exits_two(self, runner, tmp_path, expr):
        f = tmp_path / "deep.lit"
        f.write_text(f"program d\ninit x = 0\nthread T1:\n  r = {expr}\n")
        result = runner.invoke(main, ["verify", str(f)])
        assert result.exit_code == 2
        assert "deep.lit:4:" in result.stderr and "nested deeper than" in result.stderr

    def test_malformed_expect_exits_two(self, runner, tmp_path):
        f = tmp_path / "expect.lit"
        f.write_text("program e\ninit x = 0\nexpect traces = x\n")
        result = runner.invoke(main, ["verify", str(f)])
        assert result.exit_code == 2
        assert "expect.lit:3:1: expected a non-negative integer trace count" in result.stderr

    def test_usage_errors_keep_their_exit_codes(self, runner):
        result = runner.invoke(main, ["verify", corpus("mp"), "--max-seqs", "x"])
        assert result.exit_code == 2
        assert runner.invoke(main, ["--help"]).exit_code == 0


class TestModuleEntryPoints:
    @pytest.mark.parametrize("module", ["moca_verify", "moca_verify.cli"])
    @pytest.mark.parametrize("name,code", [("mp", 0), ("luc10", 1)])
    def test_python_dash_m_verifies(self, module, name, code):
        src = str(Path(moca_verify.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        result = subprocess.run(
            [sys.executable, "-m", module, "verify", corpus(name)],
            capture_output=True, text=True, env=env, timeout=120)
        assert result.returncode == code, result.stderr
        assert "distinct_traces:" in result.stdout


class TestReplay:
    def test_replay_reports_outcome(self, runner, tmp_path):
        sched = tmp_path / "sched.json"
        sched.write_text(json.dumps(
            ["T1", "T1", "sth_x(T1)", "sth_f(T1)", "T2", "T2"]))
        result = runner.invoke(
            main, ["verify", corpus("mp"), "--replay", str(sched)])
        assert result.exit_code == 0
        assert "trace_id:" in result.output
        assert "coherent: True" in result.output
        assert "incoherent:" not in result.output

    def test_replay_names_failing_rule_and_witness(self, runner, tmp_path):
        # both sc reads are placed before both sc stores flush, and po puts
        # each store before its own thread's read: the sc order has a cycle
        sched = tmp_path / "sched.json"
        sched.write_text(json.dumps(
            ["T1", "T2", "T1", "T2", "sth_x(T1)", "sth_y(T2)"]))
        result = runner.invoke(
            main, ["verify", corpus("sb-sc"), "--replay", str(sched)])
        lines = result.output.splitlines()
        assert "coherent: False" in lines
        assert [l for l in lines if l.startswith("incoherent:")] == [
            "incoherent: shto: T1#1:read(y)sc, T2#1:read(x)sc"]

    def test_replay_prints_assert_diagnostics(self, runner, tmp_path):
        # as verify does: an assert that cannot be evaluated is not verified
        lit = tmp_path / "undefined.lit"
        lit.write_text("program u\ninit x = 0\nthread T1:\n  store(x, 5, rlx)\n"
                       "thread T2:\n  r = load(x, rlx)\n"
                       "assert never (x == 5 || q == 1)\n")
        sched = tmp_path / "sched.json"
        sched.write_text(json.dumps(["T1", "sth_x(T1)", "T2"]))
        result = runner.invoke(main, ["verify", str(lit), "--replay", str(sched)])
        assert result.exit_code == 2
        assert "coherent: True" in result.stdout.splitlines()
        assert [l for l in result.stdout.splitlines() if "assert diagnostic" in l] == [
            "assert diagnostic: assert 0: undefined reference q"]

    def test_replay_witness_reproduces_violation(self, runner, tmp_path):
        explore_result = runner.invoke(main, ["verify", corpus("luc10"), "--json"])
        payload = json.loads(explore_result.output)
        sched = tmp_path / "sched.json"
        sched.write_text(json.dumps(payload["violations"][0]["schedule"]))
        result = runner.invoke(
            main, ["verify", corpus("luc10"), "--replay", str(sched)])
        assert result.exit_code == 1
        assert "violated: assert never" in result.output

    @pytest.mark.parametrize("flag", [
        ["--json"], ["--emit-transformed"], ["--dump-relations"],
        ["--no-enforce-expect"], ["--max-seqs", "5"], ["--max-depth", "10000"]])
    def test_replay_refuses_flags_it_ignores(self, runner, tmp_path, flag):
        # --max-depth at its default value still counts as set
        sched = tmp_path / "sched.json"
        sched.write_text(json.dumps(["T1"]))
        result = runner.invoke(
            main, ["verify", corpus("mp"), "--replay", str(sched), *flag])
        assert result.exit_code == 2
        assert f"{flag[0]} has no effect with --replay" in result.output
        assert "trace_id:" not in result.output

    @pytest.mark.parametrize("text", ['5', '[["T1"]]', '"T1"', '{"T1": 1}'])
    def test_replay_takes_only_a_list_of_unit_names(self, runner, tmp_path, text):
        # an int, a nested list, a string and an object were each replayed
        # or crashed; each is refused as an unreadable schedule is
        sched = tmp_path / "sched.json"
        sched.write_text(text)
        result = runner.invoke(
            main, ["verify", corpus("mp"), "--replay", str(sched)])
        assert result.exit_code == 2
        assert f"error: cannot read schedule {sched}: not a JSON list of unit names" \
            in result.output
        assert "trace_id:" not in result.output

    def test_replay_schedule_that_is_not_utf8_exits_two(self, runner, tmp_path):
        sched = tmp_path / "sched.json"
        sched.write_bytes(b'["T1", "\xff"]')
        result = runner.invoke(
            main, ["verify", corpus("mp"), "--replay", str(sched)])
        assert result.exit_code == 2, result.output
        assert f"error: cannot read schedule {sched}: " in result.stderr
        assert "internal error" not in result.output

    def test_replay_bad_schedule_exits_two(self, runner, tmp_path):
        sched = tmp_path / "sched.json"
        sched.write_text(json.dumps(["sth_x(T1)"]))
        result = runner.invoke(
            main, ["verify", corpus("mp"), "--replay", str(sched)])
        assert result.exit_code == 2


class TestEnumerate:
    def test_enumerate_counts(self, runner):
        result = runner.invoke(main, ["enumerate", corpus("ww-rr"), "--json"])
        payload = json.loads(result.output)
        assert payload["distinct_traces"] == 15

    def test_cap_refusal(self, runner):
        result = runner.invoke(main, ["enumerate", corpus("ww-rr"), "--cap", "4"])
        assert result.exit_code == 2
        assert "schedulable events" in result.output

    def test_deep_single_thread_enumerates(self, runner, tmp_path):
        # 1100 loads put 1100 events on the one schedule: the walk needs no
        # recursion, and only --cap bounds it
        deep = tmp_path / "deep.lit"
        deep.write_text("program deep\ninit x = 0\nthread T1:\n"
                        + "".join(f"  r{i} = load(x, rlx)\n" for i in range(1100)))
        result = runner.invoke(main, ["enumerate", str(deep), "--cap", "2000"])
        assert result.exit_code == 0, result.output
        assert "distinct_traces: 1" in result.output


class TestTransform:
    def test_transform_prints_hoisted_source(self, runner):
        result = runner.invoke(main, ["transform", corpus("s-popl")])
        assert result.exit_code == 0
        lines = [l.strip() for l in result.output.splitlines()]
        t1 = lines.index("thread T1:")
        assert lines[t1 + 1].startswith("store(y")

    def test_transform_output_reparses(self, runner):
        from moca_verify import parse_program
        result = runner.invoke(main, ["transform", corpus("mp")])
        assert [t.name for t in parse_program(result.output).threads] == ["T1", "T2"]


class TestRelations:
    def test_relations_json(self, runner):
        result = runner.invoke(main, ["relations", corpus("mp")])
        payload = json.loads(result.output)
        assert len(payload) == 3  # one dump per distinct trace
        assert all(d["coherent"] and d["c11_coherent"] for d in payload)

    def test_relations_dot(self, runner):
        result = runner.invoke(main, ["relations", corpus("mp"), "--dot"])
        assert "digraph relations {" in result.output
        assert '[label="rf"' in result.output
