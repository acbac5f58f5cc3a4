from __future__ import annotations

import random

import pytest

from conftest import corpus_names, corpus_program
from test_properties import random_program_source

from moca_verify import parse_program, run_sequence
from moca_verify.coherence import check_c11_oracle, check_moca, check_step
from moca_verify.engine import ExecState
from moca_verify.ir import ContractViolation
from moca_verify.relations import compute_relations, position
from moca_verify.transform import early_write_transform
from moca_verify.explorer import _estimate_events, enumerate_all, explore


CORR2 = """
program corr2
init x = 0
thread T1:
  store(x, 1, rlx)
  r1 = load(x, rlx)
  r2 = load(x, rlx)
thread T2:
  store(x, 2, rlx)
"""

# T1's read takes its own pending write, and T2's write is dob-before that
# read (T1's release write continues T2's release sequence), so whether T2's
# write reached the store before the read's source is decided only when T1's
# write flushes
OWN_SOURCE_FLUSH = """
program own-source-flush
init b = 0
thread T1:
  store(b, 1, rel)
  r0 = load(b, acq)
thread T2:
  store(b, 2, rel)
"""

# T2's acquire read takes its own write, and T1's release writes head release
# sequences that contain it (``test_read_source_half_of_shmo1_decides``)
SHMO1_READ_SOURCE = """
program shmo1-read-source
init x = 0
thread T1:
  store(x, 1, rel)
  r1 = load(x, rlx)
  store(x, 2, rel)
thread T2:
  store(x, 3, rel)
  r3 = load(x, acq)
"""


def run(program, schedule):
    st = run_sequence(program, schedule)
    seq = st.sequence()
    return st, seq, compute_relations(seq)


def by_key(rels, thr, idx):
    return next(e for e in rels.events if e.key == (thr, idx))


class TestCheckMoca:
    def test_empty_sequence_passes(self):
        p = parse_program("program e\ninit x = 0\n")
        _, seq, rels = run(p, [])
        assert check_moca(rels).ok

    def test_mp_forbidden_outcome_fails_shmo1(self, mp):
        # flag flushed and observed, payload not yet visible at its read
        st, seq, rels = run(mp, ["T1", "T1", "sth_f(T1)", "T2", "T2", "sth_x(T1)"])
        assert st.lcl["T2"] == {"r": 1, "s": 0}
        verdict = check_moca(rels)
        assert not verdict.ok
        witness = verdict.failures["shmo1"]
        assert witness[0].key == ("T1", 0)  # the payload write

    def test_read_read_against_store_order_fails_shmo3(self):
        p = parse_program(CORR2)
        # r1 reads the own pending store; a foreign flush lands before r2,
        # which reads it although r1's source, hb-before r2, flushes later
        st, seq, rels = run(p, ["T1", "T1", "T2", "sth_x(T2)", "T1", "sth_x(T1)"])
        assert st.lcl["T1"] == {"r1": 1, "r2": 2}
        verdict = check_moca(rels)
        assert verdict.failures.get("shmo3") is not None
        w1, r2 = verdict.failures["shmo3"]
        assert (w1.key, r2.key) == (("T1", 0), ("T1", 2))

    def test_read_source_faults_raise_contract_violation(self):
        # read resolution places every source before its read, and a foreign
        # source's flush too; the rebuild refuses a sequence that breaks this
        p = parse_program("""
program late-source
init x = 0
thread T1:
  r = load(x, rlx)
  store(x, 1, rlx)
""")
        seq = run_sequence(p, ["T1", "T1", "sth_x(T1)"]).sequence()
        r, w = (seq.events.index(by_key(seq, "T1", i)) for i in (0, 1))
        seq.rf[r] = w   # deliberately corrupted: the source is po-after the read
        with pytest.raises(ContractViolation, match="read before its source"):
            compute_relations(seq)

        p = parse_program("""
program unflushed-source
init x = 0
thread T1:
  store(x, 1, rlx)
thread T2:
  r = load(x, rlx)
""")
        seq = run_sequence(p, ["T1", "T2", "sth_x(T1)"]).sequence()
        r, w = (seq.events.index(by_key(seq, t, 0)) for t in ("T2", "T1"))
        seq.rf[r] = w   # deliberately corrupted: T1's write flushes after the read
        with pytest.raises(ContractViolation, match="not yet flushed"):
            compute_relations(seq)

    def test_explored_sequences_all_pass(self):
        for name in corpus_names():
            p = corpus_program(name)
            rep = explore(p)
            assert rep.non_mca_sequences == 0, name


class TestIncrementalAgainstPostHoc:
    def test_violating_schedule_pruned_at_decidable_step(self, mp):
        # raw replay of the forbidden interleaving; the incremental filter
        # rejects the acquire read of the flag while the payload is pending
        st = ExecState(early_write_transform(mp))
        for unit in ["T1", "T1", "sth_f(T1)"]:
            st = st.step(unit)
        verdict = check_step(st.step("T2").rels)
        assert verdict is not None
        rule, witness = verdict
        assert rule == "shmo1"
        assert witness[0].key == ("T1", 0)

    def test_survivors_pass_post_hoc(self):
        # filter/post-hoc agreement: replaying any surviving schedule through
        # the reference checker succeeds
        for name in ("mp", "simple-ithb", "sb-sc", "w-rwr", "cas-race"):
            p = corpus_program(name)
            target = early_write_transform(p)
            rep = explore(p)
            for t in rep.traces:
                st = ExecState(target)
                for unit in t.schedule:
                    child = st.step(unit)
                    assert check_step(child.rels) is None, (name, t.schedule)
                    st = child
                seq = st.sequence()
                assert check_moca(compute_relations(seq)).ok

    def test_prefilter_matches_post_hoc_filter(self):
        # the enumeration oracle gives identical trace sets whether coherence
        # is applied per-step or only on maximal sequences
        for name in ("mp", "corr", "w-rwr", "sb-sc", "simple-ithb", "luc10"):
            p = corpus_program(name)
            pre = enumerate_all(p, cap=12, prefilter=True)
            post = enumerate_all(p, cap=12, prefilter=False)
            assert set(pre) == set(post), name


    def test_flush_step_decides_shmo3(self):
        # a shadow-write step must run the read rules on the flushed write's
        # readers, not only ``shto``: skipping them admits a fifth,
        # incoherent trace here
        p = parse_program(OWN_SOURCE_FLUSH)
        st = ExecState(early_write_transform(p))
        for unit in ["T2", "T1", "T1"]:
            st = st.step(unit)
            assert check_step(st.rels) is None
        rule, witness = check_step(st.step("sth_b(T1)").rels)
        assert rule == "shmo3"
        assert [e.pretty() for e in witness] == ["T2#0:write(b)rel", "T1#1:read(b)acq"]
        rep = explore(p)
        assert {t.trace_id for t in rep.traces} == set(enumerate_all(p, cap=12))
        assert rep.distinct_traces == 4
        assert rep.non_mca_sequences == 0

    def test_read_source_half_of_shmo1_decides(self):
        # both of T1's writes are direct dob sources of T2's acquire read, so
        # shmo1's write half skips them; only T1's read, which takes T1's
        # first write, makes that write's pending flush fail the rule
        p = parse_program(SHMO1_READ_SOURCE)
        st = ExecState(p)
        for unit in ["T1", "T1", "T1", "T2"]:
            st = st.step(unit)
            assert check_step(st.rels) is None
        st = st.step("T2")
        read = len(st.rels.events) - 1
        writes = [position(st.rels, by_key(st.rels, "T1", i)) for i in (0, 2)]
        assert st.rels.dob[read] == sum(1 << w for w in writes)
        rule, witness = check_step(st.rels)
        assert rule == "shmo1"
        assert [e.pretty() for e in witness] == ["T1#0:write(x)rel", "T2#1:read(x)acq"]
        rep = explore(p)
        assert {t.trace_id for t in rep.traces} == set(enumerate_all(p, cap=12))
        assert rep.distinct_traces == 12
        assert rep.non_mca_sequences == 0

    def test_step_filter_is_first_post_hoc_failure(self):
        # every child of every coherent prefix, without reduction: the
        # incremental filter names the first rule and witness the full check
        # finds, and the live relations give the rebuilt relations' verdict
        rng = random.Random(12)
        programs = [corpus_program(n) for n in corpus_names()]
        programs = [p for p in programs
                    if _estimate_events(early_write_transform(p)) <= 7]
        programs.append(parse_program(CORR2))
        programs += [parse_program(random_program_source(rng)) for _ in range(20)]
        pruned = set()
        for p in programs:
            stack = [ExecState(early_write_transform(p))]
            while stack:
                st = stack.pop()
                for unit in st.enabled_units():
                    child = st.step(unit)
                    verdict = check_step(child.rels)
                    full = check_moca(child.rels)
                    first = next(iter(full.failures.items()), None)
                    assert verdict == first, (p.name, child.schedule_so_far())
                    rebuilt = check_moca(compute_relations(child.sequence()))
                    assert full.rules == rebuilt.rules, (p.name, child.schedule_so_far())
                    if verdict is None:
                        stack.append(child)
                    else:
                        pruned.add(verdict[0])
        assert {"shmo1", "shmo3", "shrmo", "shto"} <= pruned


class TestC11Oracle:
    def test_corpus_sequences_satisfy_axioms(self):
        for name in corpus_names():
            p = corpus_program(name)
            rep = explore(p)
            assert rep.c11_oracle_failures == 0, name

    def test_empty_sequence_passes(self):
        p = parse_program("program e\ninit x = 0\n")
        _, seq, rels = run(p, [])
        assert check_c11_oracle(rels).ok

    def test_read_bound_to_hb_later_write_fails_co(self):
        p = parse_program("""
program co
init x = 0
thread T1:
  r = load(x, rlx)
  store(x, 1, rlx)
""")
        st, seq, rels = run(p, ["T1", "T1", "sth_x(T1)"])
        r = next(e for e in seq.events if e.key == ("T1", 0))
        w = next(e for e in seq.events if e.key == ("T1", 1))
        rels.rf[position(rels, r)] = position(rels, w)  # deliberately corrupted: source is po-after the read
        verdict = check_c11_oracle(rels)
        assert verdict.rules["co"] == (r, w)

    def test_live_relations_give_rebuilt_verdicts(self):
        # the oracle reads only fields both relation classes share, so the
        # engine's live relations give the rebuilt relations' rules and
        # witnesses on every corpus trace
        for name in corpus_names():
            p = corpus_program(name)
            target = early_write_transform(p)
            for t in explore(p).traces:
                st = run_sequence(target, t.schedule)
                rebuilt = check_c11_oracle(compute_relations(st.sequence()))
                assert check_c11_oracle(st.rels).rules == rebuilt.rules, \
                    (name, t.schedule)

    def test_mo1_detects_inverted_store_order(self, w_rwr):
        st, seq, rels = run(
            w_rwr, ["T1", "sth_x(T1)", "T2", "T2", "T2", "sth_x(T2)"])
        # invert the modification order behind the oracle's back
        rels.mo["x"] = list(reversed(rels.mo["x"]))
        verdict = check_c11_oracle(rels)
        assert verdict.rules["mo1"] is not None or verdict.rules["mo4"] is not None
