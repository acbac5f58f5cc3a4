from __future__ import annotations

from collections import deque

import pytest
from conftest import corpus_names, corpus_program

from moca_verify import early_write_transform, explore, parse_program, run_sequence
from moca_verify.engine import ExecState, ReplayError, Sequence
from moca_verify.ir import Act, Event
from moca_verify.relations import LiveRelations, RelationSet, compute_relations, rf_pairs

W_RWR_SCHEDULE = ["T1", "sth_x(T1)", "T2", "T2", "T2", "sth_x(T2)"]


class TestWorkedExample:
    """Two-thread single-object run: issue, flush, read, overwrite, re-read."""

    def test_memory_snapshots(self, w_rwr):
        state = ExecState(w_rwr)
        snapshots = [state.advance(unit).shr["x"] for unit in W_RWR_SCHEDULE]
        assert snapshots == [0, 1, 1, 1, 1, 2]

    def test_flush_updates_store(self, w_rwr):
        st = ExecState(w_rwr).step("T1")
        assert st.shr["x"] == 0  # issued but not visible
        st = st.step("sth_x(T1)")
        assert st.shr["x"] == 1

    def test_latest_visible_write(self, w_rwr):
        st = ExecState(w_rwr).step("T1").step("sth_x(T1)")
        assert st.rels.events[st.latest_visible_write("x")].key == ("T1", 0)
        st = st.step("T2").step("T2")  # read, then overwrite issued
        # overwrite not flushed yet
        assert st.rels.events[st.latest_visible_write("x")].key == ("T1", 0)

    def test_read_own_unflushed_write(self, w_rwr):
        st = run_sequence(w_rwr, ["T1", "sth_x(T1)", "T2", "T2"])
        src = st.rels.events[st.resolve_rf("T2", "x")]
        assert src.key == ("T2", 1)  # later same-thread write overrides

    def test_rf_assignment(self, w_rwr):
        st = run_sequence(w_rwr, W_RWR_SCHEDULE)
        rf = {r.key: w.key for r, w in rf_pairs(st.sequence()) if not r.is_init}
        assert rf == {("T2", 0): ("T1", 0), ("T2", 2): ("T2", 1)}
        assert st.shr["x"] == 2

    def test_read_from_init(self, w_rwr):
        st = ExecState(w_rwr)
        assert st.rels.events[st.latest_visible_write("x")].thr == "init"
        src = st.rels.events[st.resolve_rf("T2", "x")]
        assert src.thr == "init"
        st = st.step("T2")
        assert st.lcl["T2"]["b"] == 0


def enabled_events(state) -> set:
    """The next event of every enabled unit of ``state``."""
    return {state.step(u).rels.events[-1] for u in state.enabled_units()}


class TestEnabled:
    def test_initial_two_threads(self, mp):
        st = ExecState(mp)
        evs = enabled_events(st)
        assert {e.thr for e in evs} == {"T1", "T2"}
        assert all(e.act is not Act.SHADOW for e in evs)

    def test_shadow_enabled_after_store(self, mp):
        st = ExecState(mp).step("T1")
        units = st.enabled_units()
        assert "sth_x(T1)" in units and "T1" in units and "T2" in units

    def test_terminal_empty(self, mp):
        st = run_sequence(mp, ["T1", "T1", "sth_x(T1)", "sth_f(T1)", "T2", "T2"])
        assert st.enabled_units() == []
        assert enabled_events(st) == set()

    def test_step_of_a_disabled_unit_raises(self, mp):
        # T1 has finished, its ``x`` queue has drained, ``f`` is still queued
        st = run_sequence(mp, ["T1", "T1", "sth_x(T1)"])
        assert st.enabled_units() == ["T2", "sth_f(T1)"]
        n = 3   # the schedule index of the refused step
        for unit in ("T1", "sth_x(T1)", "sth_x(T2)"):
            with pytest.raises(ReplayError) as exc:
                st.step(unit)
            assert str(exc.value) == f"step {n}: cannot schedule {unit!r}: not enabled"

    def test_fence_changes_nothing_but_sequence(self):
        p = parse_program(
            "program f\ninit x = 0\nthread T1:\n  fence(sc)\n  store(x, 1, rlx)\n")
        st = ExecState(p)
        before = dict(st.shr)
        st2 = st.step("T1")
        assert st2.shr == before
        assert st2.rels.events[-1].act is Act.FENCE


class TestReplay:
    def test_determinism(self, mp):
        sched = ["T1", "T2", "T1", "sth_f(T1)", "T2", "sth_x(T1)"]
        a = run_sequence(mp, sched)
        b = run_sequence(mp, sched)
        assert a.shr == b.shr and a.lcl == b.lcl
        assert [e.pretty() for e in a.rels.events] == [e.pretty() for e in b.rels.events]

    def test_bad_schedule_names_step(self, mp):
        with pytest.raises(ReplayError) as exc:
            run_sequence(mp, ["T1", "sth_f(T1)"])  # f not issued yet
        assert exc.value.step_index == 1

    def test_mp_sequential_schedule_reads_both(self, mp):
        # fully sequential: T1 runs and flushes, then T2 observes everything
        st = run_sequence(mp, ["T1", "T1", "sth_x(T1)", "sth_f(T1)", "T2", "T2"])
        assert st.lcl["T2"] == {"r": 1, "s": 1}


class TestRmw:
    def test_fadd_atomic_flush(self):
        p = parse_program(
            "program a\ninit c = 0\nthread T1:\n  r1 = fadd(c, 5, acq_rel)\n")
        st = ExecState(p).step("T1")
        assert st.shr["c"] == 5          # visible immediately
        assert st.lcl["T1"]["r1"] == 0   # local receives the old value
        assert st.enabled_units() == []  # no shadow queued

    def test_failed_cas_is_plain_read(self):
        p = parse_program(
            "program c\ninit l = 7\nthread T1:\n  r = cas(l, 0, 1, sc)\n")
        st = ExecState(p).step("T1")
        ev = st.rels.events[-1]
        assert ev.act is Act.READ
        assert st.shr["l"] == 7
        assert st.lcl["T1"]["r"] == 7

    def test_successful_cas(self):
        p = parse_program(
            "program c\ninit l = 0\nthread T1:\n  r = cas(l, 0, 9, sc)\n")
        st = ExecState(p).step("T1")
        ev = st.rels.events[-1]
        assert ev.act is Act.RMW
        assert st.shr["l"] == 9
        assert st.lcl["T1"]["r"] == 0


class TestStoreConsistency:
    def test_shared_store_matches_flushes(self, w_rwr):
        # invariant is machine-checked inside step; walk a few interleavings
        st = ExecState(w_rwr)
        for unit in ["T2", "T1", "T2", "sth_x(T2)", "T2", "sth_x(T1)"]:
            st = st.step(unit)
        assert st.shr["x"] == 1  # T1's flush landed last

    def test_branches_follow_locals(self):
        p = parse_program("""
program b
init x = 1, y = 0
thread T1:
  r = load(x, rlx)
  if (r == 1):
    store(y, 10, rlx)
  else:
    store(y, 20, rlx)
""")
        st = run_sequence(p, ["T1", "T1", "sth_y(T1)"])
        assert st.shr["y"] == 10


def mutable_ids(value) -> set[int]:
    """ids of the mutable containers in ``value``, nested ones included;
    tuples, frozensets and events are immutable and are not entered."""
    ids, stack = set(), [value]
    while stack:
        v = stack.pop()
        if isinstance(v, (list, dict, set, deque)):
            ids.add(id(v))
            stack.extend(v.values() if isinstance(v, dict) else v)
    return ids


class TestClone:
    """A field that ``clone`` forgets, or a container it shares, would let
    one exploration branch see another's events."""

    def assert_separate(self, original, clone, fields):
        for name in fields:
            assert hasattr(clone, name), name
            a, b = getattr(original, name), getattr(clone, name)
            assert a == b, name
            assert not mutable_ids(a) & mutable_ids(b), name

    def test_clones_along_explored_paths_share_nothing_mutable(self):
        states = 0
        for name in corpus_names():
            p = corpus_program(name)
            target = early_write_transform(p)
            for t in explore(p).traces:
                st = ExecState(target)
                for unit in [None] + t.schedule:
                    if unit is not None:
                        st = st.step(unit)
                    clone = st.clone()
                    states += 1
                    assert vars(clone).keys() == vars(st).keys()
                    assert clone.program is st.program
                    # the event table is shared, and holds only events
                    assert clone.table is st.table
                    assert all(type(ev) is Event for ev in st.table.values())
                    assert clone.rels is not st.rels
                    self.assert_separate(
                        st, clone,
                        [k for k in vars(st) if k not in ("program", "table", "rels")])
                    # the program's release-class objects are shared, and frozen
                    assert clone.rels.release_objs is st.rels.release_objs
                    self.assert_separate(st.rels, clone.rels, LiveRelations.__slots__)
        assert states > 1000


class TestSequenceSnapshot:
    """``compute_relations`` shares the lists of the ``Sequence`` it reads,
    so ``ExecState.sequence()`` must copy them off the live state."""

    def test_advancing_the_state_changes_neither_sequence_nor_relations(self, mp):
        state = run_sequence(mp, ["T1", "T2"])  # T2 reads f's init; x is pending
        seq = state.sequence()
        rels = compute_relations(seq)

        def fields(obj, names):
            return {name: repr(getattr(obj, name)) for name in names}

        before = fields(seq, Sequence.__slots__), fields(rels, RelationSet.__slots__)
        write_x = next(p for p, e in enumerate(seq.events)
                       if e.thr == "T1" and e.act is Act.WRITE)
        for unit in ["sth_x(T1)", "T1", "sth_f(T1)", "T2"]:
            state.advance(unit)
        # the live state wrote in place what the snapshot holds
        assert seq.flush_pos[write_x] == -1 <= state.rels.flush_pos[write_x]
        assert (fields(seq, Sequence.__slots__), fields(rels, RelationSet.__slots__)) == before
        live = [getattr(state.rels, name) for name in LiveRelations.__slots__]
        assert not mutable_ids([getattr(seq, name) for name in Sequence.__slots__]) \
            & mutable_ids(live)
