from __future__ import annotations

import random

import pytest

from conftest import corpus_names, corpus_program
from oracles import release_sequence_members
from test_properties import random_program_source

from moca_verify import explore, parse_program, run_sequence
from moca_verify.coherence import check_c11_oracle, check_moca, shto_order
from moca_verify.engine import ExecState
from moca_verify.explorer import _Explorer, canonical_trace_id
from moca_verify.ir import Act, ContractViolation, MO, at_least
from moca_verify.engine import Sequence
from moca_verify.relations import (
    RelationSet,
    compute_relations,
    mask_edges,
    position,
    rf_pairs,
    set_bits,
)


def edge_set(rels, masks):
    """A relation stored as per-position source masks, as a set of pairs."""
    return set(mask_edges(rels.events, masks))


def reference_hb_mask(seq, rels):
    """Happens-before by its definition, as position bitmasks: po (same unit,
    smaller index), every init event before every non-init event, and the
    inter-thread closure, i.e. reachability over unit-successor + sw + dob
    edges counting only paths with at least one sync edge.  Returns one mask
    per position."""
    events = seq.events
    succ = {e: [] for e in events}
    by_unit = {}
    for e in events:
        by_unit.setdefault(e.thr, []).append(e)
    for unit_events in by_unit.values():
        unit_events.sort(key=lambda e: e.idx)
        for a, b in zip(unit_events, unit_events[1:]):
            succ[a].append((b, False))
    for a, b in edge_set(rels, rels.sw) | edge_set(rels, rels.dob):
        succ[a].append((b, True))

    mask = {e: 0 for e in events}
    for start in events:
        bit = 1 << position(rels, start)
        reached = set()
        stack = [(start, False)]
        while stack:
            node, sync = stack.pop()
            for nxt, edge_sync in succ[node]:
                st = (nxt, sync or edge_sync)
                if st in reached:
                    continue
                reached.add(st)
                if st[1]:
                    mask[nxt] |= bit
                stack.append(st)
        for b in events:
            po = start.thr == b.thr and start.idx < b.idx
            if po or (start.is_init and not b.is_init):
                mask[b] |= bit
    return [mask[e] for e in events]


def run(program, schedule):
    st = run_sequence(program, schedule)
    seq = st.sequence()
    return st, seq, compute_relations(seq)


def by_key(seq, thr, idx):
    for e in seq.events:
        if e.thr == thr and e.idx == idx:
            return e
    raise KeyError((thr, idx))


def issue_order(seq, obj):
    """The writes of ``obj`` in ``seq``, in issue order."""
    return [e for e in seq.events if e.is_write_like and e.obj_written == obj]


class TestReleaseSequence:
    def test_same_thread_continuation(self):
        p = parse_program(
            "program rs\ninit x = 0\nthread T1:\n  store(x, 1, rel)\n  store(x, 2, rlx)\n")
        _, seq, _ = run(p, ["T1", "T1", "sth_x(T1)", "sth_x(T1)"])
        head = by_key(seq, "T1", 0)
        rs = release_sequence_members(issue_order(seq, "x"), head)
        assert [e.key for e in rs] == [("T1", 0), ("T1", 1)]

    def test_singleton(self):
        p = parse_program("program rs\ninit x = 0\nthread T1:\n  store(x, 1, rel)\n")
        _, seq, _ = run(p, ["T1", "sth_x(T1)"])
        head = by_key(seq, "T1", 0)
        rs = release_sequence_members(issue_order(seq, "x"), head)
        assert [e.key for e in rs] == [("T1", 0)]

    def test_foreign_relaxed_store_cuts(self):
        p = parse_program(
            "program rs\ninit x = 0\nthread T1:\n  store(x, 1, rel)\n  store(x, 2, rlx)\n"
            "thread T2:\n  store(x, 3, rlx)\n")
        # issue order: T1 head, then T2's foreign relaxed store, then T1's own
        _, seq, _ = run(p, ["T1", "T2", "T1",
                            "sth_x(T1)", "sth_x(T2)", "sth_x(T1)"])
        head = by_key(seq, "T1", 0)
        rs = release_sequence_members(issue_order(seq, "x"), head)
        assert [e.key for e in rs] == [("T1", 0)]

    def test_foreign_rmw_continues(self):
        p = parse_program(
            "program rs\ninit x = 0\nthread T1:\n  store(x, 1, rel)\n"
            "thread T2:\n  r = fadd(x, 1, rlx)\n")
        _, seq, _ = run(p, ["T1", "sth_x(T1)", "T2"])
        head = by_key(seq, "T1", 0)
        rs = release_sequence_members(issue_order(seq, "x"), head)
        assert [e.key for e in rs] == [("T1", 0), ("T2", 0)]

    def test_requires_release_class_head(self):
        p = parse_program("program rs\ninit x = 0\nthread T1:\n  store(x, 1, rlx)\n")
        _, seq, _ = run(p, ["T1", "sth_x(T1)"])
        with pytest.raises(ContractViolation):
            release_sequence_members(issue_order(seq, "x"), by_key(seq, "T1", 0))


class TestComputeRelations:
    def test_mp_synchronization(self, mp):
        _, seq, rels = run(mp, ["T1", "T1", "sth_x(T1)", "sth_f(T1)", "T2", "T2"])
        w_x, w_f = by_key(seq, "T1", 0), by_key(seq, "T1", 1)
        r_f, r_x = by_key(seq, "T2", 0), by_key(seq, "T2", 1)
        assert (w_f, r_f) in edge_set(rels, rels.sw)
        assert rels.hb(w_x, r_x)          # po ; sw ; po
        assert rels.mhb(w_x, r_x)         # not a direct synchronization edge
        assert not rels.mhb(w_f, r_f)     # direct sw pairs are excluded

    def test_single_thread_hb_is_po(self):
        p = parse_program(
            "program s\ninit x = 0\nthread T1:\n  store(x, 1, rlx)\n  r = load(x, rlx)\n")
        _, seq, rels = run(p, ["T1", "T1", "sth_x(T1)"])
        assert not any(rels.sw) and not any(rels.dob)
        w, r = by_key(seq, "T1", 0), by_key(seq, "T1", 1)
        assert rels.hb(w, r) and not rels.hb(r, w)

    def test_dob_via_release_sequence(self):
        p = parse_program("""
program d
init x = 0
thread T1:
  store(x, 1, rel)
  store(x, 2, rlx)
thread T2:
  r = load(x, acq)
""")
        # reader takes the relaxed continuation store
        _, seq, rels = run(p, ["T1", "T1", "sth_x(T1)", "sth_x(T1)", "T2"])
        head, cont = by_key(seq, "T1", 0), by_key(seq, "T1", 1)
        r = by_key(seq, "T2", 0)
        assert seq.rf[position(rels, r)] == position(rels, cont)
        assert (head, r) in edge_set(rels, rels.dob)
        assert (cont, r) not in edge_set(rels, rels.sw)   # continuation is not release-class
        assert rels.hb(head, r)

    def test_mo_follows_flush_order(self, w_rwr):
        _, seq, rels = run(w_rwr, ["T1", "sth_x(T1)", "T2", "T2", "T2", "sth_x(T2)"])
        order = [rels.events[w].thr for w in rels.mo["x"]]
        assert order == ["init", "T1", "T2"]

    def test_sc_writes_place_at_flush(self):
        p = parse_program(
            "program sc\ninit x = 0, y = 0\nthread T1:\n  store(x, 1, sc)\n"
            "thread T2:\n  r = load(y, sc)\n")
        # the read executes before the store's flush and nothing orders the
        # two otherwise: the sc order takes them by placement, read first
        _, seq, rels = run(p, ["T1", "T2", "sth_x(T1)"])
        assert [(p, rels.events[at].act) for p, at in rels.sc_placed] == [
            (position(rels, by_key(seq, "T2", 0)), Act.READ),
            (position(rels, by_key(seq, "T1", 0)), Act.SHADOW)]
        order = shto_order(rels)
        assert [rels.events[p].act for p in order] == [Act.READ, Act.WRITE]

    def test_hb_contained_in_sequence_order(self):
        for name in ("mp", "simple-ithb", "ww-rr"):
            p = corpus_program(name)
            from moca_verify import explore
            rep = explore(p)
            from moca_verify.transform import early_write_transform
            target = early_write_transform(p)
            for t in rep.traces:
                st = run_sequence(target, t.schedule)
                seq = st.sequence()
                rels = compute_relations(seq)
                for a in seq.events:
                    assert not rels.hb(a, a)
                    for b in seq.events:
                        if rels.hb(a, b):
                            assert a.is_init or position(rels, a) < position(rels, b)


class TestFenceSynchronization:
    def test_release_fence_before_store(self):
        p = corpus_program("mp-fence-rel")
        _, seq, rels = run(p, ["T1", "T1", "T1", "sth_x(T1)", "sth_f(T1)", "T2", "T2"])
        fence = by_key(seq, "T1", 1)
        r_f = by_key(seq, "T2", 0)
        assert fence.act is Act.FENCE
        assert (fence, r_f) in edge_set(rels, rels.sw)
        assert rels.hb(by_key(seq, "T1", 0), by_key(seq, "T2", 1))

    def test_acquire_fence_after_load(self):
        p = corpus_program("mp-fence-acq")
        _, seq, rels = run(p, ["T1", "T1", "sth_x(T1)", "sth_f(T1)", "T2", "T2", "T2"])
        w_f = by_key(seq, "T1", 1)
        fence = by_key(seq, "T2", 1)
        assert (w_f, fence) in edge_set(rels, rels.sw)
        assert rels.hb(by_key(seq, "T1", 0), by_key(seq, "T2", 2))

    def test_fence_to_fence(self):
        p = corpus_program("mp-fence-both")
        _, seq, rels = run(p, ["T1", "T1", "T1", "sth_x(T1)", "sth_f(T1)",
                               "T2", "T2", "T2"])
        f_rel = by_key(seq, "T1", 1)
        f_acq = by_key(seq, "T2", 1)
        assert (f_rel, f_acq) in edge_set(rels, rels.sw)
        assert rels.hb(by_key(seq, "T1", 0), by_key(seq, "T2", 2))

    def test_fences_never_in_mo_or_rf(self):
        p = corpus_program("sb-fences")
        from moca_verify import explore
        from moca_verify.transform import early_write_transform
        rep = explore(p)
        target = early_write_transform(p)
        for t in rep.traces:
            st = run_sequence(target, t.schedule)
            seq = st.sequence()
            rels = compute_relations(seq)
            for ws in rels.mo.values():
                assert all(rels.events[w].act is not Act.FENCE for w in ws)
            assert all(w.act is not Act.FENCE for _, w in rf_pairs(seq))


class TestLiveMatchesReference:
    def test_hb_and_mhb_agree_on_every_prefix(self):
        for name in ("mp", "simple-ithb", "sb-sc", "store-then-rmw", "wrc-addrs",
                     "mp-fence-acq", "mp-fence-both"):
            p = corpus_program(name)
            from moca_verify import explore
            from moca_verify.transform import early_write_transform
            rep = explore(p)
            target = early_write_transform(p)
            for t in rep.traces[:3]:
                st = ExecState(target)
                for u in t.schedule:
                    st = st.step(u)
                    seq = st.sequence()
                    rels = compute_relations(seq)
                    # every field the rebuild fills, which the live class
                    # inherits, dicts in iteration order
                    for field in RelationSet.__slots__:
                        live, rebuilt = getattr(st.rels, field), getattr(rels, field)
                        if isinstance(live, dict):
                            live, rebuilt = list(live.items()), list(rebuilt.items())
                        assert live == rebuilt, (name, field)
                    n = len(seq.events)
                    assert all(len(getattr(st.rels, field)) == n for field in (
                        "rf", "readers", "flush_pos", "hb_mask", "cd_mask", "sw",
                        "dob", "origin_of", "value_of")), name
                    assert st.rels.origin_of == seq.origin_of, name
                    assert rels.hb_mask == reference_hb_mask(seq, rels), name
                    for a in seq.events:
                        for b in seq.events:
                            if a is b:
                                continue
                            assert st.rels.hb(a, b) == rels.hb(a, b), (name, a, b)
                            assert st.rels.mhb(a, b) == rels.mhb(a, b), (name, a, b)

    def test_live_trace_id_matches_rebuilt(self):
        from moca_verify import explore
        from moca_verify.transform import early_write_transform
        for name in corpus_names():
            p = corpus_program(name)
            target = early_write_transform(p)
            for t in explore(p).traces:
                st = run_sequence(target, t.schedule)
                live = canonical_trace_id(st.rels)
                assert live == canonical_trace_id(compute_relations(st.sequence()))
                assert live == t.trace_id, (name, t.schedule)


class TestScGraph:
    """``shto`` checks that some total order of the placed sc events extends
    their hb, mo, rf and fr edges; ``to`` that one extends hb and mo."""

    def test_order_need_not_follow_placement(self):
        p = parse_program(
            "program scpo\ninit x = 0, y = 0\nthread T1:\n  store(x, 1, sc)\n"
            "  r = load(y, sc)\n")
        # the read is placed before the store it follows in program order
        _, seq, rels = run(p, ["T1", "T1", "sth_x(T1)"])
        w, r = by_key(seq, "T1", 0), by_key(seq, "T1", 1)
        assert [rels.events[p] for p, _ in rels.sc_placed] == [r, w]
        assert check_moca(rels).rules["shto"] is None
        assert check_c11_oracle(rels).rules["to"] is None
        assert [rels.events[p] for p in shto_order(rels)] == [w, r]

    def test_hb_against_mo_is_a_cycle_for_both(self):
        p = parse_program("""
program schbmo
init a = 0, f = 0
thread T1:
  store(a, 1, sc)
  store(f, 1, rel)
thread T2:
  r = load(f, acq)
  store(a, 2, sc)
""")
        # T1's store is hb-before T2's, but flushes after it
        _, seq, rels = run(p, ["T1", "T1", "sth_f(T1)", "T2", "T2",
                               "sth_a(T2)", "sth_a(T1)"])
        w1, w2 = by_key(seq, "T1", 0), by_key(seq, "T2", 1)
        assert rels.hb(w1, w2)
        assert check_moca(rels).rules["shto"] == (w2, w1)
        assert check_c11_oracle(rels).rules["to"] == (w2, w1)
        assert shto_order(rels) is None

    def test_two_plus_two_w_needs_the_closure(self):
        p = parse_program("""
program sc22w
init a = 0, b = 0
thread T1:
  store(a, 2, sc)
  store(b, 1, sc)
thread T2:
  store(b, 2, sc)
  store(a, 1, sc)
""")
        # mo puts T2's a before T1's and T1's b before T2's; with program
        # order that is a cycle of four, and no pair is ordered both ways
        # by a single edge
        _, seq, rels = run(p, ["T1", "T1", "T2", "T2", "sth_a(T2)", "sth_b(T1)",
                               "sth_a(T1)", "sth_b(T2)"])
        wa1, wb1 = by_key(seq, "T2", 1), by_key(seq, "T1", 1)
        assert check_moca(rels).failures == {"shto": (wa1, wb1)}
        assert check_c11_oracle(rels).rules["to"] == (wa1, wb1)
        assert shto_order(rels) is None

    def test_fr_cycle_fails_shto_only(self):
        # both reads read the init values, so each is fr-before the other
        # thread's store, and po closes the cycle; hb and mo alone fit the
        # order T1's store, T1's read, T2's store, T2's read
        _, seq, rels = run(corpus_program("sb-sc"), ["T1", "T2", "T1", "T2", "sth_x(T1)", "sth_y(T2)"])
        r1, r2 = by_key(seq, "T1", 1), by_key(seq, "T2", 1)
        assert check_moca(rels).failures == {"shto": (r1, r2)}
        assert check_c11_oracle(rels).rules["to"] is None
        assert shto_order(rels) is None


class TestHappensBeforeMask:
    def test_backward_sync_edge_is_a_contract_violation(self, mp):
        st = run_sequence(mp, ["T1", "T1", "sth_x(T1)", "sth_f(T1)", "T2", "T2"])
        seq = st.sequence()
        w_f, r_f = by_key(seq, "T1", 1), by_key(seq, "T2", 0)
        # swap the synchronizing pair so the sw edge points backward: every
        # event and every position the sequence holds moves with the swap
        i, j = seq.events.index(w_f), seq.events.index(r_f)
        swap = {i: j, j: i}

        def moved(p):
            return swap.get(p, p) if p >= 0 else p

        def permuted(table):
            out = list(table)
            out[i], out[j] = table[j], table[i]
            return [moved(p) for p in out]

        swapped = Sequence(
            events=[seq.events[swap.get(p, p)] for p in range(len(seq.events))],
            rf=permuted(seq.rf),
            flush_pos=permuted(seq.flush_pos), origin_of=permuted(seq.origin_of),
            init_len=seq.init_len)
        assert dict(rf_pairs(swapped)) == dict(rf_pairs(seq))   # same facts, moved
        with pytest.raises(ContractViolation, match="points backward"):
            compute_relations(swapped)


# ---------------------------------------------------------------------------
# dob by one backward walk per read, against one walk per release head
# ---------------------------------------------------------------------------

def reference_dob(rels):
    """dob by one ``release_sequence_members`` call per release head before
    each acquire read's source."""
    dob = set()
    for r, src in rf_pairs(rels):
        if not at_least(r.ord, MO.ACQ):
            continue
        order = [rels.events[w] for w in set_bits(rels.obj_write_mask[r.obj_read])]
        for head in order:
            if head == src or position(rels, head) > position(rels, src):
                continue
            if at_least(head.ord, MO.REL) and src in release_sequence_members(order, head):
                dob.add((head, r))
    return dob


def assert_dob_matches_reference(program, monkeypatch):
    """Live dob, rebuilt dob and the reference agree on every maximal
    sequence ``explore`` records; returns the number of dob edges seen."""
    edges = 0
    record = _Explorer._record_maximal

    def check(self, state):
        live = state.rels
        reference = reference_dob(live)
        assert edge_set(live, live.dob) == reference, (program.name, state.schedule_so_far())
        rebuilt = compute_relations(state.sequence())
        assert edge_set(rebuilt, rebuilt.dob) == reference
        nonlocal edges
        edges += len(reference)
        record(self, state)

    with monkeypatch.context() as m:
        m.setattr(_Explorer, "_record_maximal", check)
        explore(program)
    return edges


def release_program_source(rng: random.Random) -> str:
    """Two threads of one or two writes of ``x`` (weak and release stores,
    rmws) and maybe an acquire load, and a third thread's acquire load: the
    release sequences that foreign weak stores cut or rmws continue."""
    lines = ["program rs", "init x = 0"]
    for t in (1, 2):
        lines.append(f"thread T{t}:")
        for i in range(rng.randint(1, 2)):
            if rng.random() < 0.25:
                lines.append(f"  f{t}_{i} = fadd(x, 1, {rng.choice(['rlx', 'rel'])})")
            else:
                lines.append(f"  store(x, {t}, {rng.choice(['na', 'rlx', 'rel'])})")
        if rng.random() < 0.5:
            lines.append(f"  r{t} = load(x, acq)")
    lines += ["thread T3:", "  r0 = load(x, acq)"]
    return "\n".join(lines) + "\n"


def test_dob_matches_release_sequence_reference(monkeypatch):
    rng = random.Random(20261018)
    programs = [corpus_program(n) for n in corpus_names()]
    programs += [parse_program(random_program_source(rng)) for _ in range(40)]
    programs += [parse_program(release_program_source(rng)) for _ in range(30)]
    assert sum(assert_dob_matches_reference(p, monkeypatch) for p in programs) > 500


def test_dob_on_a_long_release_sequence(monkeypatch):
    """300 release stores then an acquire load: the load is dob-after every
    earlier store of the thread's release sequence."""
    body = "".join(f"  store(x, {i}, rel)\n" for i in range(300))
    program = parse_program(
        f"program long\ninit x = 0\nthread T1:\n{body}  r = load(x, acq)\n")
    assert assert_dob_matches_reference(program, monkeypatch) == 299
