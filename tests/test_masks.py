"""The mask-based hot paths against their pairwise definitions.

``_rule_shmo1`` and ``_rule_shmo3`` walk happens-before predecessor bits,
``_rule_shto`` and ``shto_order`` search the sc graph by predecessor masks,
``check_c11_oracle`` tests ``mo1``..``mo4`` with one mask per event and
``to`` with a closure over masks, and race detection visits only the events
``conflict_mask`` selects.  The
pairwise scans they replaced are kept here as references and compared,
witnesses included, on every prefix of an unreduced walk.  So are the
lookups ``LiveRelations`` reads off its position masks instead of storing
them (last events, last rmw, sw sources, flush events, next idx), and the
shared store ``ExecState.shr`` reads off the modification order.  The same
walk checks the read resolution that makes ``shco`` hold by construction,
and that ``shmo3`` fails wherever the pairwise ``shmo2`` does (the
``coherence`` docstring).
"""

from __future__ import annotations

import random
from collections import Counter
from functools import partial

import pytest

from conftest import corpus_names, corpus_program
from test_coherence import CORR2
from test_properties import random_program_source

from moca_verify import parse_program
from moca_verify.coherence import (
    _rule_shmo1,
    _rule_shmo3,
    _rule_shto,
    _reads,
    check_c11_oracle,
    check_step,
    flush_before,
    shto_order,
)
from moca_verify.engine import ExecState, run_sequence
from moca_verify.explorer import _estimate_events, conflict_mask, conflicts
from moca_verify.ir import Act, Event, MO, at_least
from moca_verify.relations import compute_relations, position, rf_pairs, set_bits
from moca_verify.transform import early_write_transform


# ---------------------------------------------------------------------------
# Pairwise references
# ---------------------------------------------------------------------------

def reference_shmo1(rels, at=None):
    """Every write against every target: the write is triggered if it is
    mhb-before the target, or one of its readers is, from another thread."""
    events, pos = rels.events, partial(position, rels)

    def triggered(e_w, e):
        if e.thr == e_w.thr:
            return False
        readers = [events[r] for r in positions(rels.readers[pos(e_w)])]
        return rels.mhb(e_w, e) or any(rels.mhb(r, e) for r in readers)

    targets = [e for e in events if not e.is_init] if at is None else [events[at]]
    writes = [e for e in events if e.is_write_like]
    for e in targets:
        for e_w in writes:
            if not triggered(e_w, e):
                continue
            if e.is_write_like:
                if flush_before(rels, pos(e_w), pos(e)) is False:
                    return (e_w, e)
            else:
                f = rels.flush_pos[pos(e_w)]
                if f < 0 or f >= pos(e):
                    return (e_w, e)
    return None


def reference_shmo2(rels, at=None):
    """CoRR: reads ``r1`` hb ``r2`` of one object whose sources flush in
    the opposite order.  Not a rule: ``shmo3`` implies it."""
    events = rels.events
    for r2 in _reads(rels, at):
        src2 = rels.rf[r2]
        for r1 in set_bits(rels.obj_read_mask[events[r2].obj_read]):
            if r1 == r2:
                break
            src1 = rels.rf[r1]
            if src1 == src2 or not rels.hb(events[r1], events[r2]):
                continue
            if flush_before(rels, src1, src2) is False:
                return (events[r1], events[r2])
    return None


def reference_shmo3(rels, at=None):
    events = rels.events
    for r in _reads(rels, at):
        src = rels.rf[r]
        for w1 in set_bits(rels.obj_write_mask.get(events[r].obj_read, 0)):
            if w1 == src or not rels.hb(events[w1], events[r]):
                continue
            if flush_before(rels, w1, src) is False:
                return (events[w1], events[r])
    return None


def reaches(nodes, edge, a, b):
    """Is there a path of one or more ``edge`` steps from ``a`` to ``b``
    through ``nodes``?"""
    seen, stack = set(), [a]
    while stack:
        x = stack.pop()
        for y in nodes:
            if y not in seen and edge(x, y):
                if y is b:
                    return True
                seen.add(y)
                stack.append(y)
    return False


def reference_sc_graph(rels):
    """The placed sc events in placement order and the ``shto`` edge
    between two of them by definition: hb, mo, rf (source to read), or fr
    (read to a write mo-after its source, other than the read itself)."""
    events, pos, rf = rels.events, partial(position, rels), rels.rf
    mo_index = {w: i for ws in rels.mo.values() for i, w in enumerate(ws)}

    def mo(a, b):
        pa, pb = pos(a), pos(b)
        return (a.is_write_like and b.is_write_like
                and a.obj_written == b.obj_written
                and pa in mo_index and pb in mo_index and mo_index[pa] < mo_index[pb])

    def edge(a, b):
        if rels.hb(a, b) or mo(a, b) or rf[pos(b)] == pos(a):
            return True
        src = rf[pos(a)]
        return a is not b and src >= 0 and mo(events[src], b)

    return [events[p] for p, _ in rels.sc_placed], edge


def reference_shto(rels, at=None):
    """The two earliest-placed events of the first cyclic component, found
    by searching every pair; with ``at``, only an sc ``at`` is checked (its
    proper prefixes passed, so every cycle passes through it)."""
    if at is not None and rels.events[at].ord is not MO.SC:
        return None
    nodes, edge = reference_sc_graph(rels)
    cyclic = [a for a in nodes if reaches(nodes, edge, a, a)]
    if not cyclic:
        return None
    a = cyclic[0]
    return a, next(b for b in nodes if b is not a and reaches(nodes, edge, a, b)
                   and reaches(nodes, edge, b, a))


def reference_shto_order(rels):
    """Kahn's algorithm over the graph, taking the earliest-placed root."""
    nodes, edge = reference_sc_graph(rels)
    order, remaining = [], list(nodes)
    while remaining:
        root = next((b for b in remaining
                     if not any(edge(a, b) for a in remaining if a is not b)), None)
        if root is None:
            return None
        remaining.remove(root)
        order.append(position(rels, root))
    return order


RULES = ((_rule_shmo1, reference_shmo1), (_rule_shmo3, reference_shmo3),
         (_rule_shto, reference_shto))


def reference_c11_oracle(rels):
    """Every axiom as an all-pairs scan over ``rels.mo`` as it stands, on
    events."""
    events = rels.events

    def as_events(by_obj):
        return {obj: [events[p] for p in ps] for obj, ps in by_obj.items()}

    mo = as_events(rels.mo)
    mo_index = {obj: {w: i for i, w in enumerate(ws)} for obj, ws in mo.items()}

    def mo_before(a, b):
        obj = a.obj_written
        if obj is None or obj != b.obj_written:
            return False
        index = mo_index.get(obj, {})
        return a in index and b in index and index[a] < index[b]

    hb, rf = rels.hb, dict(rf_pairs(rels))
    issued = as_events({obj: set_bits(ws) for obj, ws in rels.obj_write_mask.items()})
    obj_reads = as_events({obj: set_bits(rs) for obj, rs in rels.obj_read_mask.items()})
    rules = {}
    rules["mo1"] = next(
        ((w1, w2) for ws in issued.values() for w1 in ws for w2 in ws
         if w1 != w2 and hb(w1, w2) and not mo_before(w1, w2)), None)
    rules["mo2"] = next(
        ((r1, r2) for rs in obj_reads.values() for r1 in rs for r2 in rs
         if r1 != r2 and hb(r1, r2)
         and rf[r1] != rf[r2] and not mo_before(rf[r1], rf[r2])), None)
    rules["mo3"] = next(
        ((r1, w1) for obj, rs in obj_reads.items() for r1 in rs
         for w1 in issued.get(obj, ())
         if hb(r1, w1) and not mo_before(rf[r1], w1)), None)
    rules["mo4"] = next(
        ((w1, r1) for obj, rs in obj_reads.items() for r1 in rs
         for w1 in issued.get(obj, ())
         if hb(w1, r1) and rf[r1] != w1 and not mo_before(w1, rf[r1])), None)
    # the first pair, in placement order, with a path of hb and mo edges
    # each way
    sc = [events[p] for p, _ in rels.sc_placed]

    def hb_or_mo(a, b):
        return hb(a, b) or mo_before(a, b)

    rules["to"] = next(
        ((a, b) for i, a in enumerate(sc) for b in sc[i + 1:]
         if reaches(sc, hb_or_mo, a, b) and reaches(sc, hb_or_mo, b, a)), None)
    rules["co"] = None
    for r in (e for e in events if e.is_read_like):
        w = rf.get(r)
        if w is None or hb(r, w):
            rules["co"] = (r,) if w is None else (r, w)
            break
    return rules


def reference_conflict_positions(rels, p):
    """Brute force: every earlier non-init event that conflicts with the
    event at ``p``."""
    events = rels.events
    return {d for d in range(rels.init_len, p)
            if conflicts(events[d], events[p], rels.release_objs)}


def positions(mask):
    return {p for p in range(mask.bit_length()) if mask >> p & 1}


# ---------------------------------------------------------------------------
# The walk
# ---------------------------------------------------------------------------

def walk_programs():
    """Corpus programs of at most 8 estimated events, the ``corr2`` shape,
    and 40 random programs."""
    rng = random.Random(20261019)
    programs = [corpus_program(n) for n in corpus_names()]
    programs = [p for p in programs
                if _estimate_events(early_write_transform(p)) <= 8]
    programs.append(parse_program(CORR2))
    programs += [parse_program(random_program_source(rng)) for _ in range(40)]
    return programs


def unreduced_children(program, limit=1500, prune=True):
    """Every child of every coherent prefix (of every prefix, unless
    ``prune``), depth first, at most ``limit``, as ``(parent, child)``."""
    stack = [ExecState(early_write_transform(program))]
    n = 0
    while stack and n < limit:
        st = stack.pop()
        for unit in st.enabled_units():
            child = st.step(unit)
            n += 1
            yield st, child
            if not prune or check_step(child.rels) is None:
                stack.append(child)


def test_masks_match_pairwise_references():
    failed = set()
    children = 0
    for program in walk_programs():
        for _, child in unreduced_children(program):
            children += 1
            live = child.rels
            new = len(live.events) - 1
            act = live.events[new].act
            where = (program.name, child.schedule_so_far())
            rebuilt = compute_relations(child.sequence())
            at = live.origin_of[new] if act is Act.SHADOW else new
            for rule, reference in RULES:
                assert rule(live) == reference(live), where
                assert rule(rebuilt) == reference(rebuilt), where
                if act is not Act.WRITE:
                    assert rule(live, at) == reference(live, at), where

            assert positions(conflict_mask(live, new)) == \
                reference_conflict_positions(live, new), where

            for rels in (live, rebuilt):
                assert shto_order(rels) == reference_shto_order(rels), where
                assert check_c11_oracle(rels).rules == reference_c11_oracle(rels), where
            if _rule_shto(live) is not None:
                failed.add("shto")
            # an inverted modification order makes every axiom fail somewhere
            rebuilt.mo = {obj: ws[::-1] for obj, ws in rebuilt.mo.items()}
            rules = check_c11_oracle(rebuilt).rules
            assert rules == reference_c11_oracle(rebuilt), where
            failed.update(axiom for axiom, w in rules.items() if w is not None)
    assert children > 10_000
    assert {"mo1", "mo2", "mo3", "mo4", "to", "shto"} <= failed


# Per axiom, two violating pairs that the two scan orders take in turn:
# ``mo1``..``mo3`` scan the pair's first event first, ``mo4`` the read.  A
# case is a source, a schedule, the modification order imposed on its
# relations (by write event) and the witness of the pairwise scan.
SCAN_ORDER_CASES = [
    ("mo1", "init y = 0\nthread T1:\n  store(y, 1, rlx)\n  store(y, 2, rlx)\n"
            "thread T2:\n  store(y, 3, rlx)\n  store(y, 4, rlx)\n",
     ["T1", "T2", "T2", "T1"],
     ["init#0:write(y)na", "T2#1:write(y)rlx", "T2#0:write(y)rlx",
      "T1#1:write(y)rlx", "T1#0:write(y)rlx"],
     ["T1#0:write(y)rlx", "T1#1:write(y)rlx"]),
    ("mo2", "init u = 0\nthread T1:\n  a = load(u, rlx)\n  b = load(u, rlx)\n"
            "thread T2:\n  c = load(u, rlx)\n  d = load(u, rlx)\n"
            "thread T3:\n  store(u, 1, rlx)\n",
     ["T1", "T2", "T3", "sth_u(T3)", "T2", "T1"],
     ["T3#0:write(u)rlx", "init#0:write(u)na"],
     ["T1#0:read(u)rlx", "T1#1:read(u)rlx"]),
    ("mo3", "init z = 0\nthread T1:\n  a = load(z, rlx)\n  store(z, 1, rlx)\n"
            "thread T2:\n  b = load(z, rlx)\n  store(z, 2, rlx)\n",
     ["T1", "T2", "T2", "T1"],
     ["T2#1:write(z)rlx", "T1#1:write(z)rlx", "init#0:write(z)na"],
     ["T1#0:read(z)rlx", "T1#1:write(z)rlx"]),
    ("mo4", "init x = 0\nthread T1:\n  store(x, 1, rlx)\n  r = load(x, rlx)\n"
            "thread T2:\n  store(x, 2, rlx)\n  s = load(x, rlx)\n"
            "thread T3:\n  store(x, 3, rlx)\n",
     ["T1", "T2", "sth_x(T2)", "sth_x(T1)", "T2", "T3", "sth_x(T3)", "T1"],
     ["init#0:write(x)na", "T3#0:write(x)rlx", "T1#0:write(x)rlx", "T2#0:write(x)rlx"],
     ["T2#0:write(x)rlx", "T2#1:read(x)rlx"]),
]


@pytest.mark.parametrize("axiom,source,schedule,mo,witness", SCAN_ORDER_CASES)
def test_c11_witness_is_the_pairwise_scans_first(axiom, source, schedule, mo, witness):
    program = parse_program(f"program {axiom}\n{source}")
    rels = compute_relations(run_sequence(program, schedule).sequence())
    pos = {e.pretty(): p for p, e in enumerate(rels.events)}
    obj = rels.events[pos[mo[0]]].obj_written
    rels.mo = {**rels.mo, obj: [pos[w] for w in mo]}
    rules = check_c11_oracle(rels).rules
    assert rules == reference_c11_oracle(rels)
    assert [e.pretty() for e in rules[axiom]] == witness


def reference_lookups(st):
    """Each mask-derived lookup of ``st.rels``, named, next to a scan of its
    events, as positions (-1 for none) or position sets: ``(name, derived,
    scanned, shown)``, where ``shown`` says the scan found more than an
    empty default or an init event."""
    rels = st.rels
    events = rels.events
    init_len = rels.init_len
    out = []
    for unit in {e.thr for e in events}:
        own = [p for p, e in enumerate(events) if e.thr == unit]
        out.append(("last_of_unit", rels.last_of_unit(unit), own[-1],
                    own[-1] >= init_len))
        for obj in rels.obj_write_mask:
            writes = [p for p in own
                      if events[p].is_write_like and events[p].obj_written == obj]
            last = writes[-1] if writes else -1
            out.append(("last_write", rels.last_obj_write_of_thread(unit, obj), last,
                        last >= init_len))
    for obj in rels.obj_write_mask:
        rmws = [p for p, e in enumerate(events) if e.act is Act.RMW and e.obj_written == obj]
        init = next(p for p, e in enumerate(events)
                    if e.is_init and e.act is Act.WRITE and e.obj_written == obj)
        out.append(("last_rmw", rels.last_rmw(obj), rmws[-1] if rmws else init,
                    bool(rmws)))
    for w, ew in enumerate(events):
        if not ew.is_write_like:
            continue
        fences = {p for p, f in enumerate(events[:w])
                  if f.thr == ew.thr and f.act is Act.FENCE and at_least(f.ord, MO.REL)}
        release = {w} if at_least(ew.ord, MO.REL) else set()
        derived = positions(rels.sw_sources(w))
        out.append(("sw_sources", derived, fences | release, bool(fences | release)))
        out.append(("release_fences", derived - {w}, fences, bool(fences)))
    for w, p in enumerate(rels.flush_pos):
        if p < 0:
            continue
        flush = w if events[w].act is Act.RMW else next(
            x for x in range(len(events)) if rels.origin_of[x] == w)
        out.append(("flush_event", p, flush, flush >= init_len))
    for unit in st.enabled_units():
        n = sum(1 for e in events if e.thr == unit)
        out.append(("next_idx", st.step(unit).rels.events[-1].idx, n, n > 0))
    return out


def test_derived_lookups_match_event_scans():
    children = 0
    shown = set()   # lookups seen to return more than their empty default
    for program in walk_programs():
        for _, child in unreduced_children(program):
            children += 1
            where = (program.name, child.schedule_so_far())
            for name, derived, scanned, nontrivial in reference_lookups(child):
                assert derived == scanned, (name,) + where
                if nontrivial:
                    shown.add(name)
    assert children > 10_000
    assert shown == {"last_of_unit", "last_write", "last_rmw", "sw_sources",
                     "release_fences", "flush_event", "next_idx"}


def test_position_is_the_units_idx_th_event():
    """``position`` reads an event's position off its unit's mask, which
    holds because a unit's k-th event has ``idx`` k: on live and rebuilt
    relations, for every event.  An event the sequence does not hold, the
    next one or one with another identity, is a ``KeyError``."""
    children = 0
    stranger = Event(thr="T1", act=Act.READ, obj=("no-such-object",), ord=MO.SC, idx=0)
    for program in walk_programs():
        for parent, child in unreduced_children(program):
            children += 1
            where = (program.name, child.schedule_so_far())
            for rels in (child.rels, compute_relations(child.sequence())):
                for p, e in enumerate(rels.events):
                    assert position(rels, e) == p, where
                with pytest.raises(KeyError):
                    position(rels, stranger)
            with pytest.raises(KeyError):
                position(parent.rels, child.rels.events[-1])
    assert children > 10_000


def test_read_resolution_places_every_source_before_its_read():
    """``shco``'s property on the engine: every read-like event's source is
    before it and not hb-after it, a foreign source has flushed before it,
    and an own-thread source is the one ``resolve_rf`` gives."""
    seen = {"own": 0, "foreign": 0, "rmw": 0}
    for program in walk_programs():
        for parent, child in unreduced_children(program):
            rels = child.rels
            r = len(rels.events) - 1
            e = rels.events[r]
            if not e.is_read_like:
                continue
            where = (program.name, child.schedule_so_far())
            src = rels.rf[r]
            assert 0 <= src < r and not rels.hb_mask[src] >> r & 1, where
            if rels.events[src].thr != e.thr:
                assert 0 <= rels.flush_pos[src] < r, where
                seen["foreign"] += 1
            else:
                assert src == parent.resolve_rf(e.thr, e.obj_read), where
                seen["own"] += 1
            seen["rmw"] += e.act is Act.RMW
    assert min(seen.values()) > 100, seen


def test_shmo3_fails_wherever_shmo2_does():
    """The ``coherence`` docstring's proof, on every child of the unreduced
    walk and, for more failing instances, of the unpruned one (the proof
    uses only read resolution): a failing ``shmo2`` instance comes with a
    failing ``shmo3`` one, at the step that decides it and post hoc, on
    live and rebuilt relations."""
    failing = Counter()     # (prune, "step" or "post hoc") -> shmo2 failures
    for prune in (True, False):
        for program in walk_programs():
            for _, child in unreduced_children(program, prune=prune):
                live = child.rels
                new = len(live.events) - 1
                act = live.events[new].act
                where = (program.name, child.schedule_so_far())
                if act is not Act.WRITE:
                    at = live.origin_of[new] if act is Act.SHADOW else new
                    if reference_shmo2(live, at) is not None:
                        assert _rule_shmo3(live, at) is not None, where
                        failing[prune, "step"] += 1
                if reference_shmo2(live) is not None:
                    assert _rule_shmo3(live) is not None, where
                    rebuilt = compute_relations(child.sequence())
                    assert reference_shmo2(rebuilt) is not None, where
                    assert _rule_shmo3(rebuilt) is not None, where
                    failing[prune, "post hoc"] += 1
    assert len(failing) == 4 and sum(failing.values()) > 100, failing


def reference_store(program, rels):
    """The shared store replayed from the events: the initial values,
    overwritten in position order by each shadow-write's write value and
    each rmw's value."""
    store = dict(program.objects)
    for p, e in enumerate(rels.events):
        if e.act is Act.SHADOW:
            store[e.obj[0]] = rels.value_of[rels.origin_of[p]]
        elif e.act is Act.RMW:
            store[e.obj_written] = rels.value_of[p]
    return store


def test_shared_store_matches_event_replay():
    updates = 0
    for program in walk_programs():
        for _, child in unreduced_children(program):
            where = (program.name, child.schedule_so_far())
            expect = reference_store(child.program, child.rels)
            assert list(child.shr.items()) == list(expect.items()), where
            updates += child.rels.events[-1].act in (Act.SHADOW, Act.RMW)
    assert updates > 1000, updates
