"""The mask-based hot paths against their pairwise definitions.

``_rule_shmo1``..``_rule_shmo3`` walk happens-before predecessor bits,
``check_c11_oracle`` tests ``mo1``..``mo4`` with one mask per event, and
race detection visits only the events ``conflict_mask`` selects.  The
pairwise scans they replaced are kept here as references and compared,
witnesses included, on every prefix of an unreduced walk.  So are the
lookups ``LiveRelations`` reads off its position masks instead of storing
them (last events, last rmw, sw sources, flush events, next idx).
"""

from __future__ import annotations

import random

from conftest import corpus_names, corpus_program
from test_coherence import CORR2
from test_properties import random_program_source

from moca_verify import parse_program
from moca_verify.coherence import (
    _rule_shmo1,
    _rule_shmo2,
    _rule_shmo3,
    _reads,
    check_c11_oracle,
    check_step,
    flush_before,
)
from moca_verify.engine import initial_state
from moca_verify.explorer import _estimate_events, conflict_mask, conflicts
from moca_verify.ir import Act, MO, at_least
from moca_verify.relations import compute_relations, sc_order, sc_pairs
from moca_verify.transform import early_write_transform


# ---------------------------------------------------------------------------
# Pairwise references
# ---------------------------------------------------------------------------

def reference_shmo1(rels, at=None):
    """Every write against every target: the write is triggered if it is
    mhb-before the target, or one of its readers is, from another thread."""
    def triggered(e_w, e):
        if e.thr == e_w.thr:
            return False
        return rels.mhb(e_w, e) or any(rels.mhb(r, e) for r in rels.readers.get(e_w, ()))

    targets = [e for e in rels.events if not e.is_init] if at is None else [at]
    writes = [e for e in rels.events if e.is_write_like]
    for e in targets:
        for e_w in writes:
            if not triggered(e_w, e):
                continue
            if e.is_write_like:
                if flush_before(rels, e_w, e) is False:
                    return (e_w, e)
            else:
                f = rels.flush_pos.get(e_w)
                if f is None or f >= rels.pos[e]:
                    return (e_w, e)
    return None


def reference_shmo2(rels, at=None):
    for r2 in _reads(rels, at):
        src2 = rels.rf[r2]
        for r1 in rels.obj_reads[r2.obj_read]:
            if r1 is r2:
                break
            src1 = rels.rf[r1]
            if src1 == src2 or not rels.hb(r1, r2):
                continue
            if flush_before(rels, src1, src2) is False:
                return (r1, r2)
    return None


def reference_shmo3(rels, at=None):
    for r in _reads(rels, at):
        src = rels.rf[r]
        for w1 in rels.obj_issue_order.get(r.obj_read, ()):
            if w1 == src or not rels.hb(w1, r):
                continue
            if flush_before(rels, w1, src) is False:
                return (w1, r)
    return None


RULES = ((_rule_shmo1, reference_shmo1), (_rule_shmo2, reference_shmo2),
         (_rule_shmo3, reference_shmo3))


def reference_c11_oracle(rels):
    """Every axiom as an all-pairs scan over ``rels.mo`` as it stands."""
    mo_index = {obj: {w: i for i, w in enumerate(ws)} for obj, ws in rels.mo.items()}

    def mo_before(a, b):
        obj = a.obj_written
        if obj is None or obj != b.obj_written:
            return False
        index = mo_index.get(obj, {})
        return a in index and b in index and index[a] < index[b]

    hb, rf = rels.hb, rels.rf
    issued = rels.obj_issue_order
    rules = {}
    rules["mo1"] = next(
        ((w1, w2) for ws in issued.values() for w1 in ws for w2 in ws
         if w1 != w2 and hb(w1, w2) and not mo_before(w1, w2)), None)
    rules["mo2"] = next(
        ((r1, r2) for rs in rels.obj_reads.values() for r1 in rs for r2 in rs
         if r1 != r2 and hb(r1, r2)
         and rf[r1] != rf[r2] and not mo_before(rf[r1], rf[r2])), None)
    rules["mo3"] = next(
        ((r1, w1) for obj, rs in rels.obj_reads.items() for r1 in rs
         for w1 in issued.get(obj, ())
         if hb(r1, w1) and not mo_before(rf[r1], w1)), None)
    rules["mo4"] = next(
        ((w1, r1) for obj, rs in rels.obj_reads.items() for r1 in rs
         for w1 in issued.get(obj, ())
         if hb(w1, r1) and rf[r1] != w1 and not mo_before(w1, rf[r1])), None)
    _, cycle = sc_order(rels.sc_placed)
    rules["to"] = cycle if cycle is not None else next(
        ((a, b) for a, b in sc_pairs(rels.sc_placed)
         if hb(b, a) or mo_before(b, a)), None)
    rules["co"] = None
    for r in (e for e in rels.events if e.is_read_like):
        w = rf.get(r)
        if w is None or hb(r, w):
            rules["co"] = (r,) if w is None else (r, w)
            break
    return rules


def reference_conflict_positions(rels, e):
    """Brute force: every earlier non-init event that conflicts with ``e``."""
    return {rels.pos[d] for d in rels.events[rels.init_len:rels.pos[e]]
            if conflicts(d, e, rels.release_objs)}


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


def unreduced_children(program, limit=1500):
    """Every child of every coherent prefix, depth first, at most ``limit``."""
    stack = [initial_state(early_write_transform(program))]
    n = 0
    while stack and n < limit:
        st = stack.pop()
        for unit in st.enabled_units():
            child = st.step(unit)
            n += 1
            yield child
            if check_step(child.rels) is None:
                stack.append(child)


def test_masks_match_pairwise_references():
    failed = set()
    children = 0
    for program in walk_programs():
        for child in unreduced_children(program):
            children += 1
            live = child.rels
            new = live.events[-1]
            where = (program.name, child.schedule_so_far())
            rebuilt = compute_relations(child.sequence())
            at = live.origin_of[new] if new.act is Act.SHADOW else new
            for rule, reference in RULES:
                assert rule(live) == reference(live), where
                assert rule(rebuilt) == reference(rebuilt), where
                if new.act is not Act.WRITE:
                    assert rule(live, at) == reference(live, at), where

            assert positions(conflict_mask(live, new)) == \
                reference_conflict_positions(live, new), where

            for rels in (live, rebuilt):
                assert check_c11_oracle(rels).rules == reference_c11_oracle(rels), where
            # an inverted modification order makes every axiom fail somewhere
            rebuilt.mo = {obj: ws[::-1] for obj, ws in rebuilt.mo.items()}
            rules = check_c11_oracle(rebuilt).rules
            assert rules == reference_c11_oracle(rebuilt), where
            failed.update(axiom for axiom, w in rules.items() if w is not None)
    assert children > 10_000
    assert {"mo1", "mo2", "mo3", "mo4", "to"} <= failed


def reference_lookups(st):
    """Each mask-derived lookup of ``st.rels``, named, next to a scan of its
    events: ``(name, derived, scanned)``."""
    rels = st.rels
    events = rels.events
    out = []
    for unit in {e.thr for e in events}:
        own = [e for e in events if e.thr == unit]
        out.append(("last_of_unit", rels.last_of_unit(unit), own[-1]))
        for obj in rels.obj_issue_order:
            writes = [e for e in own if e.is_write_like and e.obj_written == obj]
            out.append(("last_write", rels.last_obj_write_of_thread(unit, obj),
                        writes[-1] if writes else None))
    for obj in rels.obj_issue_order:
        rmws = [e for e in events if e.act is Act.RMW and e.obj_written == obj]
        init = next(e for e in events
                    if e.is_init and e.act is Act.WRITE and e.obj_written == obj)
        out.append(("last_rmw", rels.last_rmw(obj), rmws[-1] if rmws else init))
    for w in (e for e in events if e.is_write_like):
        fences = [f for f in events[:rels.pos[w]]
                  if f.thr == w.thr and f.act is Act.FENCE and at_least(f.ord, MO.REL)]
        release = [w] if at_least(w.ord, MO.REL) else []
        out.append(("sw_sources", rels.sw_sources(w), fences + release))
        out.append(("release_fences", rels.sw_sources(w)[:len(fences)], fences))
    for w, p in rels.flush_pos.items():
        flush = w if w.act is Act.RMW else next(
            e for e in events if rels.origin_of.get(e) == w)
        out.append(("flush_event", events[p], flush))
    for unit in st.enabled_units():
        out.append(("next_idx", st.peek(unit).event.idx,
                    sum(1 for e in events if e.thr == unit)))
    return out


def test_derived_lookups_match_event_scans():
    children = 0
    shown = set()   # lookups seen to return more than their empty default
    for program in walk_programs():
        for child in unreduced_children(program):
            children += 1
            where = (program.name, child.schedule_so_far())
            for name, derived, scanned in reference_lookups(child):
                assert derived == scanned, (name,) + where
                if scanned and not getattr(scanned, "is_init", False):
                    shown.add(name)
    assert children > 10_000
    assert shown == {"last_of_unit", "last_write", "last_rmw", "sw_sources",
                     "release_fences", "flush_event", "next_idx"}
