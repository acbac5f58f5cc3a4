"""Coherence checking for executed sequences.

Two rule families are implemented:

* the shadow-order rules (``shco``, ``shmo1``..``shmo3``, ``shrmo``,
  ``shto``) that decide which interleavings the explorer may keep, and
* the classic per-location coherence axioms (``mo1``..``mo4``, ``to``, ``co``)
  evaluated over (hb, rf, mo, to) as a post-hoc validation oracle.

The shadow-order rules read a relations object directly: either the engine's
``LiveRelations`` or a ``RelationSet`` rebuilt by ``compute_relations``; the
two expose the same field names.  Reads are visited in ``rf`` insertion order
and writes in sequence order, so both give the same first witness.

The base rule ``shmo`` (the modification order of each object is the order
of its shared-store updates) holds by construction and has no check: ``mo``
*is* the flush order, in both relation implementations.

Rules are evaluated with three-valued semantics so they apply to prefixes:
an ordering constraint between two shadow-writes that are both still pending
in different queues is *unknown* and passes; once one side flushes the
constraint resolves and can fail.  On a maximal sequence nothing is pending,
so the prefix evaluation coincides with the full quantified check; the
post-hoc checker is the reference the incremental filter is tested against.

Each rule is written once as ``_rule_X(rels, at=None)``.  With ``at=None``
it checks every instance; that is ``check_moca``, the post-hoc check of a
maximal sequence.  With an event ``at`` it checks only the instances ``at``
decides; that is ``check_step``, the explorer's per-step filter, which
passes the newly appended event, or the write a shadow-write flushes (a
write issue decides nothing).  It is called only on a prefix whose every
proper prefix passed, and happens-before, reads-from and earlier flush
positions are stable under extension, so every failing instance involves
``at``, and the first one is the one a full scan would report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from .ir import Act, Event, MO
from .relations import LiveRelations, Relations, sc_order, sc_pairs

Witness = tuple[Event, ...]


@dataclass
class CoherenceVerdict:
    rules: dict[str, Optional[Witness]] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(w is None for w in self.rules.values())

    @property
    def failures(self) -> dict[str, Witness]:
        return {r: w for r, w in self.rules.items() if w is not None}


def flush_before(rels: Relations, a: Event, b: Event) -> Optional[bool]:
    """Does a's shared-store update occur before b's?  None if undecided."""
    fa, fb = rels.flush_pos.get(a), rels.flush_pos.get(b)
    if fa is not None and fb is not None:
        return fa < fb
    if fa is not None:
        return True
    if fb is not None:
        return False
    if a.thr == b.thr and a.obj_written == b.obj_written:
        return rels.pos[a] < rels.pos[b]  # per-queue FIFO
    return None


# ---------------------------------------------------------------------------
# Shadow-order rules
# ---------------------------------------------------------------------------

def _rule_shco(rels: Relations, at: Optional[Event] = None) -> Optional[Witness]:
    for r in rels.rf if at is None else (at,):
        if not r.is_read_like:
            continue
        src = rels.rf[r]
        if rels.pos[src] >= rels.pos[r] or rels.hb(r, src):
            return (r, src)
        if src.thr != r.thr:
            f = rels.flush_pos.get(src)
            if f is None or f >= rels.pos[r]:
                return (r, src)
    return None


def _shmo1_triggered(rels: Relations, e_w: Event, e: Event, hb_e: int) -> bool:
    """``hb_e`` is ``rels.hb_mask[e]``; its bit test rules out most pairs
    before ``mhb`` is asked (an hb predecessor also precedes in sequence)."""
    if e.thr == e_w.thr:
        return False
    pos = rels.pos
    if hb_e >> pos[e_w] & 1 and rels.mhb(e_w, e):
        return True
    return any(hb_e >> pos[r] & 1 and rels.mhb(r, e)
               for r in rels.readers.get(e_w, ()))


def _rule_shmo1(rels: Relations, at: Optional[Event] = None) -> Optional[Witness]:
    targets = [e for e in rels.events if not e.is_init] if at is None else [at]
    writes = [e for e in rels.events if e.is_write_like]
    for e in targets:
        hb_e = rels.hb_mask[e]
        for e_w in writes:
            if not _shmo1_triggered(rels, e_w, e, hb_e):
                continue
            if e.is_write_like:
                if flush_before(rels, e_w, e) is False:
                    return (e_w, e)
            else:
                f = rels.flush_pos.get(e_w)
                if f is None or f >= rels.pos[e]:
                    return (e_w, e)
    return None


def _reads(rels: Relations, at: Optional[Event]) -> Iterable[Event]:
    """The reads whose ``shmo2``/``shmo3`` instances ``at`` decides: its own
    read, or the reads of the write it flushes; every read, by object, for
    ``None``."""
    if at is None:
        return (r for rs in rels.obj_reads.values() for r in rs)
    return (at,) if at.is_read_like else rels.readers.get(at, ())


def _rule_shmo2(rels: Relations, at: Optional[Event] = None) -> Optional[Witness]:
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


def _rule_shmo3(rels: Relations, at: Optional[Event] = None) -> Optional[Witness]:
    for r in _reads(rels, at):
        src = rels.rf[r]
        for w1 in rels.obj_issue_order.get(r.obj_read, ()):
            if w1 == src or not rels.hb(w1, r):
                continue
            if flush_before(rels, w1, src) is False:
                return (w1, r)
    return None


def _rule_shrmo(rels: Relations, at: Optional[Event] = None) -> Optional[Witness]:
    for e in rels.events if at is None else (at,):
        if e.act is not Act.RMW:
            continue
        src = rels.rf[e]
        order = rels.mo[e.obj_read]
        i = order.index(e)
        if i == 0 or order[i - 1] != src:
            return (e, src)
    return None


def _rule_shto(rels: Relations, at: Optional[Event] = None) -> Optional[Witness]:
    if at is not None and at.ord is not MO.SC:
        return None
    _, cycle = sc_order(rels.sc_placed)
    if cycle is not None:
        return cycle
    for a, b in sc_pairs(rels.sc_placed):
        if at is not None and at not in (a, b):
            continue
        if rels.hb(b, a):
            return (a, b)
        if (a.is_write_like and b.is_write_like
                and a.obj_written == b.obj_written
                and flush_before(rels, b, a) is True):
            return (a, b)
    return None


# in report order; ``check_step`` reports the first failure in this order
_RULES = (("shco", _rule_shco), ("shmo1", _rule_shmo1), ("shmo2", _rule_shmo2),
          ("shmo3", _rule_shmo3), ("shrmo", _rule_shrmo), ("shto", _rule_shto))


def check_moca(rels: Relations) -> CoherenceVerdict:
    """Evaluate every shadow-order rule on a (possibly partial) sequence."""
    return CoherenceVerdict({name: rule(rels) for name, rule in _RULES})


def check_step(rels: LiveRelations) -> Optional[tuple[str, Witness]]:
    """Judge the rule instances decided by the newly appended event.

    Must be called on relation state whose every proper prefix already
    passed; returns the first violated rule with its witness, or None.
    """
    new = rels.events[-1]
    if new.act is Act.WRITE:
        return None
    at = rels.origin_of[new] if new.act is Act.SHADOW else new
    for name, rule in _RULES:
        w = rule(rels, at)
        if w is not None:
            return (name, w)
    return None


def overdue_write(rels: Relations, rule: str, witness: Witness) -> Optional[Event]:
    """The write whose pending shared-store update a failure of ``rule``
    blames, or None: flushing it is the direct repair."""
    if rule in ("shmo1", "shmo3"):
        w = witness[0]
    elif rule == "shmo2":
        w = rels.rf[witness[0]]
    elif rule == "shrmo":
        w = witness[1]
    else:
        return None
    return None if w in rels.flush_pos else w


# ---------------------------------------------------------------------------
# Per-location coherence oracle
# ---------------------------------------------------------------------------

def check_c11_oracle(rels: Relations) -> CoherenceVerdict:
    """Validate (hb, rf, mo, to) against the per-location coherence axioms
    and the sc total-order axiom; violations are verdicts, not exceptions.
    Each axiom reports its first violating pair, in scan order."""
    # positions in ``rels.mo`` as it stands, so a query costs O(1)
    mo_index = {obj: {w: i for i, w in enumerate(ws)} for obj, ws in rels.mo.items()}

    def mo_before(a: Event, b: Event) -> bool:
        obj = a.obj_written
        if obj is None or obj != b.obj_written:
            return False
        index = mo_index.get(obj, {})
        return a in index and b in index and index[a] < index[b]

    hb, rf = rels.hb, rels.rf
    issued = rels.obj_issue_order
    verdict = CoherenceVerdict()
    verdict.rules["mo1"] = next(
        ((w1, w2) for ws in issued.values() for w1 in ws for w2 in ws
         if w1 != w2 and hb(w1, w2) and not mo_before(w1, w2)), None)
    verdict.rules["mo2"] = next(
        ((r1, r2) for rs in rels.obj_reads.values() for r1 in rs for r2 in rs
         if r1 != r2 and hb(r1, r2)
         and rf[r1] != rf[r2] and not mo_before(rf[r1], rf[r2])), None)
    verdict.rules["mo3"] = next(
        ((r1, w1) for obj, rs in rels.obj_reads.items() for r1 in rs
         for w1 in issued.get(obj, ())
         if hb(r1, w1) and not mo_before(rf[r1], w1)), None)
    verdict.rules["mo4"] = next(
        ((w1, r1) for obj, rs in rels.obj_reads.items() for r1 in rs
         for w1 in issued.get(obj, ())
         if hb(w1, r1) and rf[r1] != w1 and not mo_before(w1, rf[r1])), None)

    _, cycle = sc_order(rels.sc_placed)
    verdict.rules["to"] = cycle if cycle is not None else next(
        ((a, b) for a, b in sc_pairs(rels.sc_placed)
         if hb(b, a) or mo_before(b, a)), None)

    verdict.rules["co"] = None
    for r in (e for e in rels.events if e.is_read_like):
        w = rf.get(r)
        if w is None or hb(r, w):
            verdict.rules["co"] = (r,) if w is None else (r, w)
            break
    return verdict
