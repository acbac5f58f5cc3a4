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

The rules quantify over happens-before predecessors by walking the set bits
of ``hb_mask``, intersected with a position mask where one applies:
``shmo1`` walks each target's predecessors outside its own unit and the init
prefix, ``shmo2``/``shmo3`` those among the read's object's reads/writes.
Set bits come in position order, so the first witness is the one a scan of
events in sequence order finds.

Each rule is written once as ``_rule_X(rels, at=None)``.  With ``at=None``
it checks every instance; that is ``check_moca``, the post-hoc check of a
maximal sequence.  With an event ``at`` it checks only the instances ``at``
decides; that is ``check_step``, the explorer's per-step filter, which
passes the newly appended event, or the write a shadow-write flushes (a
write issue decides nothing).  It is called only on a prefix whose every
proper prefix passed, and happens-before, reads-from and earlier flush
positions are stable under extension, so every failing instance involves
``at``, and the first one is the one a full scan would report.

A flush step cannot check only ``shto``: in ``T1: store(b,1,rel);
r0 = load(b,acq) / T2: store(b,2,rel)`` after ``T2 T1 T1``, T1's read takes
its own pending write and T2's write is dob-before it, and ``shco`` places
only foreign sources' flushes, so only the flush ``sth_b(T1)`` decides (and
fails) that ``shmo3`` instance.  Hence both relation classes keep ``readers``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from .ir import Act, Event, MO
from .relations import LiveRelations, Relations, sc_order, sc_pairs, set_bits

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


def _shmo1_triggered(rels: Relations, e: Event) -> int:
    """Positions of the writes whose flush ``e`` must follow: the write-like
    mhb-predecessors of ``e`` and the sources of its read-like ones, read
    off the set bits of ``hb_mask[e]`` (``mhb`` drops the direct ``sw`` and
    ``dob`` pairs).

    e's own unit and the init prefix are skipped.  An init write flushes in
    the prefix, so it can never fail the rule.  A write of e's own thread
    never triggers it; a read of e's own unit triggers only a foreign
    source, whose flush ``shco`` already placed before that read.
    """
    events, rf, pos = rels.events, rels.rf, rels.pos
    skip = (1 << rels.init_len) - 1 | rels.unit_mask[e.thr]
    out = 0
    for p in set_bits(rels.hb_mask[e] & ~skip):
        x = events[p]
        if (x, e) in rels.sw or (x, e) in rels.dob:
            continue
        if x.is_write_like:
            out |= 1 << p
        if x.is_read_like:
            out |= 1 << pos[rf[x]]
    return out & ~skip


def _rule_shmo1(rels: Relations, at: Optional[Event] = None) -> Optional[Witness]:
    targets = [e for e in rels.events if not e.is_init] if at is None else [at]
    for e in targets:
        for p in set_bits(_shmo1_triggered(rels, e)):
            e_w = rels.events[p]
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
        for p in set_bits(rels.hb_mask[r2] & rels.obj_read_mask[r2.obj_read]):
            r1 = rels.events[p]
            src1 = rels.rf[r1]
            if src1 != src2 and flush_before(rels, src1, src2) is False:
                return (r1, r2)
    return None


def _rule_shmo3(rels: Relations, at: Optional[Event] = None) -> Optional[Witness]:
    for r in _reads(rels, at):
        src = rels.rf[r]
        for p in set_bits(rels.hb_mask[r] & rels.obj_write_mask.get(r.obj_read, 0)):
            w1 = rels.events[p]
            if w1 != src and flush_before(rels, w1, src) is False:
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
    if at is None:
        _, cycle = sc_order(rels.sc_placed)
        if cycle is not None:
            return cycle
        pairs = sc_pairs(rels.sc_placed)
    elif at.ord is not MO.SC:
        return None
    else:
        # ``at`` is the last placement and the order before it was acyclic:
        # a cycle must pass through ``at``, which has an outgoing edge only
        # to a placed event of its own thread with a higher idx
        earlier = [e for e, _ in rels.sc_placed[:-1]]
        if any(e.thr == at.thr and e.idx > at.idx for e in earlier):
            _, cycle = sc_order(rels.sc_placed)
            if cycle is not None:
                return cycle
        # the pairs containing ``at``, oriented and ordered as ``sc_pairs``
        pairs = ((at, e) if e.thr == at.thr and at.idx < e.idx else (e, at)
                 for e in earlier)
    for a, b in pairs:
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
    Each axiom reports its first violating pair, in scan order.

    ``mo1``..``mo4`` are one mask test per event: one running mask per
    object over ``rels.mo``, as it stands at the call, gives each flushed
    write the writes and the reads (by source) before it.  Only an object
    that fails a test is scanned pairwise for the witness.
    """
    pos, hb_mask, rf = rels.pos, rels.hb_mask, rels.rf
    issued, obj_reads = rels.obj_issue_order, rels.obj_reads
    read_mask, write_mask = rels.obj_read_mask, rels.obj_write_mask
    reads_of: dict[Event, int] = {}     # reads by source write
    for rs in obj_reads.values():
        for r in rs:
            reads_of[rf[r]] = reads_of.get(rf[r], 0) | 1 << pos[r]
    writes_before: dict[Event, int] = {}    # writes mo-before each write
    reads_before: dict[Event, int] = {}     # reads of writes mo-before it
    for ws in rels.mo.values():
        w_mask = r_mask = 0
        for w in ws:
            writes_before[w], reads_before[w] = w_mask, r_mask
            w_mask |= 1 << pos[w]
            r_mask |= reads_of.get(w, 0)

    def mo_before(a: Event, b: Event) -> bool:
        return bool(writes_before.get(b, 0) >> pos[a] & 1)

    hb = rels.hb
    verdict = CoherenceVerdict()
    verdict.rules["mo1"] = next(
        ((w1, w2) for obj, ws in issued.items()
         if any(hb_mask[w2] & write_mask[obj] & ~writes_before.get(w2, 0)
                for w2 in ws)
         for w1 in ws for w2 in ws
         if w1 != w2 and hb(w1, w2) and not mo_before(w1, w2)), None)
    verdict.rules["mo2"] = next(
        ((r1, r2) for obj, rs in obj_reads.items()
         if any(hb_mask[r2] & read_mask[obj]
                & ~(reads_before.get(rf[r2], 0) | reads_of[rf[r2]]) for r2 in rs)
         for r1 in rs for r2 in rs
         if r1 != r2 and hb(r1, r2)
         and rf[r1] != rf[r2] and not mo_before(rf[r1], rf[r2])), None)
    verdict.rules["mo3"] = next(
        ((r1, w1) for obj, rs in obj_reads.items()
         if any(hb_mask[w1] & read_mask[obj] & ~reads_before.get(w1, 0)
                for w1 in issued.get(obj, ()))
         for r1 in rs for w1 in issued.get(obj, ())
         if hb(r1, w1) and not mo_before(rf[r1], w1)), None)
    verdict.rules["mo4"] = next(
        ((w1, r1) for obj, rs in obj_reads.items()
         if any(hb_mask[r1] & write_mask.get(obj, 0)
                & ~(writes_before.get(rf[r1], 0) | 1 << pos[rf[r1]]) for r1 in rs)
         for r1 in rs for w1 in issued.get(obj, ())
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
