"""Coherence checking for executed sequences.

Two rule families are implemented:

* the shadow-order rules (``shmo1``, ``shmo3``, ``shrmo``, ``shto``) that
  decide which interleavings the explorer may keep, and
* the classic per-location coherence axioms (``mo1``..``mo4``, ``co``) and
  the sc axiom ``to`` (some total order of the sc events extends hb and
  mo), evaluated over (hb, rf, mo) as a post-hoc validation oracle.

The shadow-order rules read a relations object directly: either the engine's
``LiveRelations`` or a ``RelationSet`` rebuilt by ``compute_relations``; the
first subclasses the second, so both hold the same fields, indexed by
sequence position.  The rules work on positions and turn them into events
only for a witness.  Reads and writes are visited in sequence order, so
both give the same first witness.

The base rule ``shmo`` (the modification order of each object is the order
of its shared-store updates) holds by construction and has no check: ``mo``
*is* the flush order, in both relation implementations.

The rule ``shco`` (a read's source is before the read, not hb-after it,
and flushed before it if foreign) holds by construction too, by read
resolution (``ExecState.resolve_rf``, which ``advance`` calls for a read or
rmw at position ``r``).  The source is the object's latest flushed write
``lw``, whose flush is already in the sequence (``lw <= flush_pos[lw] < r``;
an rmw flushes at its own position), or the reader's own write issued after
that flush, an earlier event of its thread; so a foreign source is ``lw``.
Either way the source is before ``r``, and hb edges point forward.
``compute_relations`` raises ``ContractViolation`` on a sequence that
breaks this.

The rule ``shmo2`` (for reads ``r1`` hb ``r2`` of one object, ``r1``'s
source ``src1`` does not flush after ``r2``'s source ``src2``) is implied by
``shmo3``, instance by instance.  Take ``src1 != src2`` with
``flush_before(src1, src2) is False``.  If ``src1`` is of another thread
than ``r1``, read resolution made it the latest flushed write at ``r1``, so
``src2`` flushed before it, and before ``r2``; at ``r2`` the latest flushed
write is ``src1`` or a later one, so ``src2`` is neither that write nor a
write of ``r2``'s thread issued after that write's flush, and ``r2`` cannot
read it.  So ``src1`` is an earlier write of ``r1``'s thread: it is in
``hb_mask[r1]``, hence in ``hb_mask[r2]``, and ``(src1, r2)`` fails
``shmo3`` on the same condition.  ``shmo3`` judges the reads a ``shmo2`` instance would be judged
at (``_reads``), so the same ``check_step`` call prunes, and ``check_moca``
fails, whenever ``shmo2`` would.

Rules are evaluated with three-valued semantics so they apply to prefixes:
an ordering constraint between two shadow-writes that are both still pending
in different queues is *unknown* and passes; once one side flushes the
constraint resolves and can fail.  On a maximal sequence nothing is pending,
so the prefix evaluation coincides with the full quantified check; the
post-hoc checker is the reference the incremental filter is tested against.

The rules quantify over happens-before predecessors by walking the set bits
of ``hb_mask``, intersected with a position mask where one applies:
``shmo1`` walks each target's predecessors outside its own unit and the init
prefix, ``shmo3`` those among the read's object's writes.
Set bits come in position order, so the first witness is the one a scan of
events in sequence order finds.

``shto`` is a constraint, not an order the interleaving supplies: it holds
iff the hb, mo, rf and fr edges among the placed sc events (reads, fences
and rmws at their own position, writes at their flush) form no cycle, in
the style of RC11's psc acyclicity (Lahav et al., PLDI 2017).  So the
placement order of sc events of different threads decides nothing, and the
explorer lets them commute.

Each rule is written once as ``_rule_X(rels, at=None)``.  With ``at=None``
it checks every instance; that is ``check_moca``, the post-hoc check of a
maximal sequence.  With the position ``at`` of an event it checks only the
instances that event decides; that is ``check_step``, the explorer's
per-step filter, which passes the newly appended event, or the write a
shadow-write flushes (a write issue decides nothing).  It is called only on
a prefix whose every proper prefix passed, and happens-before, reads-from
and earlier flush positions are stable under extension, so every failing
instance involves ``at``, and the first one is the one a full scan would
report.

A flush step cannot check only ``shto``: in ``T1: store(b,1,rel);
r0 = load(b,acq) / T2: store(b,2,rel)`` after ``T2 T1 T1``, T1's read takes
its own pending write and T2's write is dob-before it, and read resolution
places only a foreign source's flush before its read, so only the flush
``sth_b(T1)`` decides (and fails) that ``shmo3`` instance.  Hence both
relation classes keep ``readers``.
"""

from __future__ import annotations

from .ir import RMW, SC, SHADOW, WRITE, Event
from .relations import LiveRelations, RelationSet, position

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Optional

Witness = tuple[Event, ...]


class CoherenceVerdict:
    __slots__ = ("rules",)

    def __init__(self, rules: Optional[dict[str, Optional[Witness]]] = None) -> None:
        self.rules = {} if rules is None else rules

    @property
    def ok(self) -> bool:
        return all(w is None for w in self.rules.values())

    @property
    def failures(self) -> dict[str, Witness]:
        return {r: w for r, w in self.rules.items() if w is not None}


def flush_before(rels: RelationSet, a: int, b: int) -> Optional[bool]:
    """Does the shared-store update of the write at position ``a`` occur
    before that of the write at ``b``?  None if undecided."""
    fa, fb = rels.flush_pos[a], rels.flush_pos[b]
    if fa >= 0 and fb >= 0:
        return fa < fb
    if fa >= 0:
        return True
    if fb >= 0:
        return False
    ea, eb = rels.events[a], rels.events[b]
    if ea.thr == eb.thr and ea.obj_written == eb.obj_written:
        return a < b  # per-queue FIFO
    return None


# ---------------------------------------------------------------------------
# Shadow-order rules
# ---------------------------------------------------------------------------

def _shmo1_triggered(rels: RelationSet, e: int) -> int:
    """Positions of the writes whose flush the event at ``e`` must follow:
    the write-like mhb-predecessors of ``e`` and the sources of its
    read-like ones, read off the set bits of ``hb_mask[e]`` without the
    direct ``sw`` and ``dob`` sources (``mhb``).

    e's own unit and the init prefix are skipped.  An init write flushes in
    the prefix, so it can never fail the rule.  A write of e's own thread
    never triggers it; a read of e's own unit triggers only a foreign
    source, whose flush read resolution already placed before that read.

    The read-source half decides: in ``T1: store(x,1,rel); r1 =
    load(x,rlx); store(x,2,rel) / T2: store(x,3,rel); r3 = load(x,acq)``
    after ``T1 T1 T1 T2 T2``, both of T1's writes are direct dob sources of
    T2's read, so only T1's read triggers its source ``T1#0``, still pending.
    """
    events, rf = rels.events, rels.rf
    skip = (1 << rels.init_len) - 1 | rels.unit_mask[events[e].thr]
    out = 0
    preds = rels.hb_mask[e] & ~(skip | rels.sw[e] | rels.dob[e])
    while preds:
        low = preds & -preds
        x = events[low.bit_length() - 1]
        if x.is_write_like:
            out |= low
        if x.is_read_like:
            out |= 1 << rf[low.bit_length() - 1]
        preds ^= low
    return out & ~skip


def _rule_shmo1(rels: RelationSet, at: Optional[int] = None) -> Optional[Witness]:
    """Each write that ``_shmo1_triggered`` gives for ``e`` flushes before
    ``e``, or before e's own flush if ``e`` is write-like: there
    ``flush_before`` is False iff ``e`` has flushed and the write has not
    flushed before it."""
    events, flush_pos = rels.events, rels.flush_pos
    for e in range(rels.init_len, len(events)) if at is None else (at,):
        ev = events[e]
        bound = flush_pos[e] if ev.is_write_like else e
        if bound < 0:
            continue
        triggered = _shmo1_triggered(rels, e)
        while triggered:
            low = triggered & -triggered
            p = low.bit_length() - 1
            if not 0 <= flush_pos[p] < bound:
                return (events[p], ev)
            triggered ^= low
    return None


def _reads(rels: RelationSet, at: Optional[int]) -> list[int]:
    """The reads whose ``shmo3`` instances ``at`` decides: its own read, or
    the reads of the write it flushes; every read, by object, for ``None``."""
    if at is not None and rels.events[at].is_read_like:
        return [at]
    out = []
    for reads in rels.obj_read_mask.values() if at is None else (rels.readers[at],):
        while reads:
            low = reads & -reads
            out.append(low.bit_length() - 1)
            reads ^= low
    return out


def _rule_shmo3(rels: RelationSet, at: Optional[int] = None) -> Optional[Witness]:
    events, rf, hb_mask, writes = rels.events, rels.rf, rels.hb_mask, rels.obj_write_mask
    for r in _reads(rels, at):
        src = rf[r]
        w1s = hb_mask[r] & writes.get(events[r].obj_read, 0) & ~(1 << src)
        while w1s:
            low = w1s & -w1s
            if flush_before(rels, low.bit_length() - 1, src) is False:
                return (events[low.bit_length() - 1], events[r])
            w1s ^= low
    return None


def _rule_shrmo(rels: RelationSet, at: Optional[int] = None) -> Optional[Witness]:
    events = rels.events
    for e in range(len(events)) if at is None else (at,):
        ev = events[e]
        if ev.act is not RMW:
            continue
        src = rels.rf[e]
        order = rels.mo[ev.obj_read]
        i = order.index(e)
        if i == 0 or order[i - 1] != src:
            return (ev, events[src])
    return None


def _sc_graph(rels: RelationSet) -> tuple[list[int], dict[int, int]]:
    """The ``shto`` graph: the placed sc events in placement order, and for
    each the mask of its predecessors among them by hb, mo (flush order), rf
    (source to read) and fr (read to every write mo-after its source).

    rf needs no term of its own: an sc read of an sc write synchronizes
    with it, or follows it in program order, so the edge is in hb."""
    nodes = [p for p, _ in rels.sc_placed]
    if not nodes:
        return nodes, {}
    placed = sum(1 << p for p in nodes)
    # each flushed write's mo-predecessors and their reads (its fr sources)
    mo_fr: dict[int, int] = {}
    for ws in rels.mo.values():
        before = 0
        for w in ws:
            mo_fr[w] = before
            before |= 1 << w | rels.readers[w]
    # an rmw is a reader of its own mo-predecessor: no fr edge to itself
    preds = {p: (rels.hb_mask[p] | mo_fr.get(p, 0)) & placed & ~(1 << p)
             for p in nodes}
    return nodes, preds


def _ancestors(preds: dict[int, int], p: int) -> int:
    """The mask of the nodes with a path to ``p``; ``p`` is in it iff ``p``
    lies on a cycle."""
    seen, todo = 0, preds[p]
    while todo:
        low = todo & -todo
        seen |= low
        todo = (todo | preds[low.bit_length() - 1]) & ~seen
    return seen


def _rule_shto(rels: RelationSet, at: Optional[int] = None) -> Optional[Witness]:
    """``_sc_graph`` is acyclic.  A cycle is reported as the two
    earliest-placed members of the strongly connected component of the
    earliest-placed event on any cycle, in placement order.  An edge is
    fixed once both its events are placed, so on a prefix whose proper
    prefixes passed, every cycle passes through ``at``."""
    if at is not None and rels.events[at].ord is not SC:
        return None
    nodes, preds = _sc_graph(rels)
    for a in nodes if at is None else (at,):
        before = _ancestors(preds, a)
        if before >> a & 1:
            cycle = [p for p in nodes
                     if before >> p & 1 and _ancestors(preds, p) >> a & 1]
            return (rels.events[cycle[0]], rels.events[cycle[1]])
    return None


def shto_order(rels: RelationSet) -> Optional[list[int]]:
    """A total order of the placed sc events that extends ``_sc_graph``,
    as positions: the earliest-placed event whose predecessors are all
    listed comes next.  None if the graph has a cycle."""
    nodes, preds = _sc_graph(rels)
    order: list[int] = []
    listed = 0
    while len(order) < len(nodes):
        p = next((p for p in nodes if not (listed >> p & 1 or preds[p] & ~listed)), None)
        if p is None:
            return None
        order.append(p)
        listed |= 1 << p
    return order


# in report order; ``check_step`` reports the first failure in this order
_RULES = (("shmo1", _rule_shmo1), ("shmo3", _rule_shmo3), ("shrmo", _rule_shrmo),
          ("shto", _rule_shto))


def check_moca(rels: RelationSet) -> CoherenceVerdict:
    """Evaluate every shadow-order rule on a (possibly partial) sequence."""
    return CoherenceVerdict({name: rule(rels) for name, rule in _RULES})


def check_step(rels: LiveRelations) -> Optional[tuple[str, Witness]]:
    """Judge the rule instances decided by the newly appended event.

    Must be called on relation state whose every proper prefix already
    passed; returns the first violated rule with its witness, or None.
    """
    new = len(rels.events) - 1
    act = rels.events[new].act
    if act is WRITE:
        return None
    at = rels.origin_of[new] if act is SHADOW else new
    for name, rule in _RULES:
        w = rule(rels, at)
        if w is not None:
            return (name, w)
    return None


def overdue_write(rels: RelationSet, rule: str, witness: Witness) -> Optional[Event]:
    """The write whose pending shared-store update a failure of ``rule``
    blames, or None: flushing it is the direct repair."""
    if rule in ("shmo1", "shmo3"):
        w = position(rels, witness[0])
    elif rule == "shrmo":
        w = position(rels, witness[1])
    else:
        return None
    return None if rels.flush_pos[w] >= 0 else rels.events[w]


# ---------------------------------------------------------------------------
# Per-location coherence oracle
# ---------------------------------------------------------------------------

def _least_pair(events: list[Event], hb_mask: list[int], ps: int, target: int,
                excluded: list[int], via: Optional[list[int]] = None) -> Optional[Witness]:
    """``(events[q], events[p])`` for the least q, then the least p, where
    p is a set bit of ``ps`` and q one of ``hb_mask[p] & target &
    ~excluded[x]``, x being ``via[p]`` if ``via`` is given, else p; None
    if there is none.  p ascends, so a later p wins only with a lower q,
    and a p whose mask holds the least q has it as its lowest bit."""
    least = best = 0
    while ps:
        low = ps & -ps
        p = low.bit_length() - 1
        m = hb_mask[p] & target & ~excluded[p if via is None else via[p]]
        if m and (not least or m & (least - 1)):
            least, best = m & -m, p
        ps ^= low
    return (events[least.bit_length() - 1], events[best]) if least else None


def check_c11_oracle(rels: RelationSet) -> CoherenceVerdict:
    """Validate (hb, rf, mo) against the per-location coherence axioms
    and the sc total-order axiom; violations are verdicts, not exceptions.
    Each axiom reports its first violating pair, in scan order; ``to``'s is
    the first pair of placed sc events, in placement order, that the
    transitive closure of hb and mo orders both ways.

    ``mo1``..``mo4`` give each event of an object one mask: the events it
    violates the axiom with.  One running mask per object over ``rels.mo``,
    as it stands at the call, gives each flushed write the writes and the
    reads (by source) before it.  The witness is the first pair of the
    pairwise scan: ``mo1``..``mo3`` scan the events in the masks first,
    ``mo4`` the events the masks belong to.
    """
    events, hb_mask, rf = rels.events, rels.hb_mask, rels.rf
    read_mask, write_mask = rels.obj_read_mask, rels.obj_write_mask
    n = len(events)
    reads_of = rels.readers     # reads by source write
    writes_before = [0] * n     # writes mo-before each write
    reads_before = [0] * n      # reads of writes mo-before it
    reads_through = list(reads_of)  # ... and its own reads
    for ws in rels.mo.values():
        w_mask = r_mask = 0
        for w in ws:
            writes_before[w], reads_before[w] = w_mask, r_mask
            w_mask |= 1 << w
            r_mask |= reads_of[w]
            reads_through[w] = r_mask

    verdict = CoherenceVerdict(dict.fromkeys(("mo1", "mo2", "mo3", "mo4", "to", "co")))
    rules = verdict.rules
    for ws in write_mask.values():
        rules["mo1"] = _least_pair(events, hb_mask, ws, ws, writes_before)
        if rules["mo1"]:
            break
    for rs in read_mask.values():
        rules["mo2"] = _least_pair(events, hb_mask, rs, rs, reads_through, rf)
        if rules["mo2"]:
            break
    for obj, rs in read_mask.items():
        rules["mo3"] = _least_pair(events, hb_mask, write_mask.get(obj, 0), rs,
                                   reads_before)
        if rules["mo3"]:
            break
    # mo4: in the first object with a violation, the least p, then its
    # least q
    for obj, rs in read_mask.items():
        ws = write_mask.get(obj, 0)
        while rs:
            low = rs & -rs
            r1 = low.bit_length() - 1
            m = hb_mask[r1] & ws & ~(writes_before[rf[r1]] | 1 << rf[r1])
            if m:
                rules["mo4"] = (events[(m & -m).bit_length() - 1], events[r1])
                break
            rs ^= low
        if rules["mo4"]:
            break

    # some total order of the sc events extends hb and mo iff the closure
    # of their union orders no pair both ways
    sc = [p for p, _ in rels.sc_placed]
    after = {a: sum(1 << b for b in sc if (hb_mask[b] | writes_before[b]) >> a & 1)
             for a in sc}
    for k in sc:
        for a in sc:
            if after[a] >> k & 1:
                after[a] |= after[k]
    rules["to"] = next(
        ((events[a], events[b]) for i, a in enumerate(sc) for b in sc[i + 1:]
         if after[a] >> b & 1 and after[b] >> a & 1), None)

    for r, e in enumerate(events):
        if not e.is_read_like:
            continue
        w = rf[r]
        if w < 0 or hb_mask[w] >> r & 1:
            rules["co"] = (e,) if w < 0 else (e, events[w])
            break
    return verdict
