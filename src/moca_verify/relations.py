"""Happens-before and coherence relations over executed sequences.

Two implementations are kept deliberately separate:

* ``LiveRelations`` grows incrementally as the engine appends events.  Every
  synchronization edge attaches to the newly appended event, so predecessor
  sets are stable under extension.

* ``compute_relations`` rebuilds everything from scratch from a finished
  ``Sequence`` and is the reference the incremental path is tested against.
  It reads only the sequence's raw facts (events, positions, rf, flush
  positions, ``origin_of``), never a live mask.
  It derives sw and dob from the sequence's own rf and release sequences,
  then happens-before in one forward pass over the events: each event's
  predecessors are final when it is reached because every po, sw and dob
  edge points forward in the sequence (a backward sync edge is a
  ``ContractViolation``).

Both store happens-before as position bitmasks, ``hb_mask[e]`` holding the
positions of e's strict predecessors (one int per event), so ``hb`` and
``mhb`` are O(1) bit tests and ``hb_pairs`` lists the edges of either.

Both expose the data the coherence rules quantify over under the same names,
so every consumer reads either one directly: ``events``, ``pos``, ``rf``,
``readers`` (reads of each write, in sequence order), ``flush_pos`` (position
of each write's shared-store update), ``obj_reads`` and ``obj_issue_order``
(per-object reads and writes in sequence order), ``mo`` (per-object flush
order, the modification order), ``sw`` and ``dob`` (the synchronizes-with
and dependency-ordered-before edge sets), ``sc_placed`` (sc events with
their placement positions, in placement order), and ``hb``/``mhb``.

Both also keep position masks, so the rules intersect ``hb_mask`` with them
instead of scanning event pairs: ``unit_mask`` (the events of each unit),
``obj_read_mask`` and ``obj_write_mask`` (the positions of ``obj_reads``
and ``obj_issue_order``).  ``LiveRelations`` adds the masks race detection
reads (``explorer.conflict_mask``): ``parent_mask`` (the events acting for
each program thread, its shadow-writes included), ``obj_update_mask``
(shadow-writes and rmws of each object), ``obj_rmw_mask`` and ``sc_mask``
(every sc placement); and ``rel_fence_mask`` (release-class fences).

``LiveRelations`` stores each fact once: beyond the shared fields and
masks, only ``cd_mask``, ``origin_of`` and ``value_of`` per event.  The
engine's other lookups are read off the masks: ``last_of_unit``,
``last_obj_write_of_thread``, ``last_rmw``, ``sw_sources``, a write's
store update ``events[flush_pos[w]]`` and a unit's next ``idx``
(``unit_mask[unit].bit_count()``).

Neither stores the sc total order: ``sc_order(rels.sc_placed)`` derives it
from the placements (program order within a thread, placement order across
threads) in one walk, and ``sc_pairs`` lists the ordered pairs it implies.

Relations computed: per-unit program order (program threads, shadow-threads,
and the init prefix), synchronizes-with (release write read by an acquire
read, plus the three fence synchronization shapes), dependency-ordered-before
(via release sequences), their inter-thread closure, happens-before, the
non-racing restriction of happens-before, per-object modification order
induced by shadow-write order, and the total order on sc events.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, TYPE_CHECKING

from .ir import Act, ContractViolation, Event, MO, at_least

if TYPE_CHECKING:
    from .engine import Sequence


def _is_weak(w: Event) -> bool:
    """A non-rmw write strictly weaker than release."""
    return w.act is not Act.RMW and w.ord in (MO.NA, MO.RLX)


def _is_cutting(w: Event, head: Event) -> bool:
    """A release sequence is cut by a foreign-thread weak write."""
    return w.thr != head.thr and _is_weak(w)


def release_sequence_members(issue_order: Iterable[Event], head: Event) -> list[Event]:
    """Writes of head's object forming the release sequence headed by `head`,
    in issue order."""
    if not (head.is_write_like and at_least(head.ord, MO.REL)):
        raise ContractViolation("release sequence head must be a release-class write")
    members = [head]
    seen_head = False
    for w in issue_order:
        if w == head:
            seen_head = True
            continue
        if not seen_head:
            continue
        if _is_cutting(w, head):
            break
        members.append(w)
    return members


def release_heads(src: Event, earlier: Iterable[Event]) -> list[Event]:
    """The release-class writes other than ``src`` whose release sequence
    contains ``src``, given ``earlier``: the writes of src's object issued
    before it, latest first.

    One walk back from the source: a head qualifies while every weak write
    after it, ``src`` included, is of the head's own thread, so the walk
    ends at the second thread with a weak write.  ``release_sequence_members``
    is the per-head reference.
    """
    heads: list[Event] = []
    owner = src.thr if _is_weak(src) else None   # the thread of the weak writes
    for w in earlier:
        if (owner is None or owner == w.thr) and at_least(w.ord, MO.REL):
            heads.append(w)
        if _is_weak(w):
            if owner is None:
                owner = w.thr
            elif owner != w.thr:
                break
    return heads


# ---------------------------------------------------------------------------
# sc total order
# ---------------------------------------------------------------------------

def sc_order(placed: list[tuple[Event, int]]
             ) -> tuple[Optional[list[Event]], Optional[tuple[Event, Event]]]:
    """Total order of the placed sc events, or the witness of a cycle.

    The order is the tournament that ``sc_pairs`` orients: same-thread pairs
    follow program order, cross-thread pairs follow placement order (writes
    place at their shadow-write, rmws at their own atomic update).  Walking
    the remaining events in placement order, only the po-first remaining
    event of the earliest-placed one's thread can be minimal, and it is
    minimal iff no other thread's event is placed before it.  Returns
    ``(order, None)``, or ``(None, (a, b))`` with the first two remaining
    events by placement when no minimum exists.
    """
    remaining = [e for e, _ in placed]
    order: list[Event] = []
    while remaining:
        thr = remaining[0].thr
        first = min((i for i, e in enumerate(remaining) if e.thr == thr),
                    key=lambda i: remaining[i].idx)
        if any(e.thr != thr for e in remaining[:first]):
            return None, (remaining[0], remaining[1])
        order.append(remaining.pop(first))
    return order, None


def sc_pairs(placed: list[tuple[Event, int]]) -> Iterable[tuple[Event, Event]]:
    """Every pair of placed sc events, ordered: by program order within a
    thread, by placement across threads; pairs come in placement order."""
    events = [e for e, _ in placed]
    for i, a in enumerate(events):
        for b in events[i + 1:]:
            yield (b, a) if a.thr == b.thr and b.idx < a.idx else (a, b)


# ---------------------------------------------------------------------------
# Incremental relations
# ---------------------------------------------------------------------------

def _add_bit(masks: dict[str, int], key: str, bit: int) -> None:
    masks[key] = masks.get(key, 0) | bit


class LiveRelations:
    """Append-only relation state carried by an execution state.

    Each fact is stored once; the lookups below read the position masks
    instead of keeping an index (an acquire fence walks ``unit_mask``).

    ``hb_mask[e]`` holds the positions of e's strict happens-before
    predecessors; ``cd_mask[e]`` the predecessors in the causal order used by
    the exploration algorithm: happens-before plus

    * reads-from, and a foreign source's flush before the read;
    * issue-to-flush, and the per-object flush order;
    * read-before-later-flush (and before a later rmw) of a foreign read;
    * write issue order: an rmw after every earlier write issue of its
      object; a plain write after the previous write issue of its object if
      the object is in ``release_objs``, else only after the object's last
      rmw (``last_rmw``), as ``explorer.conflicts`` orders them;
    * the cross-thread sc placement chain.

    ``release_objs`` is the program's ``ir.release_class_objects``, fixed for
    the whole exploration and shared by every clone.
    """

    __slots__ = (
        "events", "pos", "init_len", "value_of", "rf", "readers",
        "flush_pos", "origin_of", "mo", "obj_issue_order", "obj_reads",
        "hb_mask", "cd_mask", "sw", "dob", "sc_placed", "release_objs",
        "unit_mask", "parent_mask", "obj_read_mask", "obj_write_mask",
        "obj_update_mask", "obj_rmw_mask", "sc_mask", "rel_fence_mask",
    )

    def __init__(self, release_objs: frozenset[str]) -> None:
        self.events: list[Event] = []
        self.pos: dict[Event, int] = {}
        self.init_len = 0
        self.value_of: dict[Event, int] = {}
        self.rf: dict[Event, Event] = {}
        self.readers: dict[Event, list[Event]] = {}
        self.flush_pos: dict[Event, int] = {}
        self.origin_of: dict[Event, Event] = {}
        self.mo: dict[str, list[Event]] = {}
        self.obj_issue_order: dict[str, list[Event]] = {}
        # keyed in first-read order, as compute_relations keys it, so the
        # rules visit objects in one order on both implementations
        self.obj_reads: dict[str, list[Event]] = {}
        self.hb_mask: dict[Event, int] = {}
        self.cd_mask: dict[Event, int] = {}
        self.sw: set[tuple[Event, Event]] = set()
        self.dob: set[tuple[Event, Event]] = set()
        self.sc_placed: list[tuple[Event, int]] = []  # (logical event, placement pos)
        self.release_objs = release_objs
        # position masks, kept by ``_register`` from the event attributes
        self.unit_mask: dict[str, int] = {}
        self.parent_mask: dict[str, int] = {}
        self.obj_read_mask: dict[str, int] = {}
        self.obj_write_mask: dict[str, int] = {}
        self.obj_update_mask: dict[str, int] = {}
        self.obj_rmw_mask: dict[str, int] = {}
        self.sc_mask = 0
        self.rel_fence_mask = 0

    def clone(self) -> "LiveRelations":
        other = object.__new__(LiveRelations)
        other.events = list(self.events)
        other.pos = dict(self.pos)
        other.init_len = self.init_len
        other.value_of = dict(self.value_of)
        other.rf = dict(self.rf)
        other.readers = {k: list(v) for k, v in self.readers.items()}
        other.flush_pos = dict(self.flush_pos)
        other.origin_of = dict(self.origin_of)
        other.mo = {k: list(v) for k, v in self.mo.items()}
        other.obj_issue_order = {k: list(v) for k, v in self.obj_issue_order.items()}
        other.obj_reads = {k: list(v) for k, v in self.obj_reads.items()}
        other.hb_mask = dict(self.hb_mask)
        other.cd_mask = dict(self.cd_mask)
        other.sw = set(self.sw)
        other.dob = set(self.dob)
        other.sc_placed = list(self.sc_placed)
        other.release_objs = self.release_objs
        other.unit_mask = dict(self.unit_mask)
        other.parent_mask = dict(self.parent_mask)
        other.obj_read_mask = dict(self.obj_read_mask)
        other.obj_write_mask = dict(self.obj_write_mask)
        other.obj_update_mask = dict(self.obj_update_mask)
        other.obj_rmw_mask = dict(self.obj_rmw_mask)
        other.sc_mask = self.sc_mask
        other.rel_fence_mask = self.rel_fence_mask
        return other

    # -- queries --------------------------------------------------------------

    def hb(self, a: Event, b: Event) -> bool:
        return bool(self.hb_mask[b] >> self.pos[a] & 1)

    def mhb(self, a: Event, b: Event) -> bool:
        return self.hb(a, b) and (a, b) not in self.sw and (a, b) not in self.dob

    def cd(self, a: Event, b: Event) -> bool:
        return bool(self.cd_mask[b] >> self.pos[a] & 1)

    def _last(self, mask: int) -> Optional[Event]:
        """The event at the top set bit of ``mask``, None for 0."""
        return self.events[mask.bit_length() - 1] if mask else None

    def last_of_unit(self, unit: str) -> Optional[Event]:
        return self._last(self.unit_mask.get(unit, 0))

    def last_obj_write_of_thread(self, thread: str, obj: str) -> Optional[Event]:
        return self._last(self.unit_mask.get(thread, 0)
                          & self.obj_write_mask.get(obj, 0))

    def last_rmw(self, obj: str) -> Event:
        """The object's last issued rmw, else its init write."""
        rmws = self.obj_rmw_mask.get(obj, 0)
        return self._last(rmws) if rmws else self.obj_issue_order[obj][0]

    def sw_sources(self, w: Event) -> list[Event]:
        """What an acquire read of ``w``, or an acquire fence after one,
        synchronizes with: the release-class fences of w's thread before
        ``w``, then ``w`` itself if it is release-class."""
        below = (1 << self.pos[w]) - 1
        fences = self.unit_mask.get(w.thr, 0) & self.rel_fence_mask & below
        out = [self.events[p] for p in set_bits(fences)]
        if w.is_write_like and at_least(w.ord, MO.REL):
            out.append(w)
        return out

    # -- low-level append -------------------------------------------------------

    def _register(self, e: Event, hb_direct: list[Event], cd_direct: list[Event]) -> int:
        p = len(self.events)
        self.events.append(e)
        self.pos[e] = p
        hb = 0
        for d in hb_direct:
            hb |= self.hb_mask[d] | (1 << self.pos[d])
        if not e.is_init:
            hb |= (1 << self.init_len) - 1
        cd = hb
        for d in cd_direct:
            cd |= self.cd_mask[d] | (1 << self.pos[d])
        self.hb_mask[e] = hb
        self.cd_mask[e] = cd
        bit = 1 << p
        _add_bit(self.unit_mask, e.thr, bit)
        _add_bit(self.parent_mask, e.parent_thr, bit)
        if e.is_read_like:
            _add_bit(self.obj_read_mask, e.obj_read, bit)
        if e.is_write_like:
            _add_bit(self.obj_write_mask, e.obj_written, bit)
        if e.is_store_update:
            _add_bit(self.obj_update_mask, e.obj_written, bit)
        if e.act is Act.RMW:
            _add_bit(self.obj_rmw_mask, e.obj_written, bit)
        if e.is_sc_placement:
            self.sc_mask |= bit
        if e.act is Act.FENCE and at_least(e.ord, MO.REL):
            self.rel_fence_mask |= bit
        return p

    def _po_pred(self, e: Event) -> list[Event]:
        last = self.last_of_unit(e.thr)
        return [last] if last is not None else []

    def _place_sc(self, logical: Event, placement_pos: int) -> list[Event]:
        """Record an sc placement (reads/fences/rmws at their own position,
        writes at their flush) and return the causal predecessors it induces.

        Cross-thread placement order feeds the sc total order, so placements
        of different threads are order-sensitive and must be causally
        ordered; same-thread pairs follow program order regardless of
        placement order and stay independent.
        """
        preds = [self.events[pos] for prev, pos in self.sc_placed
                 if prev.thr != logical.thr]
        self.sc_placed.append((logical, placement_pos))
        return preds

    # -- init prefix -----------------------------------------------------------

    def append_init(self, w: Event, sh: Event, value: int) -> None:
        """An init write of ``value`` and its shadow-write ``sh``."""
        self._register(w, self._po_pred(w), [])
        self._register(sh, self._po_pred(sh), [w])
        self.value_of[w] = value
        self.obj_issue_order[w.obj[0]] = [w]
        self.mo[w.obj[0]] = [w]
        self.origin_of[sh] = w
        self.flush_pos[w] = self.pos[sh]

    def seal_init(self) -> None:
        self.init_len = len(self.events)

    # -- program events ---------------------------------------------------------

    def _sync_preds_for_read(self, e: Event, src: Event) -> list[Event]:
        """sw and dob sources attaching to an acquire-class read (or the
        read half of an rmw)."""
        if not at_least(e.ord, MO.ACQ):
            return []
        preds = self.sw_sources(src)
        self.sw.update((s, e) for s in preds)
        # release-sequence heads whose sequence contains the source
        obj = e.obj_read
        before = (self.obj_write_mask[obj] & ((1 << self.pos[src]) - 1)).bit_count()
        heads = release_heads(src, reversed(self.obj_issue_order[obj][:before]))
        self.dob.update((head, e) for head in heads)
        return preds + heads

    def append_read(self, e: Event, src: Event) -> None:
        obj = e.obj_read
        sync = self._sync_preds_for_read(e, src)
        cd: list[Event] = [src]
        # a foreign source binds the read to that source's flush; a read of
        # the thread's own write commutes with the write's flush
        if src.thr != e.thr:
            cd.append(self.events[self.flush_pos[src]])
        if e.ord is MO.SC:
            cd.extend(self._place_sc(e, len(self.events)))
        self._register(e, self._po_pred(e) + sync, cd)
        self.rf[e] = src
        self.readers.setdefault(src, []).append(e)
        self.obj_reads.setdefault(obj, []).append(e)

    def append_write(self, e: Event, value: int) -> None:
        obj = e.obj_written
        # issue order decides release-sequence membership, which exists only
        # on release objects; elsewhere only the order against rmws (rf)
        # matters (``explorer.conflicts``)
        if obj in self.release_objs:
            cd = [self.obj_issue_order[obj][-1]]
        else:
            cd = [self.last_rmw(obj)]
        self._register(e, self._po_pred(e), cd)
        self.value_of[e] = value
        self.obj_issue_order[obj].append(e)

    def append_rmw(self, e: Event, src: Event, new: int) -> None:
        obj = e.obj_read
        sync = self._sync_preds_for_read(e, src)
        cd: list[Event] = [src]
        # after every write issue of the object since its last rmw: plain
        # writes of a non-release object are not chained to each other
        last_rmw = self.last_rmw(obj)
        for w in reversed(self.obj_issue_order[obj]):
            cd.append(w)
            if w is last_rmw:
                break
        if src.thr != e.thr:
            cd.append(self.events[self.flush_pos[src]])
        flushed = self.mo[obj]
        if flushed:
            cd.append(self.events[self.flush_pos[flushed[-1]]])
        # the atomic update orders after earlier reads of other threads
        cd.extend(r for r in self.obj_reads.get(obj, ()) if r.thr != e.thr)
        if e.ord is MO.SC:
            cd.extend(self._place_sc(e, len(self.events)))
        self._register(e, self._po_pred(e) + sync, cd)
        self.value_of[e] = new
        self.rf[e] = src
        self.readers.setdefault(src, []).append(e)
        self.obj_reads.setdefault(obj, []).append(e)
        self.obj_issue_order[obj].append(e)
        self.mo[obj].append(e)
        self.flush_pos[e] = self.pos[e]

    def append_fence(self, e: Event) -> None:
        sync: list[Event] = []
        if at_least(e.ord, MO.ACQ):
            for p in set_bits(self.unit_mask.get(e.thr, 0)):
                r = self.events[p]
                if r.is_read_like:
                    sync += self.sw_sources(self.rf[r])
            self.sw.update((s, e) for s in sync)
        cd: list[Event] = []
        if e.ord is MO.SC:
            cd.extend(self._place_sc(e, len(self.events)))
        self._register(e, self._po_pred(e) + sync, cd)

    def append_flush(self, e: Event, w: Event) -> None:
        obj = e.obj[0]
        cd: list[Event] = [w]
        flushed = self.mo[obj]
        if flushed:
            cd.append(self.events[self.flush_pos[flushed[-1]]])
        # a foreign read never moves after a later flush of its object; the
        # flushing thread's own reads commute with it
        cd.extend(r for r in self.obj_reads.get(obj, ()) if r.thr != w.thr)
        if w.ord is MO.SC:
            cd.extend(self._place_sc(w, len(self.events)))
        self._register(e, self._po_pred(e), cd)
        self.origin_of[e] = w
        self.flush_pos[w] = self.pos[e]
        self.mo[obj].append(w)


# ---------------------------------------------------------------------------
# Post-hoc reference
# ---------------------------------------------------------------------------

@dataclass
class RelationSet:
    """Relations of one finished sequence, rebuilt from scratch."""

    events: list[Event]
    pos: dict[Event, int]
    rf: dict[Event, Event]
    readers: dict[Event, list[Event]]
    flush_pos: dict[Event, int]
    obj_reads: dict[str, list[Event]]
    obj_issue_order: dict[str, list[Event]]
    mo: dict[str, list[Event]]
    sc_placed: list[tuple[Event, int]]
    sw: set[tuple[Event, Event]]
    dob: set[tuple[Event, Event]]
    hb_mask: dict[Event, int]               # positions of strict hb predecessors
    init_len: int
    unit_mask: dict[str, int]               # positions of each unit's events
    obj_read_mask: dict[str, int]           # positions of obj_reads[obj]
    obj_write_mask: dict[str, int]          # positions of obj_issue_order[obj]

    def hb(self, a: Event, b: Event) -> bool:
        return bool(self.hb_mask[b] >> self.pos[a] & 1)

    def mhb(self, a: Event, b: Event) -> bool:
        return self.hb(a, b) and (a, b) not in self.sw and (a, b) not in self.dob


# either implementation: both expose the fields the coherence rules read
Relations = LiveRelations | RelationSet


def set_bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def hb_pairs(rels: Relations) -> list[tuple[Event, Event]]:
    """Every happens-before edge ``(a, b)``, read off the set bits of
    ``hb_mask``; ordered by ``b``'s position, then ``a``'s."""
    events = rels.events
    return [(events[p], b) for b in events for p in set_bits(rels.hb_mask[b])]


def release_sequence(seq: "Sequence", head: Event) -> list[Event]:
    """Release sequence headed by ``head`` within ``seq`` (issue order)."""
    obj = head.obj_written
    issue = [e for e in seq.events
             if e.is_write_like and e.obj_written == obj]
    return release_sequence_members(issue, head)


def compute_relations(seq: "Sequence") -> RelationSet:
    events = seq.events
    pos = seq.pos
    rf = seq.rf
    for r in (e for e in events if e.is_read_like):
        if r not in rf:
            raise ContractViolation(f"unresolved read in sequence: {r}")

    reads = [e for e in events if e.is_read_like]
    fences = [e for e in events if e.act is Act.FENCE]
    readers: dict[Event, list[Event]] = {}
    obj_reads: dict[str, list[Event]] = {}
    obj_read_mask: dict[str, int] = {}
    for r in reads:
        readers.setdefault(rf[r], []).append(r)
        obj_reads.setdefault(r.obj_read, []).append(r)
        obj_read_mask[r.obj_read] = obj_read_mask.get(r.obj_read, 0) | 1 << pos[r]
    obj_issue_order: dict[str, list[Event]] = {}
    obj_write_mask: dict[str, int] = {}
    for w in (e for e in events if e.is_write_like):
        obj_issue_order.setdefault(w.obj_written, []).append(w)
        obj_write_mask[w.obj_written] = obj_write_mask.get(w.obj_written, 0) | 1 << pos[w]
    flush_pos = dict(seq.flush_pos)

    # synchronizes-with: release write read by acquire read, plus fences
    sw: set[tuple[Event, Event]] = set()
    for r in reads:
        w = rf[r]
        rel_fences_before_w = [f for f in fences
                               if f.thr == w.thr and f.idx < w.idx
                               and at_least(f.ord, MO.REL)]
        acq_fences_after_r = [f for f in fences
                              if f.thr == r.thr and f.idx > r.idx
                              and at_least(f.ord, MO.ACQ)]
        if at_least(r.ord, MO.ACQ):
            if w.is_write_like and at_least(w.ord, MO.REL):
                sw.add((w, r))
            for f in rel_fences_before_w:
                sw.add((f, r))
        for fa in acq_fences_after_r:
            if w.is_write_like and at_least(w.ord, MO.REL):
                sw.add((w, fa))
            for fr in rel_fences_before_w:
                sw.add((fr, fa))

    # dependency-ordered-before via release sequences
    dob: set[tuple[Event, Event]] = set()
    for r in reads:
        if not at_least(r.ord, MO.ACQ):
            continue
        src = rf[r]
        obj = r.obj_read
        before = (obj_write_mask[obj] & ((1 << pos[src]) - 1)).bit_count()
        dob.update((head, r) for head in
                   release_heads(src, reversed(obj_issue_order[obj][:before])))

    # happens-before in one forward pass: po plus the inter-thread closure,
    # i.e. reachability over unit-successor + sync edges counting paths with
    # at least one sync edge; every edge points forward in the sequence, so
    # an event's predecessors are final by the time it is reached
    sync_preds: dict[Event, list[Event]] = {}
    for a, b in sw | dob:
        if pos[a] >= pos[b]:
            raise ContractViolation(f"synchronization edge points backward: {a} -> {b}")
        sync_preds.setdefault(b, []).append(a)
    unit_last: dict[str, Event] = {}
    po_mask: dict[Event, int] = {}      # earlier events of e's unit
    reach: dict[Event, int] = {}        # sources of a path into e
    via_sync: dict[Event, int] = {}     # sources of a path with a sync edge
    init_mask = 0
    hb_mask: dict[Event, int] = {}
    for e in events:
        po = reach_e = via = 0
        last = unit_last.get(e.thr)
        if last is not None:
            bit = 1 << pos[last]
            po = po_mask[last] | bit
            reach_e = reach[last] | bit
            via = via_sync[last]
        for s in sync_preds.get(e, ()):
            into_s = reach[s] | 1 << pos[s]
            reach_e |= into_s
            via |= into_s
        unit_last[e.thr] = e
        po_mask[e], reach[e], via_sync[e] = po, reach_e, via
        if e.is_init:   # the init events form the sequence's prefix
            init_mask |= 1 << pos[e]
            hb_mask[e] = po | via
        else:
            hb_mask[e] = po | via | init_mask
    unit_mask = {thr: po_mask[e] | 1 << pos[e] for thr, e in unit_last.items()}

    # modification order per object: init write first, then flush order
    mo: dict[str, list[Event]] = {}
    for e in events:
        if e.act is Act.SHADOW:
            mo.setdefault(e.obj[0], []).append(seq.origin_of[e])
        elif e.act is Act.RMW:
            mo.setdefault(e.obj_written, []).append(e)

    # sc program events at their placement positions, in placement order
    placed: list[tuple[Event, int]] = []
    for e in events:
        if e.ord is not MO.SC:
            continue
        if e.act in (Act.READ, Act.FENCE, Act.RMW):
            placed.append((e, pos[e]))
        elif e.act is Act.WRITE and e in flush_pos:
            placed.append((e, flush_pos[e]))
    placed.sort(key=lambda t: t[1])

    return RelationSet(
        events=list(events), pos=dict(pos), rf=dict(rf), readers=readers,
        flush_pos=flush_pos, obj_reads=obj_reads, obj_issue_order=obj_issue_order,
        mo=mo, sc_placed=placed, sw=sw, dob=dob, hb_mask=hb_mask,
        init_len=seq.init_len, unit_mask=unit_mask,
        obj_read_mask=obj_read_mask, obj_write_mask=obj_write_mask,
    )
