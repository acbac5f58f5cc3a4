"""Happens-before and coherence relations over executed sequences.

Two implementations are kept deliberately separate:

* ``LiveRelations`` grows incrementally as the engine appends events.  Every
  synchronization edge attaches to the newly appended event, so predecessor
  sets are stable under extension.

* ``compute_relations`` rebuilds everything from scratch from a finished
  ``Sequence`` and is the reference the incremental path is tested against.
  It reads only the sequence's raw facts (events, rf, flush positions,
  ``origin_of``), never a live mask.
  It derives sw and dob from the sequence's own rf and release sequences,
  then happens-before in one forward pass over the events: each event's
  predecessors are final when it is reached because every po, sw and dob
  edge points forward in the sequence (a backward sync edge is a
  ``ContractViolation``, as are an unresolved read, a source after its
  read and a foreign source not flushed before it).

Within one sequence an event's position is its id: every per-event table is
a list indexed by position, and every reference to another event is a
position (``-1`` for none) or a bitmask of positions.  ``pos`` maps an
``Event`` to its position; it is read only where an event enters from
outside (``hb(a, b)``, ``mhb(a, b)``, tests).  The rules, the oracles, the
trace id and race detection work on positions and turn them back into
events only for witnesses and reports.

Both implementations expose the data the coherence rules quantify over
under the same names and shapes, so every consumer reads either one:

* ``events`` (by position) and ``pos`` (event to position);
* ``hb_mask[p]``, the positions of p's strict happens-before predecessors,
  so ``hb`` is one bit test and ``hb_pairs`` lists the edges;
* ``rf[p]``, the source position of a read-like event, else -1;
* ``readers[w]``, the mask of the reads of write ``w``;
* ``flush_pos[w]``, the position of write w's shared-store update, else -1;
* ``sw[p]`` and ``dob[p]``, the masks of the synchronizes-with and
  dependency-ordered-before sources of ``p`` (``mhb`` drops both from
  ``hb_mask[p]``);
* ``mo`` (per-object flush order, the modification order, as write
  positions);
* ``sc_placed``, the sc events as ``(position, placement position)`` in
  placement order.

Both also keep position masks, so the rules intersect ``hb_mask`` with them
instead of scanning event pairs: ``unit_mask`` (the events of each unit),
``obj_read_mask`` and ``obj_write_mask`` (the reads and the write issues of
each object; a walk of their set bits visits them in sequence order).
``LiveRelations`` adds the masks race detection reads
(``explorer.conflict_mask``): ``parent_mask`` (the events acting for each
program thread, its shadow-writes included) and ``obj_update_mask``
(shadow-writes and rmws of each object, so ``obj_update_mask &
obj_write_mask`` are its rmws); and ``rel_fence_mask`` (release-class
fences).

``LiveRelations`` stores each fact once: beyond the shared fields and
masks, only ``cd_mask``, ``origin_of`` (a shadow-write's write) and
``value_of`` (a write-like event's value, else None) per position.  The
engine's other lookups are read off the masks: ``last_of_unit``,
``last_obj_write_of_thread``, ``last_rmw``, ``sw_sources``, the writes
before a release sequence's source, a write's store update
``flush_pos[w]`` and a unit's next ``idx`` (``unit_mask[unit].bit_count()``).

Neither stores an sc total order.  ``coherence._rule_shto`` checks that
one exists: the hb, mo, rf and fr edges among the placed sc events must be
acyclic.  ``coherence.shto_order`` lists one such order.

Relations computed: per-unit program order (program threads, shadow-threads,
and the init prefix), synchronizes-with (release write read by an acquire
read, plus the three fence synchronization shapes), dependency-ordered-before
(via release sequences), their inter-thread closure, happens-before, the
non-racing restriction of happens-before, per-object modification order
induced by shadow-write order, and the placements of the sc events.
"""

from __future__ import annotations

from .ir import (ACQ_ORDERS, FENCE, NA, REL_ORDERS, RLX, RMW, SC, SHADOW, WRITE,
                 ContractViolation, Event)

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Iterator, Optional

    from .engine import Sequence


def _is_weak(w: Event) -> bool:
    """A non-rmw write strictly weaker than release."""
    return w.act is not RMW and w.ord in (NA, RLX)


def release_heads(events: list[Event], src: int, earlier: int) -> int:
    """The mask of the release-class writes other than ``src`` whose release
    sequence contains ``src``, given ``earlier``: the mask of the writes of
    src's object issued before it.

    One walk down its bits from the source: a head qualifies while every
    weak write after it, ``src`` included, is of the head's own thread, so
    the walk ends at the second thread with a weak write.
    ``release_sequence_members`` in ``tests/oracles.py`` is the per-head
    reference.
    """
    heads = 0
    s = events[src]
    owner = s.thr if _is_weak(s) else None   # the thread of the weak writes
    while earlier:
        p = earlier.bit_length() - 1
        earlier ^= 1 << p
        w = events[p]
        if (owner is None or owner == w.thr) and w.ord in REL_ORDERS:
            heads |= 1 << p
        if _is_weak(w):
            if owner is None:
                owner = w.thr
            elif owner != w.thr:
                break
    return heads


# ---------------------------------------------------------------------------
# Incremental relations
# ---------------------------------------------------------------------------

class LiveRelations:
    """Append-only relation state carried by an execution state.

    Each fact is stored once; the lookups below read the position masks
    instead of keeping an index (an acquire fence walks ``unit_mask``).

    ``hb_mask[p]`` holds the positions of p's strict happens-before
    predecessors; ``cd_mask[p]`` the predecessors in the causal order used by
    the exploration algorithm: happens-before plus

    * reads-from, and a foreign source's flush before the read;
    * issue-to-flush, and the per-object flush order;
    * read-before-later-flush (and before a later rmw) of a foreign read;
    * write issue order: an rmw after every earlier write issue of its
      object; a plain write after the previous write issue of its object if
      the object is in ``release_objs``, else only after the object's last
      rmw (``last_rmw``), as ``explorer.conflicts`` orders them.

    ``release_objs`` is the program's ``ir.release_class_objects``, fixed for
    the whole exploration and shared by every clone.
    """

    __slots__ = (
        "events", "pos", "init_len", "value_of", "rf", "readers",
        "flush_pos", "origin_of", "mo", "hb_mask", "cd_mask", "sw", "dob",
        "sc_placed", "release_objs", "unit_mask", "parent_mask",
        "obj_read_mask", "obj_write_mask", "obj_update_mask", "rel_fence_mask",
    )

    def __init__(self, release_objs: frozenset[str]) -> None:
        self.events: list[Event] = []
        self.pos: dict[Event, int] = {}
        self.init_len = 0
        # per position
        self.value_of: list[Optional[int]] = []
        self.rf: list[int] = []
        self.readers: list[int] = []
        self.flush_pos: list[int] = []
        self.origin_of: list[int] = []
        self.hb_mask: list[int] = []
        self.cd_mask: list[int] = []
        self.sw: list[int] = []
        self.dob: list[int] = []
        # per object, as positions
        self.mo: dict[str, list[int]] = {}
        self.sc_placed: list[tuple[int, int]] = []  # (logical pos, placement pos)
        self.release_objs = release_objs
        # position masks, kept by ``_register`` from the event attributes;
        # the per-object ones are keyed in first-read and first-write order,
        # as compute_relations keys them, so the rules visit objects in one
        # order on both implementations
        self.unit_mask: dict[str, int] = {}
        self.parent_mask: dict[str, int] = {}
        self.obj_read_mask: dict[str, int] = {}
        self.obj_write_mask: dict[str, int] = {}
        self.obj_update_mask: dict[str, int] = {}
        self.rel_fence_mask = 0

    def clone(self) -> "LiveRelations":
        other = object.__new__(LiveRelations)
        other.events = list(self.events)
        other.pos = dict(self.pos)
        other.init_len = self.init_len
        other.value_of = list(self.value_of)
        other.rf = list(self.rf)
        other.readers = list(self.readers)
        other.flush_pos = list(self.flush_pos)
        other.origin_of = list(self.origin_of)
        other.hb_mask = list(self.hb_mask)
        other.cd_mask = list(self.cd_mask)
        other.sw = list(self.sw)
        other.dob = list(self.dob)
        other.mo = {k: list(v) for k, v in self.mo.items()}
        other.sc_placed = list(self.sc_placed)
        other.release_objs = self.release_objs
        other.unit_mask = dict(self.unit_mask)
        other.parent_mask = dict(self.parent_mask)
        other.obj_read_mask = dict(self.obj_read_mask)
        other.obj_write_mask = dict(self.obj_write_mask)
        other.obj_update_mask = dict(self.obj_update_mask)
        other.rel_fence_mask = self.rel_fence_mask
        return other

    # -- queries --------------------------------------------------------------

    def hb(self, a: Event, b: Event) -> bool:
        return bool(self.hb_mask[self.pos[b]] >> self.pos[a] & 1)

    def mhb(self, a: Event, b: Event) -> bool:
        return mhb_pos(self, self.pos[a], self.pos[b])

    def cd(self, a: Event, b: Event) -> bool:
        return bool(self.cd_mask[self.pos[b]] >> self.pos[a] & 1)

    def last_of_unit(self, unit: str) -> int:
        """Position of the unit's last event, -1 for none."""
        return self.unit_mask.get(unit, 0).bit_length() - 1

    def last_obj_write_of_thread(self, thread: str, obj: str) -> int:
        return (self.unit_mask.get(thread, 0)
                & self.obj_write_mask.get(obj, 0)).bit_length() - 1

    def last_rmw(self, obj: str) -> int:
        """Position of the object's last issued rmw, else of its init write
        (its first write)."""
        writes = self.obj_write_mask[obj]
        rmws = self.obj_update_mask[obj] & writes
        return (rmws or writes & -writes).bit_length() - 1

    def sw_sources(self, w: int) -> int:
        """The mask of what an acquire read of ``w``, or an acquire fence
        after one, synchronizes with: the release-class fences of w's thread
        before ``w``, and ``w`` itself if it is release-class."""
        ew = self.events[w]
        out = self.unit_mask.get(ew.thr, 0) & self.rel_fence_mask & ((1 << w) - 1)
        if ew.is_write_like and ew.ord in REL_ORDERS:
            out |= 1 << w
        return out

    # -- low-level append -------------------------------------------------------

    def _register(self, e: Event, cd_direct: int, sw: int = 0, dob: int = 0) -> int:
        """Append ``e`` after its unit's last event and the sync sources in
        ``sw``/``dob``, with the extra causal predecessors ``cd_direct``
        (a mask); every other per-position entry starts empty."""
        p = len(self.events)
        bit = 1 << p
        hb_mask, cd_mask, unit_mask = self.hb_mask, self.cd_mask, self.unit_mask
        thr = e.thr
        mine = unit_mask.get(thr, 0)
        # po: the unit's last event and its predecessors
        hb = hb_mask[mine.bit_length() - 1] | mine if mine else 0
        unit_mask[thr] = mine | bit
        direct = sw | dob
        while direct:
            low = direct & -direct
            hb |= hb_mask[low.bit_length() - 1] | low
            direct ^= low
        if not e.is_init:
            hb |= (1 << self.init_len) - 1
        cd = hb
        while cd_direct:
            low = cd_direct & -cd_direct
            cd |= cd_mask[low.bit_length() - 1] | low
            cd_direct ^= low
        self.events.append(e)
        self.pos[e] = p
        hb_mask.append(hb)
        cd_mask.append(cd)
        self.sw.append(sw)
        self.dob.append(dob)
        self.rf.append(-1)
        self.readers.append(0)
        self.flush_pos.append(-1)
        self.origin_of.append(-1)
        self.value_of.append(None)
        parents = self.parent_mask
        parents[e.parent_thr] = parents.get(e.parent_thr, 0) | bit
        if e.is_read_like:
            reads = self.obj_read_mask
            reads[e.obj_read] = reads.get(e.obj_read, 0) | bit
        if e.is_write_like:
            writes = self.obj_write_mask
            writes[e.obj_written] = writes.get(e.obj_written, 0) | bit
        if e.is_store_update:
            updates = self.obj_update_mask
            updates[e.obj_written] = updates.get(e.obj_written, 0) | bit
        if e.act is FENCE and e.ord in REL_ORDERS:
            self.rel_fence_mask |= bit
        return p

    # -- init prefix -----------------------------------------------------------

    def append_init(self, w: Event, sh: Event, value: int) -> None:
        """An init write of ``value`` and its shadow-write ``sh``."""
        pw = self._register(w, 0)
        psh = self._register(sh, 1 << pw)
        self.value_of[pw] = value
        self.mo[w.obj[0]] = [pw]
        self.origin_of[psh] = pw
        self.flush_pos[pw] = psh

    def seal_init(self) -> None:
        self.init_len = len(self.events)

    # -- program events ---------------------------------------------------------

    def _sync_for_read(self, e: Event, src: int) -> tuple[int, int]:
        """The sw and dob source masks of an acquire-class read (or the read
        half of an rmw) of ``src``."""
        if e.ord not in ACQ_ORDERS:
            return 0, 0
        # release-sequence heads whose sequence contains the source
        earlier = self.obj_write_mask[e.obj_read] & ((1 << src) - 1)
        return self.sw_sources(src), release_heads(self.events, src, earlier)

    def append_read(self, e: Event, src: int) -> int:
        sw, dob = self._sync_for_read(e, src)
        cd = 1 << src
        # a foreign source binds the read to that source's flush; a read of
        # the thread's own write commutes with the write's flush
        if self.events[src].thr != e.thr:
            cd |= 1 << self.flush_pos[src]
        p = self._register(e, cd, sw, dob)
        if e.ord is SC:
            self.sc_placed.append((p, p))
        self.rf[p] = src
        self.readers[src] |= 1 << p
        return p

    def append_write(self, e: Event, value: int) -> int:
        obj = e.obj_written
        # issue order decides release-sequence membership, which exists only
        # on release objects; elsewhere only the order against rmws (rf)
        # matters (``explorer.conflicts``)
        if obj in self.release_objs:
            prev = self.obj_write_mask[obj].bit_length() - 1
        else:
            prev = self.last_rmw(obj)
        p = self._register(e, 1 << prev)
        self.value_of[p] = value
        return p

    def append_rmw(self, e: Event, src: int, new: int) -> int:
        obj = e.obj_read
        sw, dob = self._sync_for_read(e, src)
        # after every write issue of the object since its last rmw: plain
        # writes of a non-release object are not chained to each other
        last_rmw = self.last_rmw(obj)
        cd = 1 << src | self.obj_write_mask[obj] >> last_rmw << last_rmw
        if self.events[src].thr != e.thr:
            cd |= 1 << self.flush_pos[src]
        cd |= 1 << self.flush_pos[self.mo[obj][-1]]
        # the atomic update orders after earlier reads of other threads
        cd |= self.obj_read_mask.get(obj, 0) & ~self.unit_mask.get(e.thr, 0)
        p = self._register(e, cd, sw, dob)
        if e.ord is SC:
            self.sc_placed.append((p, p))
        self.value_of[p] = new
        self.rf[p] = src
        self.readers[src] |= 1 << p
        self.mo[obj].append(p)
        self.flush_pos[p] = p
        return p

    def append_fence(self, e: Event) -> int:
        sw = 0
        if e.ord in ACQ_ORDERS:
            rf = self.rf
            for p in set_bits(self.unit_mask.get(e.thr, 0)):
                if rf[p] >= 0:   # a read-like event of the thread
                    sw |= self.sw_sources(rf[p])
        p = self._register(e, 0, sw)
        if e.ord is SC:
            self.sc_placed.append((p, p))
        return p

    def append_flush(self, e: Event, w: int) -> int:
        obj = e.obj[0]
        ew = self.events[w]
        cd = 1 << w | 1 << self.flush_pos[self.mo[obj][-1]]
        # a foreign read never moves after a later flush of its object; the
        # flushing thread's own reads commute with it
        cd |= self.obj_read_mask.get(obj, 0) & ~self.unit_mask.get(ew.thr, 0)
        p = self._register(e, cd)
        if ew.ord is SC:   # an sc write takes its place at its flush
            self.sc_placed.append((w, p))
        self.origin_of[p] = w
        self.flush_pos[w] = p
        self.mo[obj].append(w)
        return p


# ---------------------------------------------------------------------------
# Post-hoc reference
# ---------------------------------------------------------------------------

class RelationSet:
    """Relations of one finished sequence, rebuilt from scratch; per-event
    fields are lists indexed by position, as on ``LiveRelations``."""

    __slots__ = ("events", "pos", "rf", "readers", "flush_pos", "mo", "sc_placed",
                 "sw", "dob", "hb_mask", "init_len", "unit_mask", "obj_read_mask",
                 "obj_write_mask")

    def __init__(self, events: list[Event], pos: dict[Event, int], rf: list[int],
                 readers: list[int], flush_pos: list[int], mo: dict[str, list[int]],
                 sc_placed: list[tuple[int, int]], sw: list[int], dob: list[int],
                 hb_mask: list[int], init_len: int, unit_mask: dict[str, int],
                 obj_read_mask: dict[str, int], obj_write_mask: dict[str, int]) -> None:
        self.events = events
        self.pos = pos
        self.rf = rf                            # source position, or -1
        self.readers = readers                  # mask of each write's reads
        self.flush_pos = flush_pos              # store-update position, or -1
        self.mo = mo
        self.sc_placed = sc_placed
        self.sw = sw                            # mask of each event's sw sources
        self.dob = dob                          # mask of each event's dob sources
        self.hb_mask = hb_mask                  # positions of strict hb predecessors
        self.init_len = init_len
        self.unit_mask = unit_mask              # positions of each unit's events
        self.obj_read_mask = obj_read_mask      # positions of each object's reads
        self.obj_write_mask = obj_write_mask    # positions of each object's writes

    def hb(self, a: Event, b: Event) -> bool:
        return bool(self.hb_mask[self.pos[b]] >> self.pos[a] & 1)

    def mhb(self, a: Event, b: Event) -> bool:
        return mhb_pos(self, self.pos[a], self.pos[b])


# either implementation: both expose the fields the coherence rules read
Relations = LiveRelations | RelationSet


def mhb_pos(rels: Relations, a: int, b: int) -> bool:
    """Non-racing happens-before on positions: hb without the direct sw and
    dob edges."""
    return bool((rels.hb_mask[b] & ~(rels.sw[b] | rels.dob[b])) >> a & 1)


def set_bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_edges(events: list[Event], masks: list[int]) -> list[tuple[Event, Event]]:
    """Every edge ``(a, b)`` of a relation stored as per-position source
    masks (``hb_mask``, ``sw``, ``dob``); ordered by ``b``'s position, then
    ``a``'s."""
    return [(events[a], b) for b, mask in zip(events, masks) for a in set_bits(mask)]


def hb_pairs(rels: Relations) -> list[tuple[Event, Event]]:
    """Every happens-before edge ``(a, b)``."""
    return mask_edges(rels.events, rels.hb_mask)


def rf_pairs(rels: Relations | "Sequence") -> list[tuple[Event, Event]]:
    """Every reads-from edge ``(read, source)``, in the read's position
    order."""
    events = rels.events
    return [(events[r], events[w]) for r, w in enumerate(rels.rf) if w >= 0]


def compute_relations(seq: "Sequence") -> RelationSet:
    """The relations of ``seq``, rebuilt from its raw facts.  The result
    shares ``seq``'s events, ``pos``, ``rf`` and ``flush_pos`` instead of
    copying them: ``ExecState.sequence()`` has already copied them off the
    live state, and neither side writes to them afterwards."""
    events = seq.events
    n = len(events)
    rf = seq.rf
    flush_pos = seq.flush_pos
    origin_of = seq.origin_of

    # one pass files every event under the tables it belongs to
    reads: list[int] = []
    fences: list[int] = []
    readers = [0] * n
    obj_read_mask: dict[str, int] = {}
    obj_write_mask: dict[str, int] = {}
    # modification order per object: init write first, then flush order
    mo: dict[str, list[int]] = {}
    # sc program events at their placement positions
    placed: list[tuple[int, int]] = []
    for p, e in enumerate(events):
        bit = 1 << p
        act = e.act
        if e.is_read_like:
            if rf[p] < 0:
                raise ContractViolation(f"unresolved read in sequence: {e}")
            reads.append(p)
            readers[rf[p]] |= bit
            obj = e.obj_read
            obj_read_mask[obj] = obj_read_mask.get(obj, 0) | bit
        if e.is_write_like:
            obj = e.obj_written
            obj_write_mask[obj] = obj_write_mask.get(obj, 0) | bit
        if act is SHADOW:
            mo.setdefault(e.obj[0], []).append(origin_of[p])
        elif act is RMW:
            mo.setdefault(e.obj_written, []).append(p)
        elif act is FENCE:
            fences.append(p)
        if e.ord is SC:
            if act is WRITE:
                if flush_pos[p] >= 0:
                    placed.append((p, flush_pos[p]))
            elif act is not SHADOW:
                placed.append((p, p))
    if len(placed) > 1:
        placed.sort(key=lambda t: t[1])

    # synchronizes-with (a release write, or a release fence before the
    # write, read by an acquire read or followed by an acquire fence) and
    # dependency-ordered-before (via release sequences)
    sw = [0] * n
    dob = [0] * n
    for r in reads:
        w = rf[r]
        er, ew = events[r], events[w]
        sources = 1 << w if ew.is_write_like and ew.ord in REL_ORDERS else 0
        if fences:
            acq_fences_after_r = []
            for f in fences:
                ef = events[f]
                if ef.thr == ew.thr and ef.idx < ew.idx and ef.ord in REL_ORDERS:
                    sources |= 1 << f
                if ef.thr == er.thr and ef.idx > er.idx and ef.ord in ACQ_ORDERS:
                    acq_fences_after_r.append(f)
            for fa in acq_fences_after_r:
                sw[fa] |= sources
        if er.ord in ACQ_ORDERS:
            sw[r] |= sources
            dob[r] = release_heads(events, w, obj_write_mask[er.obj_read] & ((1 << w) - 1))

    # happens-before in one forward pass: po plus the inter-thread closure,
    # i.e. reachability over unit-successor + sync edges counting paths with
    # at least one sync edge; every edge points forward in the sequence, so
    # an event's predecessors are final by the time it is reached
    unit_last: dict[str, int] = {}
    po_mask = [0] * n       # earlier events of e's unit
    reach = [0] * n         # sources of a path into e
    via_sync = [0] * n      # sources of a path with a sync edge
    hb_mask = [0] * n
    init_mask = 0
    for b, e in enumerate(events):
        po = reach_e = via = 0
        last = unit_last.get(e.thr)
        if last is not None:
            bit = 1 << last
            po = po_mask[last] | bit
            reach_e = reach[last] | bit
            via = via_sync[last]
        sync = sw[b] | dob[b]
        if sync:
            if sync >> b:
                a = events[b + (sync >> b).bit_length() - 1]
                raise ContractViolation(
                    f"synchronization edge points backward: {a} -> {e}")
            while sync:
                low = sync & -sync
                into_s = reach[low.bit_length() - 1] | low
                reach_e |= into_s
                via |= into_s
                sync ^= low
        unit_last[e.thr] = b
        po_mask[b], reach[b], via_sync[b] = po, reach_e, via
        if e.is_init:   # the init events form the sequence's prefix
            init_mask |= 1 << b
            hb_mask[b] = po | via
        else:
            hb_mask[b] = po | via | init_mask
    unit_mask = {thr: po_mask[p] | 1 << p for thr, p in unit_last.items()}

    # read resolution's guarantee (the ``coherence`` docstring): each source
    # is before its read, and a foreign one has flushed before it
    for r in reads:
        w = rf[r]
        if w >= r:
            raise ContractViolation(f"read before its source: {events[r]} reads {events[w]}")
        if events[w].thr != events[r].thr and not 0 <= flush_pos[w] < r:
            raise ContractViolation(
                f"read of a foreign write not yet flushed: {events[r]} reads {events[w]}")

    return RelationSet(
        events=events, pos=seq.pos, rf=rf, readers=readers,
        flush_pos=flush_pos, mo=mo, sc_placed=placed, sw=sw, dob=dob, hb_mask=hb_mask,
        init_len=seq.init_len, unit_mask=unit_mask,
        obj_read_mask=obj_read_mask, obj_write_mask=obj_write_mask,
    )
