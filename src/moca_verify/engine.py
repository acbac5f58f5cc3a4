"""Operational semantics with delayed store visibility.

A store executes in two parts: the issuing write event (visible to its own
thread only) and a later shadow-write event that updates the shared store.
Shadow-writes belong to per-(thread, object) shadow-threads and interleave
with program events, so reordering of a write with later events of its thread
manifests as plain interleaving.  A successful rmw reads, writes, and updates
the shared store in one atomic transition; it never queues a shadow-write.

Reads resolve deterministically from the interleaving: a read takes its value
from the write whose shadow-write most recently updated the shared store,
unless a later write of the same object from the reader's own thread sits
between that update and the read, in which case it reads that pending write.
The shared store is kept nowhere else: an object's modification order is
the order of its store updates, so its value is its mo-last write's.

Initialization is a virtual ``init`` thread whose non-atomic writes and
shadow-writes occupy a fixed prefix of every sequence (in object order) and
are minimal elements of every relation.

``advance`` executes a unit's next event in place: a shadow-thread flushes
its oldest pending write, and each statement type builds its event and
applies it in one branch.  ``step`` is ``clone().advance``, for a state
that still has other successors to take: the explorer steps a clone of a
node's state for every candidate but the last, which advances the state in
place.  ``run_sequence`` and the CLI's replay advance one state through a
whole schedule.
"""

from __future__ import annotations

from collections import deque

from .ir import (
    FENCE,
    NA,
    READ,
    RMW,
    SHADOW,
    WRITE,
    Act,
    Cas,
    Event,
    Fadd,
    Fence,
    IfBlock,
    INIT_THREAD,
    Load,
    LocalAssign,
    Program,
    Stmt,
    Store,
    eval_expr,
    release_class_objects,
)
from .relations import LiveRelations


class ReplayError(Exception):
    def __init__(self, step_index: int, unit: str, reason: str):
        self.step_index = step_index
        self.unit = unit
        self.reason = reason
        super().__init__(f"step {step_index}: cannot schedule {unit!r}: {reason}")


class Sequence:
    """The raw facts of an executed sequence, all ``compute_relations``
    reads: events, the deterministic rf, each flushed write's store-update
    position, each shadow-write's write, the init length.  Per-event
    facts are lists indexed by position, as on ``LiveRelations``; ``pos``
    maps an event to its position."""

    __slots__ = ("events", "rf", "pos", "flush_pos", "origin_of", "init_len")

    def __init__(self, events: list[Event], rf: list[int], pos: dict[Event, int],
                 flush_pos: list[int], origin_of: list[int], init_len: int) -> None:
        self.events = events
        self.rf = rf                # read -> source position, else -1
        self.pos = pos
        self.flush_pos = flush_pos  # write/rmw -> position of its store update, else -1
        self.origin_of = origin_of  # shadow-write -> position of its write, else -1
        self.init_len = init_len


class ExecState:
    """Per-thread locals and cursors, pending-write queues, and the live
    relations, which hold the shared store: ``shr`` reads each object's
    value off its mo-last write.

    ``advance`` steps the state in place; ``step`` steps a clone and leaves
    the state as it was.  ``pending`` queues each shadow-thread's writes as
    positions.  ``table`` maps ``(unit, idx, id(stmt), act)`` to
    the event that program point executes as, built on first use; every
    clone shares it (a shadow-write is keyed by its write's ``stmt``).
    """

    def __init__(self, program: Program):
        self.program = program
        self.table: dict[tuple, Event] = {}
        self.lcl: dict[str, dict[str, int]] = {t.name: {} for t in program.threads}
        # cursor per thread: stack of (statement list, next index)
        self.cursors: dict[str, list[tuple[list[Stmt], int]]] = {
            t.name: [(t.body, 0)] for t in program.threads
        }
        self.pending: dict[str, deque[int]] = {}
        self.rels = LiveRelations(release_class_objects(program))
        self._seed_init_events()
        for t in program.threads:
            self._normalize(t.name)

    # -- construction helpers ------------------------------------------------

    def _seed_init_events(self) -> None:
        for i, (obj, val) in enumerate(sorted(self.program.objects.items())):
            w = Event(thr=INIT_THREAD, act=WRITE, obj=(obj,), ord=NA, idx=i)
            sh = Event(thr=w.flush_unit, act=SHADOW,
                       obj=(obj,), ord=NA, idx=0)
            self.rels.append_init(w, sh, val)
        self.rels.seal_init()

    def clone(self) -> "ExecState":
        other = object.__new__(ExecState)
        other.program = self.program
        other.table = self.table
        other.lcl = {t: dict(env) for t, env in self.lcl.items()}
        other.cursors = {t: list(frames) for t, frames in self.cursors.items()}
        other.pending = {u: deque(q) for u, q in self.pending.items()}
        other.rels = self.rels.clone()
        return other

    # -- cursor normalization --------------------------------------------------

    def _normalize(self, thread: str) -> None:
        """Advance past local assignments and resolved branches so the cursor
        rests on the next event statement (or thread end).  Branch conditions
        read locals only, so this is always immediately computable."""
        frames = self.cursors[thread]
        env = self.lcl[thread]
        while frames:
            body, i = frames[-1]
            if i >= len(body):
                frames.pop()
                continue
            stmt = body[i]
            if isinstance(stmt, LocalAssign):
                env[stmt.local] = eval_expr(stmt.value, env)
                frames[-1] = (body, i + 1)
                continue
            if isinstance(stmt, IfBlock):
                frames[-1] = (body, i + 1)
                branch = stmt.then_body if eval_expr(stmt.cond, env) != 0 else stmt.else_body
                if branch:
                    frames.append((branch, 0))
                continue
            return

    # -- enabledness -----------------------------------------------------------

    def enabled_units(self) -> list[str]:
        # cursors are keyed in thread declaration order
        units = [t for t, frames in self.cursors.items() if frames]
        units += sorted([u for u, q in self.pending.items() if q])
        return units

    # -- reads-from resolution ---------------------------------------------------

    def latest_visible_write(self, obj: str) -> int:
        """Position of the write whose shadow-write most recently updated
        ``obj``."""
        return self.rels.mo[obj][-1]

    def resolve_rf(self, thread: str, obj: str) -> int:
        """Deterministic source write (a position) for a read of ``obj`` by
        ``thread``: the thread's own latest write of ``obj`` if it was issued
        after the latest visible write's flush, else the latest visible
        write."""
        lw = self.latest_visible_write(obj)
        own = self.rels.last_obj_write_of_thread(thread, obj)
        return own if own > self.rels.flush_pos[lw] else lw

    # -- stepping ------------------------------------------------------------

    def _event(self, unit: str, idx: int, stmt: Stmt, act: Act) -> Event:
        """The event ``unit`` executes as its ``idx``-th, built once; its
        object and order are read off ``stmt`` (for a shadow-write, the
        ``Store`` it flushes)."""
        key = (unit, idx, id(stmt), act)
        ev = self.table.get(key)
        if ev is None:
            obj = () if act is FENCE else (
                (stmt.obj, stmt.obj) if act is RMW else (stmt.obj,))
            ev = self.table[key] = Event(thr=unit, act=act, obj=obj, ord=stmt.mo,
                                         idx=idx, stmt=stmt)
        return ev

    def step(self, unit: str) -> "ExecState":
        """The successor state after the next event of ``unit``; ``self``
        is left unchanged."""
        return self.clone().advance(unit)

    def advance(self, unit: str) -> "ExecState":
        """Execute the next event of ``unit`` in place; returns ``self``.
        The one enabledness check: a ``ReplayError`` at the schedule index
        of this step."""
        rels = self.rels
        # a unit's next idx is the number of events it has executed
        idx = rels.unit_mask.get(unit, 0).bit_count()
        queue = self.pending.get(unit)
        if queue:   # a shadow-thread flushes its oldest pending write
            w = queue.popleft()
            rels.append_flush(self._event(unit, idx, rels.events[w].stmt, SHADOW), w)
            return self
        frames = self.cursors.get(unit)
        if not frames:
            raise ReplayError(len(rels.events) - rels.init_len, unit, "not enabled")
        body, i = frames[-1]
        stmt = body[i]
        cls = stmt.__class__
        env = self.lcl[unit]
        if cls is Store:
            ev = self._event(unit, idx, stmt, WRITE)
            w = rels.append_write(ev, eval_expr(stmt.value, env))
            queue = self.pending.get(ev.flush_unit)
            if queue is None:
                self.pending[ev.flush_unit] = deque((w,))
            else:
                queue.append(w)
        elif cls is Load or cls is Fadd or cls is Cas:
            src = self.resolve_rf(unit, stmt.obj)
            old = rels.value_of[src]
            new = None
            if cls is Fadd:
                new = old + eval_expr(stmt.delta, env)
            elif cls is Cas and old == eval_expr(stmt.expect, env):
                new = eval_expr(stmt.desired, env)
            if new is None:     # a load, or a failed cas
                rels.append_read(self._event(unit, idx, stmt, READ), src)
            else:
                rels.append_rmw(self._event(unit, idx, stmt, RMW), src, new)
            env[stmt.local] = old
        elif cls is Fence:
            rels.append_fence(self._event(unit, idx, stmt, FENCE))
        else:
            raise AssertionError(f"unexpected statement {stmt!r}")
        i += 1
        frames[-1] = (body, i)
        # only an assignment, a branch or a block's end moves the cursor on
        if i == len(body) or body[i].__class__ in (LocalAssign, IfBlock):
            self._normalize(unit)
        return self

    # -- views ---------------------------------------------------------------

    @property
    def shr(self) -> dict[str, int]:
        """The shared store: each object's value, in declaration order, is
        that of its mo-last write (the latest shared-store update)."""
        rels = self.rels
        return {obj: rels.value_of[rels.mo[obj][-1]] for obj in self.program.objects}

    def sequence(self) -> Sequence:
        r = self.rels
        return Sequence(
            events=list(r.events),
            rf=list(r.rf),
            pos=dict(r.pos),
            flush_pos=list(r.flush_pos),
            origin_of=list(r.origin_of),
            init_len=r.init_len,
        )

    def schedule_so_far(self) -> list[str]:
        return [e.thr for e in self.rels.events[self.rels.init_len:]]

    def final_locals(self) -> dict[str, dict[str, int]]:
        return {t: dict(env) for t, env in self.lcl.items()}


# ---------------------------------------------------------------------------
# Driver API
# ---------------------------------------------------------------------------

def run_sequence(program: Program, schedule: list[str]) -> ExecState:
    """Deterministic replay: identical schedules yield identical states.
    A unit that is not enabled raises ``ReplayError`` naming its step."""
    state = ExecState(program)
    for unit in schedule:
        state.advance(unit)
    return state
