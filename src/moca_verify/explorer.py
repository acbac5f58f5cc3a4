"""State-space exploration over program threads and shadow-threads.

``explore`` runs a non-chronological depth-first search with source sets and
sleep sets.  Schedulable units are the program threads plus one shadow-thread
per (thread, object); because one unit steps at a time, the reduction
algorithm applies unchanged.  Two events conflict when they are

* two shared-store updates (shadow-writes or atomic rmws) of one object,
* a shared-store update and a foreign thread's read of the same object,
* two same-object write issues of which one is an rmw (the order decides
  whether the plain write's thread reads its own write or the rmw's), or
* two same-object plain write issues, if a release-class write exists for
  the object (the order decides release-sequence membership).

Two plain write issues of an object that no release-class write touches
commute; ``conflicts`` gives the argument.  Two sc events of different
threads commute unless a clause above orders them: ``shto`` asks only that
some total order of the sc events fits their hb, mo, rf and fr edges, and
the trace id fixes all four, so the order in which the sc events are placed
reaches nothing the explorer distinguishes.

When an executed event races with an earlier conflicting event not already
ordered by the causal relation, an alternative starting unit is inserted
into the backtrack set of the state before the earlier event; sleep sets
suppress re-exploring commuting choices.  Race detection visits only the
earlier events that ``conflict_mask`` selects from per-object and per-unit
position masks (exactly those ``conflicts`` accepts), and tests a race's
reversibility on the set bits of the causal mask between the two.

Each search node keeps its backtrack, done and sleep sets and its coherent
candidates as int masks over unit bits.  The units are numbered once per
exploration in the search's preference order: program threads in
declaration order, then every shadow-thread a ``store`` can create, sorted
by name.  The lowest set bit of a mask (``mask & -mask``) is then the
preferred unit of the set, so every pick of the search is one bit operation.

A node's state is dead once its candidates are built, so every enabled
unit but the last steps a clone of it and the last advances it in place.
A candidate state is advanced in turn once its own subtree starts; the
sleep-set test therefore reads the event each candidate executed from
``_Node.events``, never from the candidate's state.

The incremental coherence filter interacts with both mechanisms: pruned
candidates still feed race detection, insertions must land on units
schedulable at the target node, and a violated ordering rule proposes the
flush unit it names as a direct repair.

Every maximal surviving sequence is recorded, keyed by a canonical trace id
(a stable hash of the executed events, the reads-from edges, the per-object
store orders, and the happens-before edges; sequences interleaving only
independent events agree on all of these).  Recording runs one stage at a
time (relation rebuild, post-hoc rules, C11 oracle, trace id) over a batch
of ``RECORD_BATCH`` leaves, then folds each leaf's results into the report
in DFS order; a queued leaf keeps only what recording reads, not its
state.  Every oracle still runs on every maximal sequence, but an oracle's
exception can surface up to ``RECORD_BATCH - 1`` leaves after the leaf that
caused it.  ``enumerate_all`` is the brute-force oracle: it walks every
coherent interleaving without any reduction and must produce the same
trace-id set.
"""

from __future__ import annotations

# CPython's built-in SHA-256: hashlib maps OpenSSL's libcrypto, 3.6 MB of RSS
try:
    from _sha2 import sha256            # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256      # CPython 3.10, 3.11
    except ImportError:
        from hashlib import sha256      # a build without built-in hashes

from .ir import (
    NA,
    READ,
    RMW,
    WRITE,
    Event,
    LocalRef,
    Program,
    QualifiedRef,
    Store,
    UndefinedName,
    eval_expr,
    expr_leaves,
    flatten,
    shadow_unit,
)
from .engine import ExecState
from .relations import (
    LiveRelations,
    Relations,
    compute_relations,
    mhb_pos,
    rf_pairs,
)
from .coherence import check_moca, check_c11_oracle, check_step, overdue_write
from .transform import early_write_transform

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Optional


# maximal sequences recorded per batch (CHANGES.md has the sweep)
RECORD_BATCH = 64


class ExplorationBudgetExceeded(Exception):
    pass


class EnumerationCapExceeded(Exception):
    def __init__(self, estimate: int, cap: int):
        self.estimate = estimate
        self.cap = cap
        super().__init__(f"program has ~{estimate} schedulable events, cap is {cap}")


# ---------------------------------------------------------------------------
# Conflicts
# ---------------------------------------------------------------------------

def conflicts(a: Event, b: Event, release_objs: frozenset[str]) -> bool:
    """Order-sensitive event pairs for the reduction; ``release_objs`` is
    the program's ``ir.release_class_objects``.

    A thread's own flush commutes with its own reads of that object: the
    deterministic rf resolution prefers the thread's latest write either way.

    Same-object write issues of different threads conflict when one is an
    rmw: an rmw is a store update, and a thread reads its own pending write
    only if it was issued after the latest store update, so the order
    reaches rf.  Two plain write issues conflict only on an object in
    ``release_objs``: there their order decides release-sequence membership
    (a foreign ``na``/``rlx`` store cuts a sequence it follows), which feeds
    dependency-ordered-before.  On any other object their order reaches
    nothing the explorer distinguishes:

    * not hb: issue order enters hb only through dob, and an object with no
      release-class write heads no release sequence, so it has no dob edge;
    * not the trace id: it hashes events, rf, mo and hb, and mo is the
      flush order, which the shadow-writes' own conflicts fix;
    * not rf: a read's own-write preference compares only the reader's own
      write issues with store updates (shadow-writes and rmws).

    ``LiveRelations.append_write`` drops the matching causal edge, so the
    two always agree on which write issues are ordered.
    """
    if a.thr == b.thr:
        return False
    if a.is_store_update and b.is_store_update and (a.objects & b.objects):
        return True
    if (a.is_write_like and b.is_write_like
            and a.obj_written == b.obj_written
            and (a.act is RMW or b.act is RMW
                 or a.obj_written in release_objs)):
        return True
    for upd, other in ((a, b), (b, a)):
        if (upd.is_store_update and other.is_read_like
                and upd.obj_written == other.obj_read
                and upd.parent_thr != other.parent_thr):
            return True
    return False


def conflict_mask(rels: LiveRelations, p: int) -> int:
    """Positions of the events ``d`` before the event ``e`` at ``p``,
    outside the init prefix and e's unit, with ``conflicts(d, e,
    rels.release_objs)``: each clause of ``conflicts`` read off the
    per-object and per-unit masks of ``rels`` (the engine's rmws read and
    write one object)."""
    e = rels.events[p]
    others = ~rels.parent_mask[e.parent_thr]
    mask = 0
    if e.is_store_update:
        obj = e.obj_written
        mask |= rels.obj_update_mask[obj] | (rels.obj_read_mask.get(obj, 0) & others)
    if e.is_write_like:
        obj = e.obj_written
        if e.act is RMW or obj in rels.release_objs:
            mask |= rels.obj_write_mask[obj]
        else:
            mask |= rels.obj_update_mask[obj] & rels.obj_write_mask[obj]
    if e.is_read_like:
        mask |= rels.obj_update_mask.get(e.obj_read, 0) & others
    after_init = (1 << p) - (1 << rels.init_len)
    return mask & after_init & ~rels.unit_mask[e.thr]


def _on_causal_path(cd_mask: list[int], d: int, mask_e: int) -> bool:
    """Is some causal predecessor of an event after ``d`` (a set bit of
    the event's causal mask ``mask_e`` above ``d``) itself causally after
    ``d``?  Then the event's race with ``d`` is not reversible."""
    between = mask_e >> (d + 1) << (d + 1)
    while between:
        low = between & -between
        if cd_mask[low.bit_length() - 1] >> d & 1:
            return True
        between ^= low
    return False


# ---------------------------------------------------------------------------
# Trace identity
# ---------------------------------------------------------------------------

def _json_strings(items: list[str]) -> str:
    """``json.dumps(items)`` for ASCII strings that need no escape."""
    return '["' + '", "'.join(items) + '"]' if items else "[]"


def canonical_trace_id(rels: Relations) -> str:
    """Stable id of the equivalence class of the sequence behind ``rels``.

    Hashes the executed events, the reads-from edges, the per-object store
    order, and the happens-before edge set: sequences interleaving only
    independent events agree on all four, while differing rf, store order,
    or synchronization structure changes the id.

    The hashed payload is ``json.dumps`` of ``{"events", "hb", "mo", "rf"}``
    with sorted keys, joined here from strings.  Event and object names are
    built from identifiers and ASCII punctuation, none of which JSON
    escapes, except that an identifier may be any ``str.isalpha`` letter;
    a payload with a non-ASCII character is therefore encoded by
    ``json.dumps`` itself.
    """
    names = [e.name for e in rels.events]
    rf = sorted(f"{names[w]}->{names[r]}" for r, w in enumerate(rels.rf) if w >= 0)
    mo = {obj: [names[w] for w in ws] for obj, ws in rels.mo.items()}
    # an hb edge a->b per set bit of hb_mask[b]; set_bits is inlined, as
    # this loop runs once per hb edge of every recorded sequence
    hb: list[str] = []
    for mask, name_b in zip(rels.hb_mask, names):
        to_b = "->" + name_b
        while mask:
            low = mask & -mask
            hb.append(names[low.bit_length() - 1] + to_b)
            mask ^= low
    hb.sort()
    names.sort()
    mo_items = ", ".join(f'"{obj}": {_json_strings(mo[obj])}' for obj in sorted(mo))
    payload = (f'{{"events": {_json_strings(names)}, "hb": {_json_strings(hb)}, '
               f'"mo": {{{mo_items}}}, "rf": {_json_strings(rf)}}}')
    if not payload.isascii():
        import json
        payload = json.dumps({"events": names, "rf": rf, "mo": mo, "hb": hb},
                             sort_keys=True)
    return sha256(payload.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Race and assertion reporting
# ---------------------------------------------------------------------------

def detect_na_races(rels: Relations) -> list[tuple[Event, Event]]:
    """Pairs of non-atomic same-object accesses from different program
    threads, at least one a write, unordered by non-racing happens-before."""
    events = rels.events
    accesses = [p for p, e in enumerate(events)
                if e.ord is NA and not e.is_init
                and e.act in (READ, WRITE, RMW)]
    races: list[tuple[Event, Event]] = []
    for i, pa in enumerate(accesses):
        a = events[pa]
        for pb in accesses[i + 1:]:
            b = events[pb]
            if a.thr == b.thr:
                continue
            if not (a.objects & b.objects):
                continue
            if not (a.is_write_like or b.is_write_like):
                continue
            if mhb_pos(rels, pa, pb) or mhb_pos(rels, pb, pa):
                continue
            races.append((a, b) if a.key < b.key else (b, a))
    races.sort(key=lambda p: (p[0].key, p[1].key))
    return races


class AssertOutcome:
    __slots__ = ("violations", "diagnostics")

    def __init__(self) -> None:
        self.violations: list[int] = []     # indices into program.asserts
        self.diagnostics: list[str] = []


def bare_names(expr) -> tuple[str, ...]:
    """The bare names (``LocalRef``) of an assert predicate, left to right,
    each once."""
    return tuple(dict.fromkeys(leaf.name for leaf in expr_leaves(expr)
                               if isinstance(leaf, LocalRef)))


def check_asserts(program: Program, final: ExecState,
                  names: Optional[list[tuple[str, ...]]] = None) -> AssertOutcome:
    """Evaluate each 'assert never' predicate on final shared and local
    values; a true predicate is a violation.

    A bare name is a declared object's final value, else the final local
    of the one thread that holds it; any other name is undefined, and the
    first undefined name (left to right) makes the assert a diagnostic.
    ``names`` is ``bare_names`` of each assert, computed here if absent.
    """
    if names is None:
        names = [bare_names(a.expr) for a in program.asserts]
    out = AssertOutcome()
    shr, lcl, objects = final.shr, final.lcl, program.objects

    def resolve(ref: QualifiedRef) -> int:
        env = lcl.get(ref.thread)
        if env is None or ref.local not in env:
            raise UndefinedName(f"{ref.thread}.{ref.local}")
        return env[ref.local]

    for i, (a, bare) in enumerate(zip(program.asserts, names)):
        env: dict[str, int] = {}
        try:
            for name in bare:
                if name in objects:
                    env[name] = shr[name]
                    continue
                owners = [ls for ls in lcl.values() if name in ls]
                if len(owners) != 1:
                    raise UndefinedName(name)
                env[name] = owners[0][name]
            value = eval_expr(a.expr, env, resolve)
        except UndefinedName as ue:
            out.diagnostics.append(f"assert {i}: undefined reference {ue.name}")
            continue
        if value != 0:
            out.violations.append(i)
    return out


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

class TraceSummary:
    __slots__ = ("trace_id", "schedule", "final_shared", "final_locals", "rf", "racy")

    def __init__(self, trace_id: str, schedule: list[str], final_shared: dict[str, int],
                 final_locals: dict[str, dict[str, int]], rf: list[list[str]],
                 racy: bool) -> None:
        self.trace_id = trace_id
        self.schedule = schedule
        self.final_shared = final_shared
        self.final_locals = final_locals
        self.rf = rf
        self.racy = racy


class ExplorationReport:
    __slots__ = ("program", "sequences_explored", "distinct_traces", "non_mca_sequences",
                 "violations", "na_races", "racy_sequence_count", "traces",
                 "assert_diagnostics", "budget_exhausted", "c11_oracle_failures")

    def __init__(self, program: str) -> None:
        self.program = program
        self.sequences_explored = 0
        self.distinct_traces = 0
        self.non_mca_sequences = 0
        self.violations: list[dict] = []
        self.na_races: list[dict] = []
        self.racy_sequence_count = 0
        self.traces: list[TraceSummary] = []
        # distinct, first seen first
        self.assert_diagnostics: list[str] = []
        self.budget_exhausted = False
        self.c11_oracle_failures = 0

    @property
    def trace_ids(self) -> set[str]:
        return {t.trace_id for t in self.traces}

    def to_json(self) -> dict:
        """The JSON report; ``assert_diagnostics`` is present only when
        some assert could not be evaluated."""
        doc = {
            "schema": "moca-verify-report/1",
            "program": self.program,
            "sequences_explored": self.sequences_explored,
            "distinct_traces": self.distinct_traces,
            "non_mca_sequences": self.non_mca_sequences,
            "violations": self.violations,
            "na_races": self.na_races,
            "racy_sequence_count": self.racy_sequence_count,
            "budget_exhausted": self.budget_exhausted,
            "c11_oracle_failures": self.c11_oracle_failures,
            "traces": [
                {
                    "trace_id": t.trace_id,
                    "schedule": t.schedule,
                    "final_shared": t.final_shared,
                    "final_locals": t.final_locals,
                    "rf": t.rf,
                    "racy": t.racy,
                }
                for t in self.traces
            ],
        }
        if self.assert_diagnostics:
            doc["assert_diagnostics"] = self.assert_diagnostics
        return doc


# ---------------------------------------------------------------------------
# Source-set DFS
# ---------------------------------------------------------------------------

class _Node:
    """One state on the search path.  Units are bits (module docstring);
    ``backtrack``, ``done``, ``sleep`` and ``cands`` (the units whose next
    event survived the coherence filter) are masks of them.  ``candidates``
    and ``events`` map a candidate's bit to its successor state and to the
    event it executed; ``unit`` is the bit whose subtree is being explored,
    0 if none.  A candidate state is advanced in place once its subtree
    starts, so only ``events`` says what it ran."""

    __slots__ = ("backtrack", "done", "sleep", "cands", "candidates", "events", "unit")

    def __init__(self, sleep: int, cands: int, candidates: dict[int, ExecState],
                 events: dict[int, Event]):
        self.backtrack = 0
        self.done = 0
        self.sleep = sleep
        self.cands = cands
        self.candidates = candidates
        self.events = events
        self.unit = 0


class _Explorer:
    def __init__(self, program: Program, max_seqs: int, max_depth: int):
        self.program = program
        self.max_seqs = max_seqs
        self.max_depth = max_depth
        # unit bits in preference order (module docstring)
        shadows = sorted({shadow_unit(t.name, s.obj) for t in program.threads
                          for s in flatten(t.body) if isinstance(s, Store)})
        units = [t.name for t in program.threads] + shadows
        self.bit_of = {u: 1 << i for i, u in enumerate(units)}
        self.assert_names = [bare_names(a.expr) for a in program.asserts]
        # init writes are non-atomic but never race, so a program with no
        # non-atomic statement has no race to look for
        self.has_na = any(getattr(s, "mo", None) is NA
                          for t in program.threads for s in flatten(t.body))
        self.report = ExplorationReport(program=program.name)
        self._seen_ids: set[str] = set()
        self._queued: list[tuple] = []   # one entry per leaf, see _record_maximal
        self.nodes: list[_Node] = []

    # -- candidate filtering ---------------------------------------------------

    def _candidates(self, state: ExecState, units: list[str]
                    ) -> tuple[dict[int, ExecState], dict[int, Event], int, int]:
        """The ``units`` enabled at ``state`` that survive the incremental
        coherence filter, each one's bit mapped to its successor state and
        to the event it executed, the mask of those bits, and the mask of
        recovery units for pruned ones.  ``state`` is dead afterwards: the
        last unit advances it in place instead of stepping a clone.

        Pruned candidates still feed race detection: a pruned event's
        reversible races are the schedule changes that can realize its
        equivalence class coherently.  In addition, a violated ordering rule
        names the write whose shared-store update is overdue; scheduling that
        write's flush unit here is the direct repair, so it is proposed as a
        backtrack alternative.
        """
        bit_of = self.bit_of
        out: dict[int, ExecState] = {}
        events: dict[int, Event] = {}
        cands = recoveries = 0
        last = units[-1]
        for unit in units:
            bit = bit_of[unit]
            child = state.advance(unit) if unit == last else state.step(unit)
            verdict = check_step(child.rels)
            if verdict is None:
                out[bit] = child
                events[bit] = child.rels.events[-1]
                cands |= bit
                continue
            self._find_races(child)
            overdue = overdue_write(child.rels, *verdict)
            if overdue is not None:
                recoveries |= bit_of[overdue.flush_unit]
        return out, events, cands, recoveries

    # -- race detection ----------------------------------------------------------

    def _find_races(self, state: ExecState) -> None:
        """Races of the state's last event: visit only the earlier events
        that ``conflict_mask`` selects."""
        rels = state.rels
        cd_mask = rels.cd_mask
        executed = len(rels.events) - 1
        mask_e = cd_mask[executed]
        mask = conflict_mask(rels, executed)
        while mask:
            low = mask & -mask
            mask ^= low
            pos_d = low.bit_length() - 1
            if (mask_e >> pos_d) & 1 and _on_causal_path(cd_mask, pos_d, mask_e):
                continue
            self._insert_backtrack(rels, pos_d, executed)

    def _insert_backtrack(self, rels: LiveRelations, pos_d: int, executed: int) -> None:
        node_index = pos_d - rels.init_len
        if node_index < 0 or node_index >= len(self.nodes):
            return
        node = self.nodes[node_index]
        # v = the events after d that are not causally after d, then the
        # executed event itself; an initial is the first event of v of its
        # unit if no event of v is causally before it
        cd_mask = rels.cd_mask
        v = [x for x in range(pos_d + 1, executed) if not (cd_mask[x] >> pos_d) & 1]
        v.append(executed)
        v_bits = 0
        for x in v:
            v_bits |= 1 << x
        events, bit_of = rels.events, self.bit_of
        initials = claimed = 0
        for x in v:
            bit = bit_of[events[x].thr]
            if claimed & bit:
                continue
            claimed |= bit
            if not (cd_mask[x] & v_bits):
                initials |= bit
        if not initials:
            return
        # only entries that can actually run from the node satisfy the
        # insertion: sleeping units never run there, and units whose next
        # event the coherence filter rejected cannot be scheduled at all
        runnable = node.cands & ~node.sleep
        if node.backtrack & runnable & initials:
            return
        runnable &= initials
        if runnable:
            node.backtrack |= runnable & -runnable
        elif not node.backtrack & initials:
            node.backtrack |= initials & -initials

    # -- recording ----------------------------------------------------------------

    def _record_maximal(self, state: ExecState) -> None:
        """Count the maximal ``state`` and queue what ``_flush_records``
        reads of it: its sequence, schedule, final shared values (a leaf has
        no enabled unit, so nothing changes them) and final locals, and its
        assert outcome."""
        self.report.sequences_explored += 1
        self._queued.append((state.sequence(), state.schedule_so_far(), state.shr,
                             state.final_locals(),
                             check_asserts(self.program, state, self.assert_names)))
        if len(self._queued) >= RECORD_BATCH:
            self._flush_records()
        if self.report.sequences_explored >= self.max_seqs:
            raise ExplorationBudgetExceeded()

    def _flush_records(self) -> None:
        """Record the queued leaves: each stage runs over the whole batch in
        turn, then the per-leaf results join the report in DFS order."""
        leaves, self._queued = self._queued, []
        report = self.report
        batch = [compute_relations(leaf[0]) for leaf in leaves]
        report.non_mca_sequences += sum(not check_moca(rels).ok for rels in batch)
        report.c11_oracle_failures += sum(not check_c11_oracle(rels).ok
                                          for rels in batch)
        trace_ids = [canonical_trace_id(rels) for rels in batch]
        for (_, schedule, shr, final_locals, asserts), rels, trace_id in zip(
                leaves, batch, trace_ids):
            races = detect_na_races(rels) if self.has_na else []
            if races:
                report.racy_sequence_count += 1
                for a, b in races:
                    report.na_races.append({
                        "events": [a.pretty(), b.pretty()],
                        "schedule": schedule,
                        "trace_id": trace_id,
                    })
            for d in asserts.diagnostics:
                if d not in report.assert_diagnostics:
                    report.assert_diagnostics.append(d)
            for idx in asserts.violations:
                report.violations.append({
                    "assert": self.program.asserts[idx].text,
                    "index": idx,
                    "schedule": schedule,
                    "final_shared": dict(shr),
                    "trace_id": trace_id,
                })
            if trace_id not in self._seen_ids:
                self._seen_ids.add(trace_id)
                report.traces.append(TraceSummary(
                    trace_id=trace_id,
                    schedule=schedule,
                    final_shared=dict(shr),
                    final_locals=final_locals,
                    rf=sorted([w.name, r.name] for r, w in rf_pairs(rels)
                              if not r.is_init),
                    racy=bool(races),
                ))

    # -- DFS ------------------------------------------------------------------

    def run(self) -> ExplorationReport:
        """Depth-first search with ``self.nodes`` as the explicit stack: the
        top node either explores its next backtrack unit or is popped, and
        the unit it explored joins its sleep set once the search returns."""
        try:
            self._push(ExecState(self.program), 0)
            while self.nodes:
                node = self.nodes[-1]
                node.sleep |= node.unit
                bit = self._next_unit(node)
                node.unit = bit
                if not bit:
                    self.nodes.pop()
                    continue
                child = node.candidates[bit]
                events = node.events
                executed = events[bit]
                self._find_races(child)
                release_objs = child.rels.release_objs
                # a sleeping candidate stays asleep below if it commutes
                # with the executed event
                child_sleep = 0
                sleeping = node.sleep & node.cands
                while sleeping:
                    q = sleeping & -sleeping
                    sleeping ^= q
                    if not conflicts(executed, events[q], release_objs):
                        child_sleep |= q
                self._push(child, child_sleep)
        except ExplorationBudgetExceeded:
            self.report.budget_exhausted = True
        self._flush_records()
        self.report.distinct_traces = len(self._seen_ids)
        self.report.traces.sort(key=lambda t: t.schedule)
        return self.report

    def _push(self, state: ExecState, sleep: int) -> None:
        """Record ``state`` if maximal, else push a node for it unless every
        coherent candidate sleeps."""
        if len(self.nodes) > self.max_depth:
            self.report.budget_exhausted = True
            return
        units = state.enabled_units()
        if not units:
            self._record_maximal(state)
            return
        candidates, events, cands, recoveries = self._candidates(state, units)
        available = cands & ~sleep
        if not available:
            return  # sleep-set blocked or fully pruned: redundant or incoherent
        node = _Node(sleep, cands, candidates, events)
        node.backtrack = (available & -available) | (recoveries & cands)
        self.nodes.append(node)

    def _next_unit(self, node: _Node) -> int:
        """The lowest backtrack bit of ``node`` still to explore, marked
        done, or 0; backtrack units the coherence filter rejected count as
        done."""
        node.done |= node.backtrack & ~node.cands
        todo = node.backtrack & ~node.done & ~node.sleep
        bit = todo & -todo
        node.done |= bit
        return bit


def explore(program: Program, *, max_seqs: int = 1_000_000,
            max_depth: int = 10_000, use_early_write: bool = True) -> ExplorationReport:
    """Explore the state space of ``program`` (after the early-write
    transformation unless disabled) and report traces, assertion violations,
    and non-atomic races."""
    target = early_write_transform(program) if use_early_write else program
    return _Explorer(target, max_seqs, max_depth).run()


# ---------------------------------------------------------------------------
# Brute-force enumeration oracle
# ---------------------------------------------------------------------------

def _estimate_events(program: Program) -> int:
    from .ir import Cas, Fadd, Fence, IfBlock, Load

    def block_cost(body) -> int:
        n = 0
        for s in body:
            if isinstance(s, (Load, Fence, Fadd, Cas)):
                n += 1
            elif isinstance(s, Store):
                n += 2  # issue + flush
            elif isinstance(s, IfBlock):
                n += max(block_cost(s.then_body), block_cost(s.else_body))
        return n

    return sum(block_cost(t.body) for t in program.threads)


def enumerate_all(program: Program, *, cap: int = 12, use_early_write: bool = True,
                  prefilter: bool = True) -> dict[str, list[str]]:
    """Every interleaving of program and shadow events respecting
    enabledness, filtered by the coherence rules; no reduction.

    Returns {trace_id: witness schedule}.  With ``prefilter`` the coherence
    rules prune prefixes as the explorer does; without it, full interleavings
    are generated and filtered post-hoc (the two agree by construction and
    are compared in tests).
    """
    target = early_write_transform(program) if use_early_write else program
    estimate = _estimate_events(target)
    if estimate > cap:
        raise EnumerationCapExceeded(estimate, cap)

    results: dict[str, list[str]] = {}
    # depth first with an explicit stack: children are pushed last unit
    # first, so leaves are reached in the order of a recursive walk
    stack = [ExecState(target)]
    while stack:
        state = stack.pop()
        units = state.enabled_units()
        if not units:
            rels = compute_relations(state.sequence())
            if check_moca(rels).ok:
                tid = canonical_trace_id(rels)
                results.setdefault(tid, state.schedule_so_far())
            continue
        for unit in reversed(units):
            child = state.step(unit)
            if prefilter and check_step(child.rels) is not None:
                continue
            stack.append(child)
    return results
