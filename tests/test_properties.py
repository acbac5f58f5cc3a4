"""Validity properties of the happens-before assignment, checked over
randomly generated small programs.

For every explored maximal sequence the suite checks:

1. happens-before is a partial order contained in the sequence order;
2. events of each schedulable unit are totally ordered;
3. prefix stability: relations computed on a prefix equal the restriction
   of the full sequence's relations;
4. linearizations of the causal order replay to execution sequences with
   the same reads-from, store orders, final state, and trace id;
5. sequences with equal trace ids reach equal states;
6. equivalence is preserved under common extension;
7. an adjacent happens-before edge survives interposing an unrelated event
   (one not hb-after the edge's source and commuting with its target).

The causal order used for linearization is the exploration relation:
happens-before plus reads-from, issue-to-flush, per-object flush order,
read-before-later-flush, and write issue order.
"""

from __future__ import annotations

import random

from moca_verify import parse_program
from moca_verify.engine import ExecState, run_sequence
from moca_verify.explorer import (
    EnumerationCapExceeded,
    canonical_trace_id,
    conflicts,
    enumerate_all,
    explore,
)
from moca_verify.ir import (
    Cas,
    Fadd,
    IfBlock,
    Load,
    LocalAssign,
    Store,
    eval_expr,
    flatten,
    release_class_objects,
    stmt_objs,
)
from moca_verify.relations import compute_relations, position, rf_pairs
from moca_verify.transform import early_write_transform

STORE_ORDERS = ["na", "rlx", "rel", "acq_rel", "sc"]
LOAD_ORDERS = ["na", "rlx", "acq", "acq_rel", "sc"]
RMW_ORDERS = ["rlx", "acq", "rel", "acq_rel", "sc"]
FENCE_ORDERS = ["acq", "rel", "acq_rel", "sc"]


def random_program_source(rng: random.Random, store_orders=STORE_ORDERS,
                          rmw_orders=RMW_ORDERS, load_orders=LOAD_ORDERS,
                          fence_orders=FENCE_ORDERS) -> str:
    """A random program over objects ``a`` and ``b``; stores, fadds, loads
    and fences draw their orders from ``store_orders``, ``rmw_orders``,
    ``load_orders`` and ``fence_orders``."""
    objects = ["a", "b"]
    n_threads = rng.randint(1, 3)
    budget = rng.randint(2, 6)
    per_thread: list[list[str]] = [[] for _ in range(n_threads)]
    locals_of: list[list[str]] = [[] for _ in range(n_threads)]
    counter = 0

    def emit(t: int, indent: str = "  ") -> None:
        # locals defined inside a branch may be unassigned afterwards, so
        # only top-level definitions become candidates for later conditions
        nonlocal counter
        top_level = indent == "  "
        obj = rng.choice(objects)
        kind = rng.choice(["store", "store", "load", "load", "fadd", "fence"])
        if kind == "store":
            per_thread[t].append(f"{indent}store({obj}, {rng.randint(1, 2)}, "
                                 f"{rng.choice(store_orders)})")
        elif kind == "load":
            name = f"r{t}_{counter}"
            counter += 1
            if top_level:
                locals_of[t].append(name)
            per_thread[t].append(f"{indent}{name} = load({obj}, {rng.choice(load_orders)})")
        elif kind == "fadd":
            name = f"r{t}_{counter}"
            counter += 1
            if top_level:
                locals_of[t].append(name)
            per_thread[t].append(f"{indent}{name} = fadd({obj}, 1, {rng.choice(rmw_orders)})")
        else:
            per_thread[t].append(f"{indent}fence({rng.choice(fence_orders)})")

    remaining = budget
    while remaining > 0:
        t = rng.randrange(n_threads)
        if locals_of[t] and remaining >= 2 and rng.random() < 0.15:
            cond = rng.choice(locals_of[t])
            per_thread[t].append(f"  if ({cond} == {rng.randint(0, 1)}):")
            emit(t, indent="    ")
            remaining -= 1
        else:
            emit(t)
            remaining -= 1

    lines = ["program rnd", "init a = 0, b = 0"]
    for t in range(n_threads):
        lines.append(f"thread T{t + 1}:")
        body = per_thread[t] or ["  fence(sc)"]
        lines.extend(body)
    return "\n".join(lines) + "\n"


def _signature(state) -> tuple:
    return (tuple(sorted(state.shr.items())),
            tuple((t, tuple(sorted(env.items())))
                  for t, env in sorted(state.final_locals().items())))


def _ordered_before(state) -> "callable":
    """Sound dependence for linearization: the causal relation plus every
    same-object communication pair (store updates against reads or other
    updates of that object), in occurrence order.  A thread's own flush
    commutes with its own reads only in some contexts, so for re-linearizing
    a fixed sequence those pairs stay pinned."""
    from moca_verify.ir import Act

    rels = state.rels

    def flushish(e):
        return e.act in (Act.SHADOW, Act.RMW)

    def edge(a, b) -> bool:
        pa, pb = position(rels, a), position(rels, b)
        if pa > pb:
            return False
        if rels.cd_mask[pb] >> pa & 1:
            return True
        if flushish(a) and (b.is_read_like or flushish(b)) \
                and a.obj_written in b.objects:
            return True
        if a.is_read_like and flushish(b) and b.obj_written == a.obj_read:
            return True
        return False

    return edge


def _cd_linearizations(state, rng: random.Random, limit: int) -> list[list[str]]:
    """Random topological orders of the dependence over non-init events."""
    rels = state.rels
    events = rels.events[rels.init_len:]
    edge = _ordered_before(state)
    out = []
    for _ in range(limit):
        remaining = list(events)
        order = []
        while remaining:
            ready = [e for e in remaining
                     if not any(edge(d, e) for d in remaining if d is not e)]
            pick = rng.choice(ready)
            remaining.remove(pick)
            order.append(pick)
        out.append([e.thr for e in order])
    return out


def check_hb_validity(source: str, rng: random.Random,
                      max_traces: int = 3, max_linearizations: int = 6) -> None:
    program = parse_program(source)
    target = early_write_transform(program)
    report = explore(program)
    # every recorded sequence passes the post-hoc rules and the C11 oracle
    assert report.non_mca_sequences == 0, source
    assert report.c11_oracle_failures == 0, source

    # exploration never under-approximates the brute-force oracle
    try:
        oracle = enumerate_all(program, cap=12)
        assert report.trace_ids == set(oracle), source
    except EnumerationCapExceeded:
        pass

    states_by_id: dict[str, tuple] = {}

    for trace in report.traces[:max_traces]:
        final = run_sequence(target, trace.schedule)
        seq = final.sequence()
        rels = compute_relations(seq)
        events = seq.events

        # property 1: strict partial order within the sequence order
        for x in events:
            assert not rels.hb(x, x), source
            for y in events:
                if rels.hb(x, y):
                    assert x.is_init or position(rels, x) < position(rels, y), source
                    for z in events:
                        if rels.hb(y, z):
                            assert rels.hb(x, z), (source, x, y, z)

        # property 2: per-unit totality
        by_unit: dict[str, list] = {}
        for e in events:
            by_unit.setdefault(e.thr, []).append(e)
        for unit_events in by_unit.values():
            unit_events.sort(key=lambda e: e.idx)
            for i, x in enumerate(unit_events):
                for y in unit_events[i + 1:]:
                    assert rels.hb(x, y), source

        # property 3: prefix stability
        n_steps = len(trace.schedule)
        for k in sorted({n_steps // 2, max(n_steps - 1, 0)}):
            pstate = run_sequence(target, trace.schedule[:k])
            pseq = pstate.sequence()
            prels = compute_relations(pseq)
            for x in pseq.events:
                for y in pseq.events:
                    if x is not y:
                        assert prels.hb(x, y) == rels.hb(x, y), (source, k)

        # property 4: linearizations of the causal order are equivalent
        # execution sequences with identical reads-from and store orders
        base_id = canonical_trace_id(rels)
        base_rf = {r.key: w.key for r, w in rf_pairs(seq)}
        assert base_id == trace.trace_id
        states_by_id.setdefault(base_id, _signature(final))
        for schedule in _cd_linearizations(final, rng, max_linearizations):
            replayed = run_sequence(target, schedule)
            rseq = replayed.sequence()
            rrels = compute_relations(rseq)
            assert {r.key: w.key for r, w in rf_pairs(rseq)} == base_rf, source
            assert canonical_trace_id(rrels) == base_id, source
            assert _signature(replayed) == _signature(final), source
            # property 5 across representatives
            assert states_by_id[base_id] == _signature(replayed), source

            # property 6: common extension preserves equivalence, applied to
            # a shared prefix of the two equivalent linearizations
            if schedule != trace.schedule and n_steps >= 2:
                cut = n_steps // 2
                p1 = run_sequence(target, trace.schedule[:cut])
                p2_sched = schedule[:cut]
                try:
                    p2 = run_sequence(target, p2_sched)
                except Exception:
                    continue
                s1 = p1.sequence()
                s2 = p2.sequence()
                if canonical_trace_id(compute_relations(s1)) != \
                        canonical_trace_id(compute_relations(s2)):
                    continue
                if _signature(p1) != _signature(p2):
                    continue
                suffix = trace.schedule[cut:]
                e1 = run_sequence(target, trace.schedule[:cut] + suffix)
                e2 = run_sequence(target, p2_sched + suffix)
                q1, q2 = e1.sequence(), e2.sequence()
                assert canonical_trace_id(compute_relations(q1)) == \
                    canonical_trace_id(compute_relations(q2)), source

    # property 5 over every explored trace: id determines the final state
    for trace in report.traces:
        final = run_sequence(target, trace.schedule)
        sig = _signature(final)
        assert states_by_id.setdefault(trace.trace_id, sig) == sig, source

    check_interposition(source, report.traces[:max_traces])


def check_interposition(source: str, traces) -> None:
    """Property 7: an adjacent hb edge ``e1 -> e2`` of each trace survives
    interposing an event ``e3`` unrelated to both: not hb-after ``e1`` and
    commuting with ``e2`` (``conflicts``), as the reduction assumes."""
    target = early_write_transform(parse_program(source))
    for trace in traces:
        state = ExecState(target)
        release_objs = state.rels.release_objs
        for i, unit in enumerate(trace.schedule[:-1]):
            s1 = state.step(unit)
            e1 = s1.rels.events[-1]
            u2 = trace.schedule[i + 1]
            s12 = s1.step(u2)
            e2 = s12.rels.events[-1]
            if s12.rels.hb(e1, e2):
                for u3 in s1.enabled_units():
                    if u3 in (u2, unit):
                        continue
                    s13 = s1.step(u3)
                    e3 = s13.rels.events[-1]
                    if s13.rels.hb(e1, e3) or conflicts(e3, e2, release_objs):
                        continue
                    if u2 not in s13.enabled_units():
                        continue
                    s132 = s13.step(u2)
                    e2b = s132.rels.events[-1]
                    assert s132.rels.hb(e1, e2b), (source, e1, e2b)
            state = s1


def run_hb_validity_suite(n_programs: int, seed: int = 20240817) -> int:
    """Check ``n_programs`` random programs.  Programs and linearizations
    draw from separate generators, so a change in how many linearizations
    a program uses (its witness schedules) leaves the program set alone."""
    programs = random.Random(seed)
    linearizations = random.Random(seed + 1)
    checked = 0
    for _ in range(n_programs):
        source = random_program_source(programs)
        check_hb_validity(source, linearizations)
        checked += 1
    return checked


class TestHbValidity:
    def test_random_programs(self):
        assert run_hb_validity_suite(150) == 150

    def test_known_tricky_shapes(self):
        shapes = [
            # release sequence + acquire reader
            """
program rs
init a = 0, b = 0
thread T1:
  store(a, 1, rel)
  store(a, 2, rlx)
thread T2:
  r1 = load(a, acq)
  store(b, 1, rlx)
""",
            # unobserved racing stores
            """
program ww
init a = 0, b = 0
thread T1:
  store(a, 1, rlx)
thread T2:
  store(a, 2, rlx)
""",
            # sc mix with fences
            """
program scmix
init a = 0, b = 0
thread T1:
  store(a, 1, sc)
  fence(sc)
thread T2:
  r1 = load(a, sc)
  store(b, 1, sc)
""",
            # rmw chains
            """
program rmwchain
init a = 0, b = 0
thread T1:
  r1 = fadd(a, 1, acq_rel)
  store(b, r1, rel)
thread T2:
  r2 = fadd(a, 1, acq_rel)
  r3 = load(b, acq)
""",
        ]
        rng = random.Random(7)
        for s in shapes:
            check_hb_validity(s, rng)

    def test_write_issue_against_foreign_rmw_stays_ordered(self):
        # ``a`` has no release-class write, so T2's plain store and T1's
        # fadd may only commute if their order never reaches rf; it does:
        # T2's load reads its own store only if the fadd came first
        source = """
program rmwpitfall
init a = 0, b = 0
thread T1:
  store(b, 2, rel)
  r1 = fadd(a, 1, rlx)
thread T2:
  store(a, 2, rlx)
  r2 = load(a, rlx)
  store(b, 2, rlx)
"""
        check_hb_validity(source, random.Random(7))

    def test_interposed_event_commutes_with_edge_target(self):
        # sth_b(T1) is not hb-after T2's sc fadd, but interposing it before
        # T3's sc load changes the load's source from the fadd to T1's
        # relaxed store, and with it the sw edge; it conflicts with the load
        source = """
program interpose
init a = 0, b = 0
thread T1:
  store(b, 2, rlx)
  store(a, 1, rel)
thread T2:
  r1 = fadd(b, 1, sc)
thread T3:
  r2 = load(b, sc)
  r3 = load(b, rlx)
"""
        check_hb_validity(source, random.Random(0), max_traces=1000)

    def test_interposition_keeps_adjacent_sw_edge(self):
        # T1's release fadd and T2's acquire load of it are adjacent in a
        # trace; interposing T3's unrelated store must keep their sw edge
        source = """
program adjacentsw
init a = 0, b = 0
thread T1:
  r1 = fadd(a, 1, rel)
thread T2:
  r2 = load(a, acq)
thread T3:
  store(b, 1, rlx)
"""
        traces = explore(parse_program(source)).traces
        assert ["T1", "T2", "T3", "sth_b(T3)"] in [t.schedule for t in traces]
        check_interposition(source, traces)

    def test_rmw_follows_every_unchained_plain_write(self):
        # the plain stores of T1 and T2 to ``a`` are causally unordered, so
        # T3's fadd must follow each: T1's load reads the fadd only because
        # T1's store was issued before it
        target = early_write_transform(parse_program("""
program rmwafter
init a = 0
thread T1:
  store(a, 1, rlx)
  r1 = load(a, rlx)
thread T2:
  store(a, 2, rlx)
thread T3:
  r3 = fadd(a, 1, rlx)
"""))
        final = run_sequence(target, ["T1", "T2", "T3", "T1", "sth_a(T1)", "sth_a(T2)"])
        base_rf = {r.key: w.key for r, w in rf_pairs(final.sequence())}
        for schedule in _cd_linearizations(final, random.Random(1), 50):
            replayed = run_sequence(target, schedule).sequence()
            assert {r.key: w.key for r, w in rf_pairs(replayed)} == base_rf, schedule


def _written_by_threads(program, obj: str) -> int:
    return sum(any(isinstance(s, (Store, Fadd)) and obj in stmt_objs(s)
                   for s in flatten(t.body))
               for t in program.threads)


def test_plain_write_programs_match_enumeration():
    """Only ``na``/``rlx`` writes, so every object takes the path on which
    plain write issues commute; the explorer must still find every trace."""
    rng = random.Random(20261018)
    shared_plain = 0
    for _ in range(150):
        source = random_program_source(rng, store_orders=("na", "rlx"),
                                       rmw_orders=("rlx",))
        program = parse_program(source)
        target = early_write_transform(program)
        assert release_class_objects(target) == frozenset(), source
        assert explore(program).trace_ids == set(enumerate_all(program, cap=12)), source
        if any(_written_by_threads(target, obj) >= 2 for obj in target.objects):
            shared_plain += 1
    assert shared_plain >= 10


def _outcome(shared: dict[str, int], locals_of: dict[str, dict[str, int]]) -> tuple:
    return (tuple(sorted(shared.items())),
            tuple((t, tuple(sorted(env.items()))) for t, env in sorted(locals_of.items())))


def sc_outcomes(program) -> set[tuple]:
    """The final shared values and locals of every interleaving of whole
    statements over one shared store: sequential consistency, computed
    without the engine, the relations or the coherence rules."""
    names = [t.name for t in program.threads]
    outcomes: set[tuple] = set()

    def run(store: dict[str, int], conts: tuple, envs: tuple) -> None:
        live = [i for i, cont in enumerate(conts) if cont]
        if not live:
            outcomes.add(_outcome(store, dict(zip(names, envs))))
        for i in live:
            s, rest = conts[i][0], conts[i][1:]
            after, env = dict(store), dict(envs[i])
            if isinstance(s, IfBlock):
                branch = s.then_body if eval_expr(s.cond, env) != 0 else s.else_body
                rest = tuple(branch) + rest
            elif isinstance(s, LocalAssign):
                env[s.local] = eval_expr(s.value, env)
            elif isinstance(s, Store):
                after[s.obj] = eval_expr(s.value, env)
            elif isinstance(s, Fadd):
                after[s.obj] = store[s.obj] + eval_expr(s.delta, env)
            elif isinstance(s, Cas) and store[s.obj] == eval_expr(s.expect, env):
                after[s.obj] = eval_expr(s.desired, env)
            if isinstance(s, (Load, Fadd, Cas)):
                env[s.local] = store[s.obj]
            # a fence orders nothing that one store does not already order
            run(after, conts[:i] + (rest,) + conts[i + 1:], envs[:i] + (env,) + envs[i + 1:])

    run(dict(program.objects), tuple(tuple(t.body) for t in program.threads),
        tuple({} for _ in names))
    return outcomes


def _explored_outcomes(program) -> set[tuple]:
    return {_outcome(t.final_shared, t.final_locals) for t in explore(program).traces}


class TestScInterpreter:
    """Two program classes whose C11 outcomes are exactly the interleavings'
    (so ``sc_outcomes``), an oracle that shares no code with the rules."""

    def test_all_sc_programs_match_interleavings(self):
        # every access and fence ``sc``: C11 gives sequential consistency
        rng = random.Random(31)
        for _ in range(300):
            source = random_program_source(rng, store_orders=("sc",), rmw_orders=("sc",),
                                           load_orders=("sc",), fence_orders=("sc",))
            program = parse_program(source)
            assert _explored_outcomes(program) == sc_outcomes(program), source

    def test_single_object_programs_match_interleavings(self):
        # one object and no ``na``: coherence makes each object SC
        rng = random.Random(41)
        for _ in range(1000):
            source = random_program_source(
                rng, store_orders=STORE_ORDERS[1:], load_orders=LOAD_ORDERS[1:])
            program = parse_program(source.replace("(b,", "(a,"))
            assert _explored_outcomes(program) == sc_outcomes(program), source
