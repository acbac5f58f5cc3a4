from __future__ import annotations

import hashlib
import importlib.util
import json
import random
import time

import pytest
from click.testing import CliRunner

from conftest import CORPUS, corpus_names, corpus_program
from test_properties import random_program_source

from moca_verify import explorer as explorer_module
from moca_verify import parse_program, run_sequence
from moca_verify.cli import main
from moca_verify.coherence import _RULES, check_moca
from moca_verify.engine import ExecState
from moca_verify.explorer import (
    RECORD_BATCH,
    AssertOutcome,
    EnumerationCapExceeded,
    _Explorer,
    bare_names,
    canonical_trace_id,
    check_asserts,
    detect_na_races,
    enumerate_all,
    explore,
)
from moca_verify.ir import (
    Act,
    BinOp,
    Const,
    ContractViolation,
    Event,
    LocalRef,
    QualifiedRef,
    UndefinedName,
    UnOp,
    eval_expr,
)
from moca_verify.relations import LiveRelations, compute_relations, hb_pairs, rf_pairs
from moca_verify.transform import early_write_transform


def trace_of(program, schedule):
    st = run_sequence(program, schedule)
    seq = st.sequence()
    return st, seq, compute_relations(seq)


class TestTraceCounts:
    @pytest.mark.parametrize("name,expected", [
        ("corr", 3), ("mp", 3), ("wrc-addrs", 7), ("wr-ctrl", 4),
        ("z6-poxxs", 4), ("iriw-addrs", 15), ("ww-rr", 15), ("iriw", 8),
        ("simple-sw", 3), ("simple-ithb", 4), ("w-rwr", 4),
    ])
    def test_distinct_traces(self, name, expected):
        rep = explore(corpus_program(name))
        assert rep.distinct_traces == expected

    @pytest.mark.parametrize("name", corpus_names())
    def test_corpus_expect_traces_hold(self, name):
        program = corpus_program(name)
        assert explore(program).distinct_traces == program.expect_traces

    @pytest.mark.parametrize("name,sequences,traces", [
        # plain write issues of different threads commute on objects no
        # release-class write touches: one sequence per trace
        ("counter-3", 36, 36), ("flipper-3", 36, 36),
        # one of w-rwr's duplicates remains
        ("w-rwr", 5, 4),
        # control: no object written by two threads
        ("fibonacci-2", 20, 20),
        # sc events of different threads commute: one sequence per trace
        ("sb-sc", 3, 3), ("sb-fences", 4, 4),
    ])
    def test_sequences_explored(self, name, sequences, traces):
        rep = explore(corpus_program(name))
        assert (rep.sequences_explored, rep.distinct_traces) == (sequences, traces)

    def test_sb_ring_explores_one_sequence_per_trace(self):
        # four threads, each ``store(x_i, 1, sc)`` then ``load(x_{i+1}, sc)``:
        # the sc placement order is checked, not explored
        lines = ["program sb_ring_4", "init x1 = 0, x2 = 0, x3 = 0, x4 = 0"]
        for i in range(1, 5):
            lines += [f"thread T{i}:", f"  store(x{i}, 1, sc)",
                      f"  r{i} = load(x{i % 4 + 1}, sc)"]
        t0 = time.monotonic()
        rep = explore(parse_program("\n".join(lines) + "\n"))
        elapsed = time.monotonic() - t0
        assert (rep.sequences_explored, rep.distinct_traces) == (15, 15)
        assert rep.non_mca_sequences == 0 and rep.c11_oracle_failures == 0
        assert elapsed < 2.0, f"sb-ring-4 took {elapsed:.2f}s"

    def test_single_thread_single_trace(self):
        p = parse_program(
            "program s\ninit x = 0\nthread T1:\n  store(x, 1, rlx)\n  r = load(x, rlx)\n")
        rep = explore(p)
        assert rep.sequences_explored == 1 and rep.distinct_traces == 1

    def test_empty_program(self):
        rep = explore(corpus_program("empty"))
        assert rep.distinct_traces == 1


class TestCanonicalTraceId:
    def test_independent_flush_orders_share_id(self, mp):
        target = early_write_transform(mp)
        s1 = ["T1", "T1", "sth_x(T1)", "sth_f(T1)", "T2", "T2"]
        s2 = ["T1", "T1", "sth_f(T1)", "sth_x(T1)", "T2", "T2"]
        # different objects: the two flushes are independent
        _, q1, r1 = trace_of(target, s1)
        _, q2, r2 = trace_of(target, s2)
        assert canonical_trace_id(r1) == canonical_trace_id(r2)

    def test_different_rf_different_id(self, mp):
        target = early_write_transform(mp)
        s1 = ["T1", "T1", "sth_x(T1)", "sth_f(T1)", "T2", "T2"]   # reads 1,1
        s2 = ["T2", "T2", "T1", "T1", "sth_x(T1)", "sth_f(T1)"]   # reads 0,0
        _, q1, r1 = trace_of(target, s1)
        _, q2, r2 = trace_of(target, s2)
        assert canonical_trace_id(r1) != canonical_trace_id(r2)

    def test_same_schedule_same_id(self, w_rwr):
        s = ["T1", "sth_x(T1)", "T2", "T2", "T2", "sth_x(T2)"]
        _, q1, r1 = trace_of(w_rwr, s)
        _, q2, r2 = trace_of(w_rwr, s)
        assert canonical_trace_id(r1) == canonical_trace_id(r2)

    def test_unobserved_flush_order_distinguished(self):
        # two writers, no readers: the two final states are different traces
        p = parse_program(
            "program ww\ninit x = 0\nthread T1:\n  store(x, 1, rlx)\n"
            "thread T2:\n  store(x, 2, rlx)\n")
        s1 = ["T1", "T2", "sth_x(T1)", "sth_x(T2)"]
        s2 = ["T1", "T2", "sth_x(T2)", "sth_x(T1)"]
        _, q1, r1 = trace_of(p, s1)
        _, q2, r2 = trace_of(p, s2)
        assert canonical_trace_id(r1) != canonical_trace_id(r2)


class TestNaRaces:
    def test_simple_sw_counts(self):
        rep = explore(corpus_program("simple-sw"))
        assert rep.sequences_explored == 3
        assert rep.racy_sequence_count == 2

    def test_simple_ithb_counts(self):
        rep = explore(corpus_program("simple-ithb"))
        assert rep.sequences_explored == 4
        assert rep.racy_sequence_count == 2

    def test_all_sc_program_has_no_na_races(self):
        rep = explore(corpus_program("sb-sc"))
        assert rep.na_races == [] and rep.racy_sequence_count == 0

    def test_two_unsynchronized_na_stores_race(self):
        p = parse_program(
            "program r\ninit x = 0\nthread T1:\n  store(x, 1, na)\n"
            "thread T2:\n  store(x, 2, na)\n")
        rep = explore(p)
        assert rep.racy_sequence_count == rep.sequences_explored
        pairs = {tuple(r["events"]) for r in rep.na_races}
        assert len(pairs) == 1

    def test_race_requires_mhb_absence(self):
        # synchronized pair: never racy
        rep = explore(corpus_program("mp-fence-acq"))
        racy_ids = {r["trace_id"] for r in rep.na_races}
        synced = [t for t in rep.traces if t.final_locals["T2"].get("r") == 1]
        assert all(t.trace_id not in racy_ids for t in synced)


class TestAsserts:
    def test_iriw_never_fires(self):
        rep = explore(corpus_program("iriw"))
        assert rep.violations == []

    def test_vacuous_predicate_fires(self):
        p = parse_program(
            "program v\ninit x = 0\nthread T1:\n  r = load(x, rlx)\n"
            "assert never (x >= 0)\n")
        rep = explore(p)
        assert len(rep.violations) == len(rep.trace_ids)

    def test_undefined_local_is_diagnostic_not_violation(self):
        p = parse_program(
            "program u\ninit x = 0\nthread T1:\n  r = load(x, rlx)\n"
            "assert never (nosuch == 1)\n")
        rep = explore(p)
        assert rep.violations == []
        assert any("undefined" in d for d in rep.assert_diagnostics)

    def test_mp_assert_never_fires(self):
        rep = explore(corpus_program("mp"))
        assert rep.violations == []

    def test_diagnostics_are_kept_once_each(self):
        # the defined half of the predicate does not make it evaluable
        source = (CORPUS / "counter-3.lit").read_text().replace(
            "assert never (c < 1 || c > 3)",
            "assert never (c == 5 || q == 1)\nassert never (p == 1 && q == 1)")
        rep = explore(parse_program(source))
        assert rep.sequences_explored == 36 and rep.violations == []
        assert rep.assert_diagnostics == ["assert 0: undefined reference q",
                                          "assert 1: undefined reference p"]
        assert rep.to_json()["assert_diagnostics"] == rep.assert_diagnostics
        assert "assert_diagnostics" not in explore(corpus_program("counter-3")).to_json()

    def test_asserts_match_the_rewriting_evaluator(self, monkeypatch):
        """``check_asserts`` resolves each assert's bare names once per
        sequence; it must give the outcome, diagnostics included, of the
        evaluator that rewrote every bare name inside the tree."""
        predicates = [
            "c == 3", "(r1 == 0 && r2 == 0) || r3 == 1", "c == 5 || q == 1",
            "p == 1 && q == 1", "T1.r1 == 0 || T9.r == 1", "c == 1 || T3.nosuch == 0",
            "q + c == 1 || -r1 == 0", "!(T2.r2 == c)", "r1 == r1 && r == r1",
            "r == 0 || r1 == 0", "c == T1.r1 + 1",
        ]
        base = (CORPUS / "counter-3.lit").read_text().replace(
            "assert never (c < 1 || c > 3)\n", "").replace("expect traces = 36\n", "")
        # ``r`` is a local of two threads: ambiguous, hence undefined
        base = base.replace("thread T3:", "  r = load(c, rlx)\nthread T3:\n  r = load(c, rlx)")
        program = parse_program(base + "".join(f"assert never ({a})\n" for a in predicates))
        target = early_write_transform(program)
        names = [bare_names(a.expr) for a in target.asserts]
        outcomes = set()
        for st in maximal_states(program, monkeypatch)[1]:
            got = outcome(check_asserts(target, st, names))
            assert outcome(check_asserts(target, st)) == got
            assert got == outcome(reference_check_asserts(target, st))
            outcomes.add(got)
        # the sequences differ in which asserts fire and which are undefined
        assert len(outcomes) > 1
        assert any(d.endswith("T9.r") for _, ds in outcomes for d in ds)

    def test_sb_violation_found_with_witness(self):
        rep = explore(corpus_program("luc10"))
        assert len(rep.violations) == 1
        v = rep.violations[0]
        # the witness replays to the flagged outcome
        target = early_write_transform(corpus_program("luc10"))
        st = run_sequence(target, v["schedule"])
        assert st.lcl["T1"]["r1"] == 0 and st.lcl["T2"]["r2"] == 0


RECOVERY_NEEDED = """\
program rnd
init a = 0, b = 0
thread T1:
  store(a, 2, rlx)
thread T2:
  r1_0 = load(a, sc)
thread T3:
  store(b, 2, rlx)
  store(a, 1, sc)
"""


class TestEnumerateAll:
    def test_single_write_single_interleaving(self):
        p = parse_program("program s\ninit x = 0\nthread T1:\n  store(x, 1, rlx)\n")
        traces = enumerate_all(p)
        assert len(traces) == 1
        assert list(traces.values())[0] == ["T1", "sth_x(T1)"]

    def test_cap_refusal_carries_estimate(self):
        p = corpus_program("fibonacci-2")
        with pytest.raises(EnumerationCapExceeded) as exc:
            enumerate_all(p, cap=4)
        assert exc.value.estimate == 12

    def test_ww_rr_bracket(self):
        assert len(enumerate_all(corpus_program("ww-rr"))) == 15

    def test_mp_oracle_equals_explorer(self, mp):
        assert set(enumerate_all(mp)) == explore(mp).trace_ids

    def test_overdue_flush_recovery_reaches_every_trace(self):
        """Some prefixes fail ``shmo1`` at T2's load on a write whose flush
        is still pending.  The flush unit ``_candidates`` proposes for that
        write is the search's only way to one of the six traces: without
        the proposal, ``explore`` finds five."""
        p = parse_program(RECOVERY_NEEDED)
        traces = set(enumerate_all(p))
        assert len(traces) == 6
        assert explore(p).trace_ids == traces


class TestWitnessReplay:
    def test_every_racy_witness_reproduces(self):
        p = corpus_program("simple-sw")
        target = early_write_transform(p)
        rep = explore(p)
        for r in rep.na_races:
            st = run_sequence(target, r["schedule"])
            seq = st.sequence()
            rels = compute_relations(seq)
            races = {(a.pretty(), b.pretty()) for a, b in detect_na_races(rels)}
            assert tuple(r["events"]) in races

    def test_report_deterministic(self):
        a = explore(corpus_program("ww-rr")).to_json()
        b = explore(corpus_program("ww-rr")).to_json()
        assert a == b

    def test_every_trace_schedule_replays_coherently(self):
        for name in ("mp", "w-rwr", "sb-sc", "store-then-rmw"):
            p = corpus_program(name)
            target = early_write_transform(p)
            rep = explore(p)
            for t in rep.traces:
                st = run_sequence(target, t.schedule)
                assert st.enabled_units() == []
                assert st.shr == t.final_shared
                seq = st.sequence()
                assert check_moca(compute_relations(seq)).ok


class TestBudget:
    def test_max_seqs_flags_partial(self):
        rep = explore(corpus_program("ww-rr"), max_seqs=3)
        assert rep.budget_exhausted
        assert rep.sequences_explored == 3

    def test_a_search_of_exactly_max_seqs_is_complete(self):
        full = explore(corpus_program("ww-rr"))
        total = full.sequences_explored
        exact = explore(corpus_program("ww-rr"), max_seqs=total)
        assert not exact.budget_exhausted
        assert exact.to_json() == full.to_json()
        for max_seqs in (total - 1, 0):
            rep = explore(corpus_program("ww-rr"), max_seqs=max_seqs)
            assert rep.budget_exhausted
            assert rep.sequences_explored == max_seqs

    def test_oracle_equivalence_small_corpus(self):
        for name in corpus_names():
            p = corpus_program(name)
            try:
                oracle = enumerate_all(p, cap=12)
            except EnumerationCapExceeded:
                continue
            rep = explore(p)
            assert rep.trace_ids == set(oracle), name


# ---------------------------------------------------------------------------
# The trace id against its earlier formula
# ---------------------------------------------------------------------------

def reference_trace_id(rels):
    """``canonical_trace_id`` as first written: an Event-keyed name map and
    one formatted string per ``hb_pairs`` tuple.  ``bench/trace_ids.json``
    pins ids made this way, so the payload must stay byte-identical."""
    name = {e: e.name for e in rels.events}
    events = sorted(name.values())
    rf = sorted(f"{name[w]}->{name[r]}" for r, w in rf_pairs(rels))
    mo = {obj: [name[rels.events[w]] for w in ws] for obj, ws in rels.mo.items()}
    hb = sorted(f"{name[a]}->{name[b]}" for a, b in hb_pairs(rels))
    payload = json.dumps({"events": events, "rf": rf, "mo": mo, "hb": hb},
                         sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def outcome(o: AssertOutcome) -> tuple:
    """What an assert outcome holds: the violated asserts and the diagnostics."""
    return tuple(o.violations), tuple(o.diagnostics)


def reference_check_asserts(program, final) -> AssertOutcome:
    """``check_asserts`` as first written: every bare name is rewritten to an
    object's final value or a thread-qualified reference, then the tree is
    evaluated."""
    out = AssertOutcome()
    locals_by_thread = final.final_locals()

    def resolve(ref) -> int:
        env = locals_by_thread.get(ref.thread)
        if env is None or ref.local not in env:
            raise UndefinedName(f"{ref.thread}.{ref.local}")
        return env[ref.local]

    def rewrite(e):
        if isinstance(e, LocalRef):
            if e.name in final.program.objects:
                return Const(final.shr[e.name])
            owners = [t for t, ls in locals_by_thread.items() if e.name in ls]
            if len(owners) == 1:
                return QualifiedRef(owners[0], e.name)
            raise UndefinedName(e.name)
        if isinstance(e, UnOp):
            return UnOp(e.op, rewrite(e.operand))
        if isinstance(e, BinOp):
            return BinOp(e.op, rewrite(e.left), rewrite(e.right))
        return e

    for i, a in enumerate(program.asserts):
        try:
            value = eval_expr(rewrite(a.expr), {}, resolve)
        except UndefinedName as ue:
            out.diagnostics.append(f"assert {i}: undefined reference {ue.name}")
            continue
        if value != 0:
            out.violations.append(i)
    return out


def maximal_states(program, monkeypatch):
    """Explore ``program``; return its report and every recorded state."""
    states = []
    record = _Explorer._record_maximal

    def keep(self, state):
        states.append(state)
        record(self, state)

    with monkeypatch.context() as m:
        m.setattr(_Explorer, "_record_maximal", keep)
        report = explore(program)
    return report, states


# JSON escapes non-ASCII characters, so the id's payload must come from
# json.dumps here, not from joined strings
NON_ASCII = """\
program non_ascii
init yé = 0, x = 0
thread Té:
  store(yé, 1, rel)
  r = load(x, rlx)
thread T2:
  s = load(yé, acq)
  store(x, 1, rlx)
"""


def test_trace_id_matches_reference_formula(monkeypatch):
    rng = random.Random(20261020)
    programs = [corpus_program(name) for name in corpus_names()]
    programs += [parse_program(random_program_source(rng)) for _ in range(40)]
    programs.append(parse_program(NON_ASCII))
    sequences = 0
    for program in programs:
        for st in maximal_states(program, monkeypatch)[1]:
            sequences += 1
            for rels in (st.rels, compute_relations(st.sequence())):
                assert canonical_trace_id(rels) == reference_trace_id(rels), \
                    (program.name, st.schedule_so_far())
    assert sequences > 200


# ---------------------------------------------------------------------------
# Stepping: a node's state goes to its last candidate, events are built once
# ---------------------------------------------------------------------------

def pushed_states(program, monkeypatch, check):
    """Explore ``program`` calling ``check(state, schedule)`` on every state
    the search pushes, before it is expanded; ``schedule`` is the units the
    nodes on the search path explore (their ``unit`` bits mapped back to
    unit names), i.e. what the state should have run.  Returns the report."""
    push = _Explorer._push

    def checked(self, state, sleep):
        name_of = {bit: unit for unit, bit in self.bit_of.items()}
        check(state, [name_of[node.unit] for node in self.nodes])
        push(self, state, sleep)

    with monkeypatch.context() as m:
        m.setattr(_Explorer, "_push", checked)
        return explore(program)


def test_donated_states_match_a_fresh_replay(monkeypatch):
    """When a node explores unit ``u``, the child state equals a fresh replay
    of the node's schedule plus ``u``, although all but the first pushed
    state are clones or in-place advances of a parent."""
    seen: dict[int, object] = {}
    donated = 0

    for name in corpus_names():
        target = early_write_transform(corpus_program(name))

        def check(state, schedule):
            nonlocal donated
            donated += id(state) in seen
            seen[id(state)] = state    # kept alive, so ids stay unique
            fresh = run_sequence(target, schedule)
            a, b = state.rels, fresh.rels
            where = (name, schedule)
            assert state.schedule_so_far() == schedule, where
            assert a.events == b.events, where
            assert a.hb_mask == b.hb_mask, where
            assert a.cd_mask == b.cd_mask, where
            assert a.rf == b.rf, where
            assert a.flush_pos == b.flush_pos, where
            assert state.shr == fresh.shr, where
            assert state.lcl == fresh.lcl, where

        pushed_states(corpus_program(name), monkeypatch, check)
    assert donated > 100


def test_events_are_built_once_per_program_point(monkeypatch):
    """Within one exploration an event is one object per program point, and
    the table holds what ``Event(...)`` builds from its key."""
    for name in corpus_names():
        tables = []
        by_point: dict[tuple, Event] = {}

        def check(state, schedule):
            tables.append(state.table)
            for ev in state.rels.events[state.rels.init_len:]:
                assert by_point.setdefault((ev, id(ev.stmt)), ev) is ev, name

        pushed_states(corpus_program(name), monkeypatch, check)
        table = tables[0]
        assert all(t is table for t in tables), name
        assert set(map(id, by_point.values())) <= set(map(id, table.values())), name
        for (unit, idx, stmt_id, act), ev in table.items():
            stmt = ev.stmt
            assert id(stmt) == stmt_id, name
            obj = (() if act is Act.FENCE else
                   (stmt.obj, stmt.obj) if act is Act.RMW else (stmt.obj,))
            fresh = Event(thr=unit, act=act, obj=obj, ord=stmt.mo, idx=idx, stmt=stmt)
            assert fresh == ev and hash(fresh) == hash(ev), (name, ev)
            assert fresh.name == ev.name and fresh.pretty() == ev.pretty(), name
            assert fresh.stmt is ev.stmt, name


@pytest.mark.parametrize("name", ["counter-3", "flipper-3"])
def test_stepping_counts(name, monkeypatch):
    """Every distinct event is constructed once, and every candidate step
    clones except the last one of each expanded node."""
    built: list[tuple] = []
    counts = {"clone": 0, "advance": 0, "_candidates": 0}
    init = Event.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append((self.thr, self.act, self.obj, self.ord, self.idx, id(self.stmt)))

    def counted(cls, attr):
        original = getattr(cls, attr)

        def wrapper(*args, **kwargs):
            counts[attr] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(cls, attr, wrapper)

    monkeypatch.setattr(Event, "__init__", counting_init)
    counted(ExecState, "clone")
    counted(ExecState, "advance")
    counted(_Explorer, "_candidates")
    report = explore(corpus_program(name))
    assert report.sequences_explored == 36
    assert len(built) == len(set(built))
    assert counts["_candidates"] > 0
    assert counts["clone"] == counts["advance"] - counts["_candidates"]


def test_event_hashing_stays_off_the_hot_path(monkeypatch):
    """Every relation table is indexed by sequence position, and an event
    that enters from outside is found off its unit's mask
    (``relations.position``), so nothing hashes an event.  While the tables
    were keyed by ``Event``, one exploration of counter-3 (report included)
    hashed events 13 927 times; with an ``Event``-to-position index, once
    per appended event (191 times); now never."""
    calls = {"hash": 0, "register": 0}
    event_hash, register = Event.__hash__, LiveRelations._register

    def counted_hash(self):
        calls["hash"] += 1
        return event_hash(self)

    def counted_register(self, *args, **kwargs):
        calls["register"] += 1
        return register(self, *args, **kwargs)

    monkeypatch.setattr(Event, "__hash__", counted_hash)
    monkeypatch.setattr(LiveRelations, "_register", counted_register)
    report = explore(corpus_program("counter-3"))
    report.to_json()
    assert report.sequences_explored == 36
    assert calls["register"] > 0
    assert calls["hash"] == 0


def bench_spans():
    """``bench/spans.py``, loaded from its file without changing it."""
    path = CORPUS.parent / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_name_the_benchmark_spans_wrap_is_importable():
    """``bench/spans.py`` times each layer by wrapping names it looks up on
    ``moca_verify.explorer``; a name that moved would read as a zero span.
    The file is only read here: every name must resolve, none may be
    reported absent, and each span must see calls during one ``explore``."""
    spans = bench_spans()
    assert {"ExecState.step", "ExecState.sequence"} <= set(spans.WRAPPED.values())
    for attr in spans.WRAPPED.values():
        owner = explorer_module
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        assert callable(owner), attr
    # na statements, so race detection runs; an assert, so asserts run
    program = parse_program(counter_source(2, "na"))
    tracer = spans.Tracer(explorer_module)
    with tracer.installed():
        explorer_module.explore(program)
    assert tracer.absent == []
    assert {name for name in spans.WRAPPED if not tracer.calls[name]} == set()


def test_explored_trace_ids_match_the_benchmark_pins():
    """``bench/trace_ids.json`` pins the trace-id set of every corpus
    program and of ``counter-4``; the file is only read here.  The pins do
    not depend on local names or values, so ``counter_source(4)`` stands
    for the benchmark's seeded ``counter-4``."""
    pins = json.loads((CORPUS.parent / "bench" / "trace_ids.json").read_text())
    programs = {f"corpus/{name}": corpus_program(name) for name in corpus_names()}
    programs["counter-4"] = parse_program(counter_source(4))
    assert len(programs) == 26
    for key, program in programs.items():
        assert sorted(explore(program).trace_ids) == pins[key], key
    assert len(pins["counter-4"]) == 576


def test_every_rule_has_a_benchmark_prune_counter():
    """The benchmark counts ``check_step``'s prunes per rule it names in
    ``PRUNE_RULES``; a rule missing there would be pruned uncounted."""
    assert {name for name, _ in _RULES} <= set(bench_spans().PRUNE_RULES)


# ---------------------------------------------------------------------------
# The search's visible choices
# ---------------------------------------------------------------------------

OUT_OF_ORDER = """\
program out_of_order
init x = 0, y = 0
thread T2:
  store(x, 1, rlx)
  store(y, 1, rel)
thread T1:
  store(y, 2, rlx)
  r = load(x, rlx)
  store(x, 2, rlx)
"""


class TestSearchChoices:
    """The search prefers program threads in declaration order, then
    shadow-threads by name; which unit it explores first decides each
    trace's witness schedule and, with duplicates, ``sequences_explored``.
    The values below were recorded before the search held its units as
    bits."""

    def test_units_are_bits_in_preference_order(self):
        explorer = _Explorer(early_write_transform(parse_program(OUT_OF_ORDER)), 10, 10)
        assert list(explorer.bit_of) == ["T2", "T1", "sth_x(T1)", "sth_x(T2)",
                                         "sth_y(T1)", "sth_y(T2)"]
        assert list(explorer.bit_of.values()) == [1 << i for i in range(6)]

    def test_threads_declared_out_of_name_order(self):
        rep = explore(parse_program(OUT_OF_ORDER))
        assert (rep.sequences_explored, rep.distinct_traces) == (12, 6)
        assert [(t.trace_id, " ".join(t.schedule)) for t in rep.traces] == [
            ("645a3c8d1fec6471", "T2 T2 T1 T1 T1 sth_x(T1) sth_x(T2) sth_y(T1) sth_y(T2)"),
            ("75cf7c4d74993b91", "T2 T2 T1 T1 T1 sth_x(T1) sth_x(T2) sth_y(T2) sth_y(T1)"),
            ("360661e54526d0ec", "T2 T2 T1 T1 T1 sth_x(T2) sth_x(T1) sth_y(T1) sth_y(T2)"),
            ("6dedfe955ce19237", "T2 T2 T1 T1 T1 sth_x(T2) sth_x(T1) sth_y(T2) sth_y(T1)"),
            ("599bd997387dfc96", "T2 T2 T1 sth_x(T2) T1 T1 sth_x(T1) sth_y(T1) sth_y(T2)"),
            ("41bc341273ebe034", "T2 T2 T1 sth_x(T2) T1 T1 sth_x(T1) sth_y(T2) sth_y(T1)"),
        ]

    def test_reports_match_the_recorded_digest(self):
        """Every report of the corpus and of 300 random programs, hashed in
        order: any change in a count, a witness schedule or an id shows."""
        digest = hashlib.sha256()
        programs = [corpus_program(name) for name in corpus_names()]
        rng = random.Random(1212)
        programs += [parse_program(random_program_source(rng)) for _ in range(300)]
        for program in programs:
            report = explore(program).to_json()
            digest.update(json.dumps(report, sort_keys=True).encode())
        assert digest.hexdigest() == (
            "747934f8193fa41293ccaab4ccce1b2d0a4ce1156c624e2825a9c369849fcd62")

    def test_a_unit_without_a_bit_raises(self, monkeypatch):
        enabled = ExecState.enabled_units
        monkeypatch.setattr(ExecState, "enabled_units",
                            lambda self: enabled(self) + ["sth_z(T1)"])
        with pytest.raises(KeyError, match="sth_z"):
            explore(corpus_program("mp"))


# ---------------------------------------------------------------------------
# Recording in batches
# ---------------------------------------------------------------------------

def counter_source(n: int, order: str = "rlx", extra: str = "") -> str:
    """``n`` threads each loading ``c`` and storing the value plus one."""
    lines = [f"program counter_{n}", "init c = 0"]
    for i in range(1, n + 1):
        lines += [f"thread T{i}:", f"  r{i} = load(c, {order})",
                  f"  store(c, r{i} + 1, {order})"]
    lines.append(f"assert never (c < 1 || c > {n})")
    if extra:
        lines.append(extra)
    return "\n".join(lines) + "\n"


def fib_source(k: int) -> str:
    """Two threads of ``k`` accumulate-and-publish rounds on x and y."""
    lines = [f"program fibonacci_{k}", "init x = 0, y = 0"]
    for t, mine, other, acc, b in ((1, "x", "y", "a", "b"), (2, "y", "x", "c", "d")):
        lines += [f"thread T{t}:", f"  {acc} = 1"]
        for j in range(1, k + 1):
            lines += [f"  {b}{j} = load({other}, rlx)", f"  {acc} = {acc} + {b}{j}",
                      f"  store({mine}, {acc}, rlx)"]
    lines.append("assert never (x < 1 || y < 1)")
    return "\n".join(lines) + "\n"


class TestRecordBatches:
    """Leaves are recorded ``RECORD_BATCH`` at a time; the reports below were
    hashed before recording was batched, one leaf at a time."""

    @pytest.mark.parametrize("source,max_seqs,counts,digest", [
        # 175 leaves: the last batch is partial
        (fib_source(3), 1_000_000, (175, 0, 0, False),
         "0db446864171a3f286f4bc8ea3730decd7707c12adcc35922b942a984828d449"),
        # the budget stops the search in the middle of the second batch
        (counter_source(4), 100, (100, 0, 0, True),
         "bf2e02c9df61bcf2f83051709305839a20659dddd5b1ae769949e7e2f0aa7106"),
        # violations and races in every batch, in DFS order; 576 leaves
        # fill the last batch exactly
        (counter_source(4, "na", "assert never (c == 4)"), 1_000_000,
         (576, 24, 10368, False),
         "068566b4f31fd192ce7949c1709f743833b5fda4979c8e228b7670a2ee9270ca"),
    ], ids=["fib-3", "counter-4-budget", "counter-4-na"])
    def test_reports_match_the_unbatched_digest(self, source, max_seqs, counts, digest):
        report = explore(parse_program(source), max_seqs=max_seqs)
        assert report.sequences_explored > RECORD_BATCH
        assert (report.sequences_explored, len(report.violations),
                len(report.na_races), report.budget_exhausted) == counts
        doc = json.dumps(report.to_json(), sort_keys=True).encode()
        assert hashlib.sha256(doc).hexdigest() == digest

    def test_an_oracle_exception_surfaces_without_a_report(self, monkeypatch, tmp_path):
        calls = 0
        compute = explorer_module.compute_relations

        def failing(seq):
            nonlocal calls
            calls += 1
            if calls == 70:
                raise ContractViolation("unresolved read in sequence")
            return compute(seq)

        monkeypatch.setattr(explorer_module, "compute_relations", failing)
        program = parse_program(counter_source(4))
        with pytest.raises(ContractViolation, match="unresolved read"):
            explore(program)
        assert calls == 70
        lit = tmp_path / "counter.lit"
        lit.write_text(counter_source(4))
        calls = 0
        result = CliRunner().invoke(main, ["verify", str(lit), "--json"])
        assert result.exit_code == 4
        assert result.stdout == ""
        assert result.stderr.startswith("internal error: ContractViolation: ")
