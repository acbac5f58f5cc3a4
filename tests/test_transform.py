from __future__ import annotations

from conftest import corpus_names, corpus_program, structurally_equal

import random

from oracles import check_spr
from test_properties import random_program_source

from moca_verify import parse_program, pretty_print
from moca_verify.ir import IfBlock, Load, Store, flatten, validate
from moca_verify.transform import early_write_transform


def statements(program):
    return [s for t in program.threads for s in flatten(t.body)]


def record_fields(record):
    """Every field of a record: the ``__slots__`` of its class and bases."""
    return {name: getattr(record, name) for cls in type(record).__mro__
            for name in getattr(cls, "__slots__", ())}


def program_snapshot(program):
    """Every field of ``program`` and of its statements, nested bodies
    included."""
    def block(body):
        return [(type(s).__name__, dict(record_fields(s), then_body=None, else_body=None))
                + ((block(s.then_body), block(s.else_body))
                   if isinstance(s, IfBlock) else ())
                for s in body]
    return (program.name, dict(program.objects),
            [(t.name, block(t.body)) for t in program.threads],
            [record_fields(a) for a in program.asserts], program.expect_traces)


def thread_kinds(program, name="T1"):
    return [type(s).__name__ for s in program.thread(name).body]


def parse_thread(body: str, init="init x = 0, y = 0"):
    return parse_program(f"program t\n{init}\nthread T1:\n{body}")


class TestHoisting:
    def test_store_hoists_above_relaxed_load(self):
        p = parse_thread("  r1 = load(x, rlx)\n  store(y, 1, rlx)\n")
        q = early_write_transform(p)
        assert thread_kinds(q) == ["Store", "Load"]
        assert check_spr(p, q).ok

    def test_acquire_load_blocks_hoist(self):
        p = parse_thread("  r1 = load(x, acq)\n  store(y, 1, rlx)\n")
        q = early_write_transform(p)
        assert thread_kinds(q) == ["Load", "Store"]

    def test_data_dependence_blocks_hoist(self):
        p = parse_thread("  r1 = load(x, rlx)\n  store(y, r1, rlx)\n")
        q = early_write_transform(p)
        assert thread_kinds(q) == ["Load", "Store"]

    def test_same_object_order_preserved(self):
        p = parse_thread("  r1 = load(x, rlx)\n  store(x, 1, rlx)\n")
        q = early_write_transform(p)
        assert thread_kinds(q) == ["Load", "Store"]

    def test_writes_keep_relative_order(self):
        p = parse_thread("  store(x, 1, rlx)\n  store(y, 2, rlx)\n")
        q = early_write_transform(p)
        body = q.thread("T1").body
        assert [s.obj for s in body] == ["x", "y"]

    def test_acquire_class_fence_blocks(self):
        p = parse_thread("  r1 = load(x, rlx)\n  fence(acq)\n  store(y, 1, rlx)\n")
        q = early_write_transform(p)
        assert thread_kinds(q) == ["Load", "Fence", "Store"]

    def test_release_class_fence_blocks(self):
        p = parse_thread("  r1 = load(x, rlx)\n  fence(rel)\n  store(y, 1, rlx)\n")
        q = early_write_transform(p)
        assert thread_kinds(q) == ["Load", "Fence", "Store"]

    def test_relaxed_fence_is_transparent(self):
        p = parse_thread("  r1 = load(x, rlx)\n  fence(rlx)\n  store(y, 1, rlx)\n")
        q = early_write_transform(p)
        assert thread_kinds(q) == ["Store", "Load", "Fence"]

    def test_hoist_permitted_above_release_write(self):
        # only dependences and upward restrictions block; a release *write*
        # imposes a downward restriction and is itself unhoistable past, but
        # an unrelated relaxed store above a relaxed load below it may move
        p = parse_thread("  store(x, 1, rel)\n  r1 = load(x, rlx)\n  store(y, 1, rlx)\n")
        q = early_write_transform(p)
        # store(y) passes the load but stops below the release store (tie rule)
        assert thread_kinds(q) == ["Store", "Store", "Load"]
        assert [getattr(s, "obj", None) for s in q.thread("T1").body] == ["x", "y", "x"]
        assert check_spr(p, q).ok

    def test_local_overlap_blocks(self):
        # the rmw redefines r1, which the intervening store still reads
        p = parse_thread("  r1 = load(x, rlx)\n  store(y, r1, rlx)\n  r1 = fadd(x, 1, rlx)\n")
        q = early_write_transform(p)
        assert thread_kinds(q) == ["Load", "Store", "Fadd"]

    def test_never_crosses_branch_boundary(self):
        p = parse_thread(
            "  r1 = load(x, rlx)\n  if (r1 == 1):\n    r2 = load(y, rlx)\n  store(y, 1, rlx)\n")
        q = early_write_transform(p)
        assert thread_kinds(q) == ["Load", "IfBlock", "Store"]

    def test_hoist_within_branch_body(self):
        p = parse_thread(
            "  r1 = load(x, rlx)\n  if (r1 == 1):\n    r2 = load(y, rlx)\n    store(x, 1, rlx)\n")
        q = early_write_transform(p)
        inner = q.thread("T1").body[1].then_body
        assert [type(s).__name__ for s in inner] == ["Store", "Load"]

    def test_input_program_is_left_unchanged(self):
        """The result holds copies of the statements (the frozen expressions
        are shared); the input stays as it was."""
        rng = random.Random(20261019)
        programs = [corpus_program(n) for n in corpus_names()]
        programs += [parse_program(random_program_source(rng)) for _ in range(200)]
        hoisted = 0
        for p in programs:
            before = program_snapshot(p)
            q = early_write_transform(p)
            assert program_snapshot(p) == before, p.name
            assert not {id(s) for s in statements(p)} & {id(s) for s in statements(q)}
            hoisted += not structurally_equal(p, q)
        assert hoisted >= 10

    def test_output_is_valid(self):
        """Hoisting never moves a statement across one that shares a local,
        so ``early_write_transform`` needs no ``validate`` of its own."""
        rng = random.Random(20261020)
        programs = [corpus_program(n) for n in corpus_names()]
        programs += [parse_program(random_program_source(rng)) for _ in range(300)]
        for p in programs:
            validate(early_write_transform(p))

    def test_idempotent_on_corpus(self):
        for name in corpus_names():
            p = corpus_program(name)
            once = early_write_transform(p)
            twice = early_write_transform(once)
            assert structurally_equal(once, twice), name

    def test_total_and_multiset_preserving_on_corpus(self):
        for name in corpus_names():
            p = corpus_program(name)
            q = early_write_transform(p)
            v = check_spr(p, q)
            assert v.spr1, (name, v.detail)


class TestCheckSpr:
    def test_identity_passes(self, mp):
        v = check_spr(mp, mp)
        assert v.ok

    def test_corpus_transform_preserves_semantics(self):
        for name in corpus_names():
            p = corpus_program(name)
            v = check_spr(p, early_write_transform(p))
            assert v.ok, (name, v.detail)

    def test_swapped_same_object_stores_fail_spr3(self):
        a = parse_thread("  store(x, 1, rlx)\n  store(x, 2, rlx)\n")
        b = parse_thread("  store(x, 2, rlx)\n  store(x, 1, rlx)\n")
        v = check_spr(a, b)
        assert not v.spr3

    def test_reordered_dependent_pair_fails_spr2(self):
        a = parse_thread("  r1 = load(x, rlx)\n  store(x, 5, rlx)\n  r2 = load(x, rlx)\n")
        b = parse_thread("  r1 = load(x, rlx)\n  r2 = load(x, rlx)\n  store(x, 5, rlx)\n")
        v = check_spr(a, b)
        assert not (v.spr2 and v.spr3)

    def test_thread_count_mismatch_is_spr1_failure(self, mp):
        solo = parse_program("program s\ninit x = 0\nthread T1:\n  store(x, 1, rlx)\n")
        v = check_spr(mp, solo)
        assert not v.spr1
        assert "thread count" in v.detail

    def test_statement_change_fails_spr1(self):
        a = parse_thread("  store(x, 1, rlx)\n")
        b = parse_thread("  store(x, 2, rlx)\n")
        assert not check_spr(a, b).spr1


class TestEmitTransformed:
    def test_pretty_print_round_trip(self):
        p = corpus_program("s-popl")
        q = early_write_transform(p)
        text = pretty_print(q)
        assert structurally_equal(parse_program(text), q)
        # hoisted form: each store precedes its thread's load
        lines = [l.strip() for l in text.splitlines()]
        assert lines[lines.index("thread T1:") + 1].startswith("store")
