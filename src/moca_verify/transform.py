"""Static early-write transformation and its preservation oracle.

Shadow-writes let a store's visibility move *later* than program events of
its thread; the symmetric direction, a store moving *earlier*, is handled
statically: every store (and rmw) is hoisted to the earliest position in its
basic block such that no skipped statement

* feeds it through locals (data dependence) or shares a local at all,
* reads or writes one of its objects (per-location access order),
* is an acquire-class read or acquire-class fence (upward restriction),
* is another store/rmw (hoisted writes keep their relative program order), or
* is a branch (hoisting never crosses basic-block boundaries).

``check_spr`` verifies a transformed program against the original, per
thread: identical statement multisets, identical sequential read semantics
under every bounded input valuation (each read of an object not previously
written by the thread is treated as an oracle input), and identical
per-object access order.
"""

from __future__ import annotations

import itertools
from collections import Counter
from copy import copy

from .ir import (
    AssertNever,
    Cas,
    Const,
    Fadd,
    Fence,
    IfBlock,
    Load,
    LocalAssign,
    MO,
    Program,
    Stmt,
    Store,
    ThreadBody,
    at_least,
    eval_expr,
    expr_leaves,
    flatten,
    stmt_exprs,
    stmt_fingerprint,
    stmt_locals_read,
    stmt_locals_written,
    stmt_objs,
    validate,
)

# ``check_spr`` tries at most this many input valuations per thread
MAX_VALUATIONS = 4096


def _is_hoistable(s: Stmt) -> bool:
    return isinstance(s, (Store, Fadd, Cas))


def _imposes_upward_restriction(s: Stmt) -> bool:
    """Acquire-class reads forbid later events from moving above them.  Any
    synchronizing fence blocks as well: acquire-class fences restrict all
    later events, and release-class fences exist to keep later stores after
    them, so hoisting a write across either would erase fence-mediated
    synchronization."""
    if isinstance(s, (Load, Fadd, Cas)):
        return at_least(s.mo, MO.ACQ)
    if isinstance(s, Fence):
        return at_least(s.mo, MO.ACQ) or at_least(s.mo, MO.REL)
    return False


def _may_hoist_above(prev: Stmt, w: Stmt) -> bool:
    if isinstance(prev, IfBlock):
        return False
    if _is_hoistable(prev):
        return False
    if _imposes_upward_restriction(prev):
        return False
    if stmt_objs(prev) & stmt_objs(w):
        return False
    prev_locals = stmt_locals_read(prev) | stmt_locals_written(prev)
    w_locals = stmt_locals_read(w) | stmt_locals_written(w)
    if prev_locals & w_locals:
        return False
    return True


def _transform_block(body: list[Stmt]) -> list[Stmt]:
    """The hoisted block, of shallow copies of ``body``'s statements: the
    copies get their own bodies, while the frozen expression trees are
    shared."""
    out: list[Stmt] = []
    for s in body:
        s = copy(s)
        if isinstance(s, IfBlock):
            s.then_body = _transform_block(s.then_body)
            s.else_body = _transform_block(s.else_body)
            out.append(s)
            continue
        if _is_hoistable(s):
            i = len(out)
            while i > 0 and _may_hoist_above(out[i - 1], s):
                i -= 1
            out.insert(i, s)
        else:
            out.append(s)
    return out


def early_write_transform(program: Program) -> Program:
    """Hoist each store/rmw to its earliest admissible position.

    Total on valid programs and idempotent; the statement multiset of every
    thread is unchanged.  ``program`` is left as it was: the result holds
    copies of its statements, threads and containers.
    """
    clone = Program(program.name, dict(program.objects),
                    [ThreadBody(t.name, _transform_block(t.body)) for t in program.threads],
                    [AssertNever(a.text, a.expr, a.line) for a in program.asserts],
                    program.expect_traces)
    validate(clone)
    return clone


# ---------------------------------------------------------------------------
# Preservation oracle
# ---------------------------------------------------------------------------

class SprVerdict:
    __slots__ = ("spr1", "spr2", "spr3", "detail")

    def __init__(self, spr1: bool, spr2: bool, spr3: bool, detail: str = "") -> None:
        self.spr1, self.spr2, self.spr3, self.detail = spr1, spr2, spr3, detail

    @property
    def ok(self) -> bool:
        return self.spr1 and self.spr2 and self.spr3


def _multiset(body: list[Stmt]) -> Counter:
    return Counter(map(stmt_fingerprint, flatten(body)))


def _value_domain(program: Program) -> list[int]:
    values = {0, 1}
    values.update(program.objects.values())
    values.update(leaf.value for t in program.threads for s in flatten(t.body)
                  for e in stmt_exprs(s) for leaf in expr_leaves(e)
                  if isinstance(leaf, Const))
    return sorted(values)


class _SeqRun:
    """One sequential execution of a thread under an input valuation."""
    __slots__ = ("read_sources", "access_order", "locals_final")

    def __init__(self) -> None:
        # per shared read: (fingerprint, ordinal) -> previous same-thread
        # write key, or None when the value came from outside the thread
        self.read_sources: dict[tuple, object] = {}
        # per object: ordered access keys (reads and writes)
        self.access_order: dict[str, list[tuple]] = {}
        self.locals_final: dict[str, int] = {}


def _read_slots(body: list[Stmt]) -> list[tuple]:
    """Valuation slots, one per read statement occurrence: (fingerprint, n).

    Hoisting never reorders two statements with equal fingerprints (writes
    keep their relative order and same-object accesses never cross), so the
    execution-time ordinal of a fingerprint identifies the same read in the
    original and the transformed body.
    """
    counts = Counter(stmt_fingerprint(s) for s in flatten(body)
                     if isinstance(s, (Load, Fadd, Cas)))
    return [(fp, i) for fp in sorted(counts) for i in range(counts[fp])]


def _run_thread(body: list[Stmt], valuation: dict[tuple, int]) -> _SeqRun:
    """Execute one thread in isolation.  A read of an object the thread has
    not yet written takes its oracle value from ``valuation`` (keyed by read
    identity); a read after a thread-local write returns that write's value,
    since a thread observes its own stores."""
    run = _SeqRun()
    env: dict[str, int] = {}
    last_write: dict[str, tuple] = {}
    last_write_val: dict[str, int] = {}
    seen: dict[tuple, int] = {}

    def key(s: Stmt) -> tuple:
        fp = stmt_fingerprint(s)
        n = seen.get(fp, 0)
        seen[fp] = n + 1
        return (fp, n)

    def read(obj: str, k: tuple) -> int:
        if obj in last_write:
            run.read_sources[k] = last_write[obj]
            return last_write_val[obj]
        run.read_sources[k] = None
        return valuation.get(k, 0)

    def walk(stmts: list[Stmt]) -> None:
        for s in stmts:
            if isinstance(s, LocalAssign):
                env[s.local] = eval_expr(s.value, env)
            elif isinstance(s, Load):
                k = key(s)
                run.access_order.setdefault(s.obj, []).append(k)
                env[s.local] = read(s.obj, k)
            elif isinstance(s, Store):
                k = key(s)
                run.access_order.setdefault(s.obj, []).append(k)
                last_write[s.obj] = k
                last_write_val[s.obj] = eval_expr(s.value, env)
            elif isinstance(s, Fadd):
                k = key(s)
                run.access_order.setdefault(s.obj, []).append(k)
                old = read(s.obj, k)
                env[s.local] = old
                last_write[s.obj] = k
                last_write_val[s.obj] = old + eval_expr(s.delta, env)
            elif isinstance(s, Cas):
                k = key(s)
                run.access_order.setdefault(s.obj, []).append(k)
                old = read(s.obj, k)
                env[s.local] = old
                if old == eval_expr(s.expect, env):
                    last_write[s.obj] = k
                    last_write_val[s.obj] = eval_expr(s.desired, env)
            elif isinstance(s, Fence):
                pass
            elif isinstance(s, IfBlock):
                if eval_expr(s.cond, env) != 0:
                    walk(s.then_body)
                else:
                    walk(s.else_body)
    walk(body)
    run.locals_final = env
    return run


def check_spr(original: Program, transformed: Program) -> SprVerdict:
    """Per-thread preservation verdict for a statement reordering.

    spr1: statement multisets are unchanged.
    spr2: under every input valuation in the bounded value domain (the first
          ``MAX_VALUATIONS`` of them), each read resolves to the same
          same-thread previous write (thread semantics).
    spr3: per object, the thread's access order is unchanged
          (coherence-per-location).
    """
    if len(original.threads) != len(transformed.threads):
        return SprVerdict(False, False, False, "thread count mismatch")

    spr1 = spr2 = spr3 = True
    detail = []
    domain = sorted(set(_value_domain(original) + _value_domain(transformed)))
    for t_orig, t_new in zip(original.threads, transformed.threads):
        if _multiset(t_orig.body) != _multiset(t_new.body):
            spr1 = False
            detail.append(f"{t_orig.name}: statement multiset changed")
            continue
        slots = sorted(set(_read_slots(t_orig.body)) | set(_read_slots(t_new.body)))
        for values in itertools.islice(itertools.product(domain, repeat=len(slots)),
                                       MAX_VALUATIONS):
            valuation = dict(zip(slots, values))
            run_a = _run_thread(t_orig.body, valuation)
            run_b = _run_thread(t_new.body, valuation)
            if run_a.read_sources != run_b.read_sources or \
                    run_a.locals_final != run_b.locals_final:
                spr2 = False
                detail.append(f"{t_orig.name}: read sources diverge under {values}")
                break
            if run_a.access_order != run_b.access_order:
                spr3 = False
                detail.append(f"{t_orig.name}: per-object access order changed under {values}")
                break
    return SprVerdict(spr1, spr2, spr3, "; ".join(detail))
