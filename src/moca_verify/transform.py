"""Static early-write transformation.

Shadow-writes let a store's visibility move *later* than program events of
its thread; the symmetric direction, a store moving *earlier*, is handled
statically: every store (and rmw) is hoisted to the earliest position in its
basic block such that no skipped statement

* feeds it through locals (data dependence) or shares a local at all,
* reads or writes one of its objects (per-location access order),
* is an acquire-class read or acquire-class fence (upward restriction),
* is another store/rmw (hoisted writes keep their relative program order), or
* is a branch (hoisting never crosses basic-block boundaries).

Hoisting copies statements and never moves one across a statement that
shares a local with it, so a valid program stays valid.
``tests/oracles.py`` holds the preservation oracle, ``check_spr``.
"""

from __future__ import annotations

from copy import copy

from .ir import (
    AssertNever,
    Cas,
    Fadd,
    Fence,
    IfBlock,
    Load,
    MO,
    Program,
    Stmt,
    Store,
    ThreadBody,
    at_least,
    stmt_locals_read,
    stmt_locals_written,
    stmt_objs,
)


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
    return Program(program.name, dict(program.objects),
                   [ThreadBody(t.name, _transform_block(t.body)) for t in program.threads],
                   [AssertNever(a.text, a.expr, a.line) for a in program.asserts],
                   program.expect_traces)

