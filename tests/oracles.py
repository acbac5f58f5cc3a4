"""Reference implementations the checker is tested against; none of them
runs inside ``explore``, ``enumerate_all`` or the CLI.

* ``check_spr`` verifies an early-write transformed program against the
  original, per thread: identical statement multisets, identical sequential
  read semantics under every bounded input valuation (each read of an
  object not previously written by the thread is treated as an oracle
  input), and identical per-object access order.
* ``release_sequence_members`` lists a release sequence head by head, the
  reference for ``relations.release_heads``.
"""

from __future__ import annotations

import itertools
from collections import Counter
from typing import Iterable

from moca_verify.ir import (
    Cas,
    Const,
    ContractViolation,
    Event,
    Fadd,
    Fence,
    IfBlock,
    Load,
    LocalAssign,
    MO,
    Program,
    Stmt,
    Store,
    at_least,
    eval_expr,
    expr_leaves,
    flatten,
    stmt_exprs,
    stmt_fingerprint,
)
from moca_verify.relations import _is_weak


# ---------------------------------------------------------------------------
# Preservation oracle of the early-write transform
# ---------------------------------------------------------------------------

# ``check_spr`` tries at most this many input valuations per thread
MAX_VALUATIONS = 4096


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


# ---------------------------------------------------------------------------
# Release sequences, head by head
# ---------------------------------------------------------------------------

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
