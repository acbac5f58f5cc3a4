"""Independent trace count for the ``fib-K`` family.

``fib-K`` has two threads; T1 reads only ``y`` and writes only ``x``, T2 the
reverse, all relaxed, and every store depends on every earlier load, so the
early-write transformation moves nothing.  Each thread is ``K`` rounds of
(load the other object, store own object).  A store sits in its thread's
FIFO buffer until it flushes to shared memory; a load reads the latest
flushed write of the other object, because the reader never writes that
object itself.

With one writer per object the store order is program order, and with only
relaxed accesses happens-before is program order, so a trace is fixed by its
reads-from choices: which of the other thread's writes (0 = the initial
value) each load saw.  The simulator interleaves program steps and flushes
and collects the distinct reads-from tuples.  It shares no code with the
checker.
"""

from __future__ import annotations

from functools import lru_cache


def count_traces(k: int) -> int:
    return len(_outcomes(k, 0, 0, 0, 0))


@lru_cache(maxsize=None)
def _outcomes(k: int, p1: int, f1: int, p2: int, f2: int) -> frozenset:
    """Reads-from suffixes reachable from a state.

    ``p`` counts a thread's executed program events (even = next is a load,
    odd = next is a store); ``f`` counts its flushed stores.  A suffix is a
    pair (T1's remaining reads, T2's remaining reads), each a tuple of the
    other thread's flush counts at the moment of the load.
    """
    out: set[tuple[tuple[int, ...], tuple[int, ...]]] = set()
    if p1 < 2 * k:
        for r1, r2 in _outcomes(k, p1 + 1, f1, p2, f2):
            out.add(((f2,) + r1, r2) if p1 % 2 == 0 else (r1, r2))
    if f1 < p1 // 2:                # T1 has an unflushed store
        out.update(_outcomes(k, p1, f1 + 1, p2, f2))
    if p2 < 2 * k:
        for r1, r2 in _outcomes(k, p1, f1, p2 + 1, f2):
            out.add((r1, (f1,) + r2) if p2 % 2 == 0 else (r1, r2))
    if f2 < p2 // 2:
        out.update(_outcomes(k, p1, f1, p2, f2 + 1))
    if not out:                     # both threads done, buffers empty
        out.add(((), ()))
    return frozenset(out)
