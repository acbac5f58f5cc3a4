"""Workload sources and their known answers.

``sources`` gives the litmus sources of a workload; the checker receives
nothing else.  ``expected`` gives the verdict each one must produce, derived
without the checker:

* ``corpus``: the ``expect traces`` line of each file, read here with a
  regular expression.  ``luc10`` and ``s-popl`` violate their assert, as
  their comments and README say.  The racy ones are the four programs with
  non-atomic accesses: each is message passing in which the reader may see
  the initial flag, which leaves the payload write and read unordered.
* ``counter-N``: (N!)^2 traces.  The flush order of the N writes to ``c`` is
  any of N! permutations.  The thread whose write is k-th in it reads from
  one of the k writes before it (init included), independently of the other
  threads, which gives another N! reads-from assignments.
* ``sb-ring-N``: 2^N - 1 traces.  Each load reads the initial value or the
  single store to its object.  The all-initial outcome would need a cycle in
  the sc total order; every other outcome has an sc interleaving.
* ``fib-K``: counted by the store-buffer simulator in ``fibsim``.

The seed picks local names, initial values and stored values, and the order
of the corpus files.  None of these reach the trace ids (which hash event
names, reads-from, store order and happens-before) or the shape of the
search, so every seed explores the same state space and yields the same
pinned trace-id set.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass
from pathlib import Path

import fibsim

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"

CORPUS_VIOLATING = frozenset({"luc10", "s-popl"})
CORPUS_RACY = frozenset({"simple-sw", "simple-ithb", "mp-fence-acq", "mp-fence-both"})

# the workloads run.py accepts; trace_ids.json pins their programs.
# BENCHMARK.json registers only corpus and counter-4, which leaves each run
# long enough to average out the drift of a shared machine; fib-4 (the
# control for reduction changes) and sb-ring-4 (coherence pruning) are run
# by hand.
WORKLOADS = ("corpus", "counter-4", "fib-4", "sb-ring-4")

_EXPECT = re.compile(r"^expect traces\s*=\s*(\d+)\s*$", re.MULTILINE)


@dataclass(frozen=True)
class Expected:
    traces: int
    violated: bool
    racy: bool


def _local(rng: random.Random, stem: str) -> str:
    """A local name that is unique by ``stem`` and varies with the seed."""
    return f"{stem}_{rng.randrange(1 << 20):05x}"


def counter(n: int, seed: int) -> str:
    """N threads each doing a racy relaxed load + store increment of ``c``."""
    rng = random.Random(f"counter-{n}/{seed}")
    init = rng.randrange(100)
    lines = [f"program counter_{n}", f"init c = {init}"]
    for i in range(1, n + 1):
        r = _local(rng, f"r{i}")
        lines += [f"thread T{i}:", f"  {r} = load(c, rlx)", f"  store(c, {r} + 1, rlx)"]
    lines.append(f"assert never (c < {init + 1} || c > {init + n})")
    return "\n".join(lines) + "\n"


def sb_ring(n: int, seed: int) -> str:
    """N threads in a ring: ``store(x_i, v, sc)`` then ``load(x_{i+1}, sc)``."""
    rng = random.Random(f"sb-ring-{n}/{seed}")
    init = [rng.randrange(100) for _ in range(n)]
    objs = [f"x{i}" for i in range(1, n + 1)]
    locs = [_local(rng, f"r{i}") for i in range(1, n + 1)]
    lines = [f"program sb_ring_{n}",
             "init " + ", ".join(f"{o} = {v}" for o, v in zip(objs, init))]
    for i in range(n):
        stored = init[i] + 1 + rng.randrange(100)
        lines += [f"thread T{i + 1}:", f"  store({objs[i]}, {stored}, sc)",
                  f"  {locs[i]} = load({objs[(i + 1) % n]}, sc)"]
    stale = " && ".join(f"{locs[i]} == {init[(i + 1) % n]}" for i in range(n))
    lines.append(f"assert never ({stale})")
    return "\n".join(lines) + "\n"


def fib(k: int, seed: int) -> str:
    """Two threads of K accumulate-and-publish rounds on ``x`` and ``y``."""
    rng = random.Random(f"fib-{k}/{seed}")
    lines = [f"program fibonacci_{k}",
             f"init x = {rng.randrange(100)}, y = {rng.randrange(100)}"]
    for t, mine, other in ((1, "x", "y"), (2, "y", "x")):
        acc = _local(rng, f"a{t}")
        lines += [f"thread T{t}:", f"  {acc} = {1 + rng.randrange(9)}"]
        for j in range(1, k + 1):
            b = _local(rng, f"b{t}{j}")
            lines += [f"  {b} = load({other}, rlx)", f"  {acc} = {acc} + {b}",
                      f"  store({mine}, {acc}, rlx)"]
    lines.append("assert never (x < 1 || y < 1)")
    return "\n".join(lines) + "\n"


_FAMILIES = {"counter": counter, "sb-ring": sb_ring, "fib": fib}


def _family(key: str) -> tuple[str, int]:
    family, _, size = key.rpartition("-")
    if family not in _FAMILIES or not size.isdigit():
        raise ValueError(f"unknown workload {key!r}")
    return family, int(size)


def sources(workload: str, seed: int) -> list[tuple[str, str]]:
    """(program key, litmus source) pairs of ``corpus`` or of a family member
    such as ``counter-4``; the key also names the pinned trace ids."""
    if workload == "corpus":
        out = [(f"corpus/{p.stem}", p.read_text())
               for p in sorted(CORPUS.glob("*.lit"))]
        random.Random(f"corpus/{seed}").shuffle(out)
        return out
    family, size = _family(workload)
    return [(workload, _FAMILIES[family](size, seed))]


def expected(key: str, source: str) -> Expected:
    """The verdict the program ``key`` must get, without running the checker."""
    if key.startswith("corpus/"):
        stem = key.removeprefix("corpus/")
        m = _EXPECT.search(source)
        if m is None:
            raise ValueError(f"{key}: no 'expect traces' line")
        return Expected(int(m.group(1)), stem in CORPUS_VIOLATING, stem in CORPUS_RACY)
    family, size = _family(key)
    if family == "counter":
        traces = math.factorial(size) ** 2
    elif family == "sb-ring":
        traces = 2 ** size - 1
    else:
        traces = fibsim.count_traces(size)
    return Expected(traces, violated=False, racy=False)
