"""Litmus program model: memory orders, events, the statement DSL, and parsing.

A litmus program is a finite set of acyclic thread bodies over a fixed set of
shared integer objects.  Shared accesses (``load``/``store``/``fadd``/``cas``/
``fence``) are the only statements that become schedulable events; local
assignments and branches are folded into the next event.  Branch conditions may
read locals only, so every shared access is a distinct event.

Example source::

    program mp
    init x = 0, f = 0
    thread T1:
      store(x, 1, rlx)
      store(f, 1, rel)
    thread T2:
      r = load(f, acq)
      s = load(x, rlx)
    assert never (r == 1 && s == 0)
    expect traces = 3
"""

from __future__ import annotations

import operator
from enum import Enum

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Callable, Iterator, Optional


# ---------------------------------------------------------------------------
# Memory orders
# ---------------------------------------------------------------------------

class MO(str, Enum):
    NA = "na"
    RLX = "rlx"
    ACQ = "acq"
    REL = "rel"
    ACQ_REL = "acq_rel"
    SC = "sc"

    def __str__(self) -> str:
        return self.value


# Strictness ranks; acq and rel share a rank and are mutually incomparable.
_MO_RANK = {MO.NA: 0, MO.RLX: 1, MO.ACQ: 2, MO.REL: 2, MO.ACQ_REL: 3, MO.SC: 4}


def ord_leq(a: MO, b: MO) -> bool:
    """True iff order ``a`` is no stricter than ``b`` (reflexive)."""
    return a == b or _MO_RANK[a] < _MO_RANK[b]


def at_least(o: MO, m: MO) -> bool:
    """True iff ``o`` is at least as strict as ``m``."""
    return ord_leq(m, o)


# ---------------------------------------------------------------------------
# Events
# ---------------------------------------------------------------------------

class Act(str, Enum):
    WRITE = "write"
    READ = "read"
    RMW = "rmw"
    FENCE = "fence"
    SHADOW = "shadow-write"

    def __str__(self) -> str:
        return self.value


# Module names for the per-step and per-leaf code.  On Python 3.11
# ``Act.RMW`` is looked up through ``EnumType.__getattr__``, at about five
# times the cost of a global; ``o in REL_ORDERS`` is ``at_least(o, MO.REL)``
# without its two calls.
WRITE, READ, RMW, FENCE, SHADOW = Act.WRITE, Act.READ, Act.RMW, Act.FENCE, Act.SHADOW
NA, RLX, SC = MO.NA, MO.RLX, MO.SC
REL_ORDERS = frozenset(o for o in MO if at_least(o, MO.REL))
ACQ_ORDERS = frozenset(o for o in MO if at_least(o, MO.ACQ))


INIT_THREAD = "init"


def shadow_unit(thread: str, obj: str) -> str:
    return f"sth_{obj}({thread})"


def is_shadow_unit(unit: str) -> bool:
    return unit.startswith("sth_")


class _Value:
    """Base of the immutable value classes (``Event``, the expression nodes,
    ``Diagnostic``): equality, hash and repr go by the fields ``_fields``
    names, and assigning an attribute after ``__init__`` raises.

    The package writes its records by hand instead of with ``dataclasses``,
    so importing it neither loads that module (and ``inspect`` with it) nor
    generates methods at run time; ``tests/test_startup.py`` checks this."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(map(self.__getattribute__, self._fields))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


# sets an attribute of a ``_Value`` in its ``__init__``
_set = object.__setattr__


class Event(_Value):
    """One shared-memory action: ``(thr, act, obj, ord, idx)``.

    ``obj`` is a tuple: empty for fences, a singleton for plain accesses, and
    ``(read_obj, write_obj)`` for rmw events.  ``(thr, idx)`` identifies the
    event within a sequence.  ``stmt`` links back to the originating statement
    and is excluded from equality.

    Events are hashed and queried on every relation lookup, so the hash and
    the derived attributes (``key``, ``objects``, ``obj_read``,
    ``obj_written``, ``is_write_like``, ``is_read_like``, ``is_init``,
    ``is_store_update``, ``parent_thr``, ``flush_unit``) and the display
    strings (``name``, ``pretty()``) are fixed once at construction.
    ``flush_unit`` is the shadow-thread that flushes a write, else None.
    """

    _fields = ("thr", "act", "obj", "ord", "idx")
    __slots__ = (*_fields, "stmt", "_identity", "_hash", "key", "objects", "obj_read",
                 "obj_written", "is_write_like", "is_read_like", "is_init",
                 "is_store_update", "parent_thr", "flush_unit", "name", "_pretty")

    def __init__(self, thr: str, act: Act, obj: tuple[str, ...], ord: MO, idx: int,
                 stmt: Optional["Stmt"] = None) -> None:
        identity = (thr, act, obj, ord, idx)
        reads = act is Act.READ or act is Act.RMW
        if act is Act.WRITE or act is Act.SHADOW:
            written = obj[0]
        elif act is Act.RMW:
            written = obj[-1]
        else:
            written = None
        for name, value in zip(self._fields, identity):
            _set(self, name, value)
        _set(self, "stmt", stmt)
        _set(self, "_identity", identity)
        _set(self, "_hash", hash(identity))
        _set(self, "key", (thr, idx))
        _set(self, "objects", frozenset(obj))
        _set(self, "obj_read", obj[0] if reads else None)
        _set(self, "obj_written", written)
        # member of the write category: issues a store (write or rmw)
        _set(self, "is_write_like", act is Act.WRITE or act is Act.RMW)
        _set(self, "is_read_like", reads)
        _set(self, "is_init", thr == INIT_THREAD or thr.endswith(f"({INIT_THREAD})"))
        # updates the shared store: a shadow-write or an atomic rmw
        _set(self, "is_store_update", act is Act.SHADOW or act is Act.RMW)
        # program thread the event acts for: a shadow-write acts for the
        # thread of the write it flushes
        _set(self, "parent_thr", thr[thr.index("(") + 1:-1] if act is Act.SHADOW else thr)
        _set(self, "flush_unit", shadow_unit(thr, obj[0]) if act is Act.WRITE else None)
        objs, act_s, ord_s = ",".join(obj), act.value, ord.value
        # the identity the trace id hashes
        _set(self, "name", f"{thr}#{idx}:{act_s}:{objs}:{ord_s}")
        _set(self, "_pretty", f"{thr}#{idx}:{act_s}({objs}){ord_s}")

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not Event:
            return NotImplemented
        return self._hash == other._hash and self._identity == other._identity

    def __hash__(self) -> int:
        return self._hash

    def pretty(self) -> str:
        return self._pretty


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------

class ExprError(Exception):
    pass


class Const(_Value):
    __slots__ = _fields = ("value",)

    def __init__(self, value: int) -> None:
        _set(self, "value", value)


class LocalRef(_Value):
    __slots__ = _fields = ("name",)

    def __init__(self, name: str) -> None:
        _set(self, "name", name)


class QualifiedRef(_Value):
    """``Thread.local`` reference; valid only inside assert predicates."""
    __slots__ = _fields = ("thread", "local")

    def __init__(self, thread: str, local: str) -> None:
        _set(self, "thread", thread)
        _set(self, "local", local)


class UnOp(_Value):
    __slots__ = _fields = ("op", "operand")

    def __init__(self, op: str, operand: "Expr") -> None:
        _set(self, "op", op)  # '-' or '!'
        _set(self, "operand", operand)


class BinOp(_Value):
    __slots__ = _fields = ("op", "left", "right")

    def __init__(self, op: str, left: "Expr", right: "Expr") -> None:
        _set(self, "op", op)
        _set(self, "left", left)
        _set(self, "right", right)


Expr = Const | LocalRef | QualifiedRef | UnOp | BinOp


def expr_leaves(e: Expr) -> list[Expr]:
    """The leaves of ``e`` (constants and references), left to right."""
    leaves: list[Expr] = []
    stack = [e]
    while stack:
        e = stack.pop()
        if isinstance(e, UnOp):
            stack.append(e.operand)
        elif isinstance(e, BinOp):
            stack += e.right, e.left
        else:
            leaves.append(e)
    return leaves


def expr_locals(e: Expr) -> frozenset[str]:
    return frozenset([leaf.name for leaf in expr_leaves(e) if isinstance(leaf, LocalRef)])


# The binary operators: precedence (higher binds tighter; every operator is
# left-associative) and, but for the short-circuit ``&&`` and ``||``, the
# function it applies.  Comparisons give 1 or 0.
_BINARY: dict[str, tuple[int, Optional[Callable[[int, int], int]]]] = {
    "||": (1, None),
    "&&": (2, None),
    "==": (3, operator.eq), "!=": (3, operator.ne), "<": (3, operator.lt),
    "<=": (3, operator.le), ">": (3, operator.gt), ">=": (3, operator.ge),
    "+": (4, operator.add), "-": (4, operator.sub),
    "*": (5, operator.mul),
}
_UNARY: dict[str, Callable[[int], int]] = {"-": operator.neg, "!": operator.not_}


class UndefinedName(ExprError):
    def __init__(self, name: str):
        super().__init__(f"undefined name: {name}")
        self.name = name


def eval_expr(e: Expr, env: dict[str, int],
              resolve: Optional[Callable[[Expr], int]] = None) -> int:
    """Evaluate over locals in ``env``; booleans are 1/0.

    ``resolve`` handles QualifiedRef nodes (assert evaluation).
    """
    cls = e.__class__   # the node classes have no subclasses
    if cls is Const:
        return e.value
    if cls is LocalRef:
        if e.name not in env:
            raise UndefinedName(e.name)
        return env[e.name]
    if cls is BinOp:
        lv = eval_expr(e.left, env, resolve)
        if e.op == "&&":
            return int(lv != 0 and eval_expr(e.right, env, resolve) != 0)
        if e.op == "||":
            return int(lv != 0 or eval_expr(e.right, env, resolve) != 0)
        return int(_BINARY[e.op][1](lv, eval_expr(e.right, env, resolve)))
    if cls is UnOp:
        return int(_UNARY[e.op](eval_expr(e.operand, env, resolve)))
    if cls is QualifiedRef:
        if resolve is None:
            raise ExprError("qualified reference outside assert context")
        return resolve(e)
    raise ExprError(f"bad expression node: {e!r}")


def render_expr(e: Expr) -> str:
    if isinstance(e, Const):
        return str(e.value)
    if isinstance(e, LocalRef):
        return e.name
    if isinstance(e, QualifiedRef):
        return f"{e.thread}.{e.local}"
    if isinstance(e, UnOp):
        return f"{e.op}{render_expr(e.operand)}"
    if isinstance(e, BinOp):
        return f"({render_expr(e.left)} {e.op} {render_expr(e.right)})"
    raise ExprError(f"bad expression node: {e!r}")


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------

class StmtBase:
    """The field every statement has, passed by keyword: its source line.
    Statements compare by identity."""

    __slots__ = ("line",)

    def __init__(self, *, line: int = 0) -> None:
        self.line = line


class Load(StmtBase):
    __slots__ = ("local", "obj", "mo")

    def __init__(self, local: str, obj: str, mo: MO, **base) -> None:
        super().__init__(**base)
        self.local, self.obj, self.mo = local, obj, mo


class Store(StmtBase):
    __slots__ = ("obj", "value", "mo")

    def __init__(self, obj: str, value: Expr, mo: MO, **base) -> None:
        super().__init__(**base)
        self.obj, self.value, self.mo = obj, value, mo


class Fadd(StmtBase):
    """``local = fadd(obj, delta, ord)``; local receives the old value."""
    __slots__ = ("local", "obj", "delta", "mo")

    def __init__(self, local: str, obj: str, delta: Expr, mo: MO, **base) -> None:
        super().__init__(**base)
        self.local, self.obj, self.delta, self.mo = local, obj, delta, mo


class Cas(StmtBase):
    """``local = cas(obj, expect, desired, ord)``; local receives the old value.

    The store happens only when the old value equals ``expect``; a failed cas
    is a plain read event.
    """
    __slots__ = ("local", "obj", "expect", "desired", "mo")

    def __init__(self, local: str, obj: str, expect: Expr, desired: Expr, mo: MO,
                 **base) -> None:
        super().__init__(**base)
        self.local, self.obj, self.expect, self.desired, self.mo = (
            local, obj, expect, desired, mo)


class Fence(StmtBase):
    __slots__ = ("mo",)

    def __init__(self, mo: MO, **base) -> None:
        super().__init__(**base)
        self.mo = mo


class LocalAssign(StmtBase):
    __slots__ = ("local", "value")

    def __init__(self, local: str, value: Expr, **base) -> None:
        super().__init__(**base)
        self.local, self.value = local, value


class IfBlock(StmtBase):
    __slots__ = ("cond", "then_body", "else_body")

    def __init__(self, cond: Expr, then_body: Optional[list["Stmt"]] = None,
                 else_body: Optional[list["Stmt"]] = None, **base) -> None:
        super().__init__(**base)
        self.cond = cond
        self.then_body = [] if then_body is None else then_body
        self.else_body = [] if else_body is None else else_body


Stmt = Load | Store | Fadd | Cas | Fence | LocalAssign | IfBlock


# The access calls: each call's statement class and its fields in source
# order.  ``local``, where present, is the target of ``local = call(...)``;
# the rest are the call's arguments: ``obj`` an object name, ``mo`` a memory
# order and any other an expression.
_CALLS: dict[str, tuple[type, tuple[str, ...]]] = {
    "store": (Store, ("obj", "value", "mo")),
    "fence": (Fence, ("mo",)),
    "load": (Load, ("local", "obj", "mo")),
    "fadd": (Fadd, ("local", "obj", "delta", "mo")),
    "cas": (Cas, ("local", "obj", "expect", "desired", "mo")),
}

# Every statement class: the name its fingerprint starts with and its own
# fields, as above.
_STMT_FIELDS: dict[type, tuple[str, tuple[str, ...]]] = {
    **{cls: (name, fields) for name, (cls, fields) in _CALLS.items()},
    LocalAssign: ("assign", ("local", "value")),
    IfBlock: ("if", ("cond",)),
}

# each statement class's expression fields
_EXPR_FIELDS = {cls: tuple(f for f in fields if f not in ("local", "obj", "mo"))
                for cls, (_, fields) in _STMT_FIELDS.items()}


def stmt_fingerprint(s: Stmt) -> tuple:
    """A statement's own fields, without line or nested bodies."""
    name, fields = _STMT_FIELDS[type(s)]
    return (name, *[v if isinstance(v, str) else render_expr(v)
                    for v in map(s.__getattribute__, fields)])


def stmt_exprs(s: Stmt) -> tuple[Expr, ...]:
    """The expressions a statement evaluates (an if's condition only)."""
    return tuple(map(s.__getattribute__, _EXPR_FIELDS[type(s)]))


def stmt_locals_read(s: Stmt) -> frozenset[str]:
    return frozenset().union(*map(expr_locals, stmt_exprs(s)))


def stmt_locals_written(s: Stmt) -> frozenset[str]:
    return frozenset([s.local]) if "local" in _STMT_FIELDS[type(s)][1] else frozenset()


def stmt_objs(s: Stmt) -> frozenset[str]:
    return frozenset([s.obj]) if "obj" in _STMT_FIELDS[type(s)][1] else frozenset()


def flatten(body: list[Stmt]) -> Iterator[Stmt]:
    for s in body:
        yield s
        if isinstance(s, IfBlock):
            yield from flatten(s.then_body)
            yield from flatten(s.else_body)


# ---------------------------------------------------------------------------
# Program
# ---------------------------------------------------------------------------

class ThreadBody:
    __slots__ = ("name", "body")

    def __init__(self, name: str, body: list[Stmt]) -> None:
        self.name, self.body = name, body


class AssertNever:
    __slots__ = ("text", "expr", "line")

    def __init__(self, text: str, expr: Expr, line: int = 0) -> None:
        self.text, self.expr, self.line = text, expr, line


class Program:
    __slots__ = ("name", "objects", "threads", "asserts", "expect_traces")

    def __init__(self, name: str, objects: dict[str, int], threads: list[ThreadBody],
                 asserts: Optional[list[AssertNever]] = None,
                 expect_traces: Optional[int] = None) -> None:
        self.name, self.objects, self.threads = name, objects, threads
        self.asserts = [] if asserts is None else asserts
        self.expect_traces = expect_traces

    def thread(self, name: str) -> ThreadBody:
        for t in self.threads:
            if t.name == name:
                return t
        raise KeyError(name)


def release_class_objects(program: Program) -> frozenset[str]:
    """Objects some ``store``/``fadd``/``cas`` of ``program`` writes with an
    order of ``rel`` or stronger: the only objects with release sequences."""
    return frozenset(s.obj for t in program.threads for s in flatten(t.body)
                     if isinstance(s, (Store, Fadd, Cas)) and at_least(s.mo, MO.REL))


class ContractViolation(Exception):
    pass


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

class Diagnostic(_Value):
    __slots__ = _fields = ("line", "col", "message")

    def __init__(self, line: int, col: int, message: str) -> None:
        _set(self, "line", line)
        _set(self, "col", col)
        _set(self, "message", message)

    def __str__(self) -> str:
        return f"{self.line}:{self.col}: {self.message}"


class ParseError(Exception):
    def __init__(self, diagnostics: list[Diagnostic]):
        self.diagnostics = diagnostics
        super().__init__("; ".join(str(d) for d in diagnostics))


_LOOP_KEYWORDS = ("while", "for", "do", "goto", "loop")

# The deepest nesting the parser accepts: of operators in an expression (a
# flat sum of n terms nests n - 1 deep), of parentheses, and of ``if``
# blocks.  The parser, validation, printer and evaluator recurse once or a
# few times per level, so the bound keeps them well inside Python's
# recursion limit.  The printed form of an accepted program is accepted.
MAX_NESTING = 100

_ORDER_NAMES = {m.value: m for m in MO}

# the calls written ``local = call(...)``
_ASSIGNING_CALLS = frozenset(name for name, (_, fields) in _CALLS.items() if "local" in fields)


class _Tokenizer:
    """Single-line tokenizer for statements and expressions."""

    SYMBOLS = frozenset(("&&", "||", "==", "!=", "<=", ">=", "(", ")", ",", "+", "-",
                         "*", "<", ">", "!", "=", ":", "."))

    def __init__(self, text: str, line: int):
        self.text = text
        self.line = line
        self.pos = 0
        self.tokens: list[tuple[str, str, int]] = []  # (kind, value, col)
        self._scan()
        self.i = 0

    def _scan(self) -> None:
        t, n = self.text, len(self.text)
        i = 0
        while i < n:
            c = t[i]
            if c in " \t":
                i += 1
                continue
            if c == "#":
                break
            if c.isdigit():
                j = i
                while j < n and t[j].isdigit():
                    j += 1
                self.tokens.append(("int", t[i:j], i))
                i = j
                continue
            if c.isalpha() or c == "_":
                j = i
                while j < n and (t[j].isalnum() or t[j] == "_"):
                    j += 1
                self.tokens.append(("name", t[i:j], i))
                i = j
                continue
            # the longest symbol: every symbol has one or two characters
            sym = t[i:i + 2] if t[i:i + 2] in self.SYMBOLS else c
            if sym not in self.SYMBOLS:
                raise ParseError([Diagnostic(self.line, i + 1, f"unexpected character {c!r}")])
            self.tokens.append(("sym", sym, i))
            i += len(sym)

    def peek(self) -> Optional[tuple[str, str, int]]:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self) -> tuple[str, str, int]:
        tok = self.peek()
        if tok is None:
            raise ParseError([Diagnostic(self.line, len(self.text) + 1, "unexpected end of line")])
        self.i += 1
        return tok

    def expect(self, value: str) -> None:
        tok = self.next()
        if tok[1] != value:
            raise ParseError([Diagnostic(self.line, tok[2] + 1, f"expected {value!r}, found {tok[1]!r}")])

    def at_end(self) -> bool:
        return self.i >= len(self.tokens)

    def fail(self, msg: str) -> "ParseError":
        tok = self.peek()
        col = tok[2] + 1 if tok else len(self.text) + 1
        return ParseError([Diagnostic(self.line, col, msg)])


def _too_deep(tz: _Tokenizer, col: int, what: str) -> ParseError:
    return ParseError([Diagnostic(tz.line, col + 1, f"{what} nested deeper than {MAX_NESTING}")])


def _parse_expr(tz: _Tokenizer, allow_refs: bool = False) -> Expr:
    return _parse_binary(tz, allow_refs, 1, MAX_NESTING, MAX_NESTING)[0]


def _parse_binary(tz: _Tokenizer, refs: bool, min_prec: int, room: int,
                  parens: int) -> tuple[Expr, int]:
    """The expression at ``tz`` whose binary operators bind at least as
    tightly as ``min_prec`` (precedence climbing over ``_BINARY``), and its
    depth, the operators above its deepest leaf: at most ``room``.  At most
    ``parens`` more parentheses may open in it."""
    e, depth = _parse_unary(tz, refs, room, parens)
    while (tok := tz.peek()) and (prec := _BINARY.get(tok[1], (0,))[0]) >= min_prec:
        tz.next()
        right, right_depth = _parse_binary(tz, refs, prec + 1, room - 1, parens)
        e, depth = BinOp(tok[1], e, right), max(depth, right_depth) + 1
        if depth > room:
            raise _too_deep(tz, tok[2], "operators")
    return e, depth


def _parse_unary(tz: _Tokenizer, refs: bool, room: int, parens: int) -> tuple[Expr, int]:
    tok = tz.peek()
    if tok and tok[1] in _UNARY:
        if not room:
            raise _too_deep(tz, tok[2], "operators")
        tz.next()
        operand, depth = _parse_unary(tz, refs, room - 1, parens)
        return UnOp(tok[1], operand), depth + 1
    return _parse_atom(tz, refs, room, parens)


def _parse_atom(tz: _Tokenizer, refs: bool, room: int, parens: int) -> tuple[Expr, int]:
    tok = tz.next()
    kind, value, col = tok
    if kind == "int":
        return Const(int(value)), 0
    if value == "(":
        if not parens:
            raise _too_deep(tz, col, "parentheses")
        inner = _parse_binary(tz, refs, 1, room, parens - 1)
        tz.expect(")")
        return inner
    if kind == "name":
        nxt = tz.peek()
        if refs and nxt and nxt[1] == ".":
            tz.next()
            member = tz.next()
            if member[0] != "name":
                raise ParseError([Diagnostic(tz.line, member[2] + 1, "expected local name after '.'")])
            return QualifiedRef(value, member[1]), 0
        return LocalRef(value), 0
    raise ParseError([Diagnostic(tz.line, col + 1, f"unexpected token {value!r} in expression")])


def _parse_order(tz: _Tokenizer) -> MO:
    tok = tz.next()
    if tok[0] != "name" or tok[1] not in _ORDER_NAMES:
        raise ParseError([Diagnostic(tz.line, tok[2] + 1,
                                     f"expected memory order (na|rlx|acq|rel|acq_rel|sc), found {tok[1]!r}")])
    return _ORDER_NAMES[tok[1]]


def _parse_object(tz: _Tokenizer) -> str:
    tok = tz.next()
    if tok[0] != "name":
        raise tz.fail("expected object name")
    return tok[1]


_ARG_PARSERS = {"obj": _parse_object, "mo": _parse_order}


def _parse_call(tz: _Tokenizer, **fields) -> Stmt:
    """The access call at ``tz``; ``fields`` holds the ``local`` it assigns,
    if any."""
    cls, names = _CALLS[tz.next()[1]]
    tz.expect("(")
    for i, name in enumerate(names[len(fields):]):
        if i:
            tz.expect(",")
        fields[name] = _ARG_PARSERS.get(name, _parse_expr)(tz)
    tz.expect(")")
    return cls(**fields, line=tz.line)


def _indent_of(raw: str) -> int:
    n = 0
    for ch in raw:
        if ch == " ":
            n += 1
        elif ch == "\t":
            raise ParseError([Diagnostic(0, n + 1, "tabs are not allowed for indentation")])
        else:
            break
    return n


def _parse_statement(tz: _Tokenizer) -> Stmt:
    line = tz.line
    tok = tz.peek()
    if tok is None:
        raise tz.fail("empty statement")
    kind, value, col = tok
    if value in _LOOP_KEYWORDS:
        raise ParseError([Diagnostic(line, col + 1,
                                     f"loop construct {value!r} is not allowed: thread bodies must be acyclic")])
    if value in _CALLS and value not in _ASSIGNING_CALLS:
        return _parse_call(tz)
    if value == "if":
        tz.next()
        tz.expect("(")
        cond = _parse_expr(tz)
        tz.expect(")")
        tz.expect(":")
        return IfBlock(cond=cond, line=line)
    if kind == "name":
        # local = load(...) | fadd(...) | cas(...) | expr
        local = tz.next()[1]
        tz.expect("=")
        nxt = tz.peek()
        if nxt and nxt[1] in _ASSIGNING_CALLS:
            return _parse_call(tz, local=local)
        return LocalAssign(local=local, value=_parse_expr(tz), line=line)
    raise tz.fail(f"cannot parse statement starting with {value!r}")


def parse_program(text: str) -> Program:
    """Parse and validate litmus source; raises ParseError with diagnostics."""
    diagnostics: list[Diagnostic] = []
    name = ""
    objects: dict[str, int] = {}
    threads: list[ThreadBody] = []
    asserts: list[AssertNever] = []
    expect_traces: Optional[int] = None

    lines = text.splitlines()
    cur_thread: Optional[ThreadBody] = None  # the thread being parsed
    # open blocks, innermost last: (indent of the line that opened it, the
    # body its statements go to); the thread body itself sits at indent -1
    block_stack: list[tuple[int, list[Stmt]]] = []
    last_if: dict[int, IfBlock] = {}  # indent -> most recent IfBlock at that indent
    # the indent of a rejected thread header (-1) or if: the statement lines
    # indented deeper, its body, are skipped
    skip_above: Optional[int] = None

    def close_thread() -> None:
        nonlocal cur_thread, skip_above
        if cur_thread is not None:
            threads.append(cur_thread)
            cur_thread = None
        block_stack.clear()
        last_if.clear()
        skip_above = None

    for lineno, raw in enumerate(lines, start=1):
        stripped = raw.split("#", 1)[0].rstrip()
        if not stripped.strip():
            continue
        try:
            indent = _indent_of(raw)
        except ParseError as pe:
            d = pe.diagnostics[0]
            diagnostics.append(Diagnostic(lineno, d.col, d.message))
            continue
        body_text = stripped.strip()

        try:
            if indent == 0 and body_text.startswith("program"):
                close_thread()
                parts = body_text.split()
                if len(parts) != 2:
                    raise ParseError([Diagnostic(lineno, 1, "expected: program NAME")])
                name = parts[1]
                continue
            if indent == 0 and body_text.startswith("init"):
                close_thread()
                rest = body_text[len("init"):].strip()
                for decl in rest.split(","):
                    decl = decl.strip()
                    if not decl:
                        continue
                    if "=" in decl:
                        obj, _, v = decl.partition("=")
                        obj, v = obj.strip(), v.strip()
                        try:
                            init_v = int(v)
                        except ValueError:
                            raise ParseError([Diagnostic(lineno, 1, f"bad init value {v!r}")])
                    else:
                        obj, init_v = decl, 0
                    if not obj.isidentifier():
                        raise ParseError([Diagnostic(lineno, 1, f"bad object name {obj!r}")])
                    if obj in objects:
                        raise ParseError([Diagnostic(lineno, 1, f"duplicate object {obj!r}")])
                    objects[obj] = init_v
                continue
            if indent == 0 and body_text.startswith("thread"):
                close_thread()
                skip_above = -1
                header = body_text[len("thread"):].strip()
                if not header.endswith(":"):
                    raise ParseError([Diagnostic(lineno, 1, "expected: thread NAME:")])
                tname = header[:-1].strip()
                if not tname.isidentifier():
                    raise ParseError([Diagnostic(lineno, 1, f"bad thread name {tname!r}")])
                if tname == INIT_THREAD or is_shadow_unit(tname):
                    raise ParseError([Diagnostic(
                        lineno, 1, f"reserved thread name {tname!r}: 'init' and names"
                                   " starting with 'sth_' are the checker's own")])
                if any(t.name == tname for t in threads):
                    raise ParseError([Diagnostic(lineno, 1, f"duplicate thread {tname!r}")])
                cur_thread = ThreadBody(tname, [])
                block_stack.append((-1, cur_thread.body))
                skip_above = None
                continue
            if indent == 0 and body_text.startswith("assert"):
                close_thread()
                rest = body_text[len("assert"):].strip()
                if not rest.startswith("never"):
                    raise ParseError([Diagnostic(lineno, 1, "only 'assert never (...)' is supported")])
                expr_text = rest[len("never"):].strip()
                tz = _Tokenizer(expr_text, lineno)
                expr = _parse_expr(tz, allow_refs=True)
                if not tz.at_end():
                    raise tz.fail("trailing tokens after assert predicate")
                asserts.append(AssertNever(text=expr_text, expr=expr, line=lineno))
                continue
            if indent == 0 and body_text.startswith("expect"):
                close_thread()
                parts = body_text.replace("=", " = ").split()
                if len(parts) != 4 or parts[1] != "traces" or parts[2] != "=":
                    raise ParseError([Diagnostic(lineno, 1, "expected: expect traces = N")])
                if not parts[3].isdecimal():
                    raise ParseError([Diagnostic(
                        lineno, 1, f"expected a non-negative integer trace count, found {parts[3]!r}")])
                expect_traces = int(parts[3])
                continue

            # statement line inside a thread
            if skip_above is not None:
                if indent > skip_above:
                    continue
                skip_above = None
            if cur_thread is None:
                raise ParseError([Diagnostic(lineno, 1, f"statement outside a thread: {body_text!r}")])
            while block_stack and indent <= block_stack[-1][0]:
                block_stack.pop()
            if not block_stack:
                raise ParseError([Diagnostic(lineno, indent + 1, "bad indentation")])
            tz = _Tokenizer(stripped.strip(), lineno)
            first = tz.peek()
            if first and first[1] == "else":
                tz.next()
                tz.expect(":")
                if not tz.at_end():
                    raise tz.fail("trailing tokens after else:")
                owner = last_if.get(indent)
                if owner is None:
                    raise ParseError([Diagnostic(lineno, indent + 1, "else without matching if")])
                block_stack.append((indent, owner.else_body))
                continue
            stmt = _parse_statement(tz)
            if not tz.at_end():
                raise tz.fail("trailing tokens after statement")
            # block_stack holds the thread body and the blocks open around stmt
            if isinstance(stmt, IfBlock) and len(block_stack) > MAX_NESTING:
                last_if[indent] = stmt  # an else of it attaches to it, out of the program
                skip_above = indent
                raise _too_deep(tz, indent, "if blocks")
            block_stack[-1][1].append(stmt)
            if isinstance(stmt, IfBlock):
                last_if[indent] = stmt
                block_stack.append((indent, stmt.then_body))
        except ParseError as pe:
            diagnostics.extend(pe.diagnostics)

    close_thread()
    if diagnostics:
        raise ParseError(diagnostics)

    prog = Program(name=name or "unnamed", objects=objects, threads=threads,
                   asserts=asserts, expect_traces=expect_traces)
    validate(prog)
    return prog


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def validate(prog: Program) -> None:
    """Check object declarations and local def-before-use."""
    diagnostics: list[Diagnostic] = []

    for t in prog.threads:

        def walk(body: list[Stmt], defined: set[str]) -> None:
            for s in body:
                reads = stmt_locals_read(s)
                for loc in reads:
                    if loc in prog.objects:
                        diagnostics.append(Diagnostic(
                            s.line, 1,
                            f"thread {t.name}: shared object {loc!r} in expression;"
                            " bind it to a local with load() first"))
                    elif loc not in defined:
                        diagnostics.append(Diagnostic(
                            s.line, 1, f"thread {t.name}: local {loc!r} used before assignment"))
                for obj in stmt_objs(s):
                    if obj not in prog.objects:
                        diagnostics.append(Diagnostic(
                            s.line, 1, f"thread {t.name}: undeclared object {obj!r}"))
                if isinstance(s, IfBlock):
                    def_then = set(defined)
                    walk(s.then_body, def_then)
                    def_else = set(defined)
                    walk(s.else_body, def_else)
                    # a local is defined after the branch iff defined on both arms
                    defined.clear()
                    defined.update(def_then & def_else)
                else:
                    for loc in stmt_locals_written(s):
                        defined.add(loc)

        walk(t.body, set())

    if diagnostics:
        raise ParseError(diagnostics)


# ---------------------------------------------------------------------------
# Pretty-printing
# ---------------------------------------------------------------------------

def _render_stmt(s: Stmt, indent: int, out: list[str]) -> None:
    pad = "  " * indent
    name, *parts = stmt_fingerprint(s)
    if name == "if":
        out.append(f"{pad}if ({parts[0]}):")
        for inner in s.then_body:
            _render_stmt(inner, indent + 1, out)
        if s.else_body:
            out.append(f"{pad}else:")
            for inner in s.else_body:
                _render_stmt(inner, indent + 1, out)
        return
    if "local" in _STMT_FIELDS[type(s)][1]:
        local, *parts = parts
        pad += f"{local} = "
    out.append(f"{pad}{parts[0]}" if name == "assign"
               else f"{pad}{name}({', '.join(map(str, parts))})")


def pretty_print(prog: Program) -> str:
    out = [f"program {prog.name}"]
    if prog.objects:
        out.append("init " + ", ".join(f"{o} = {v}" for o, v in prog.objects.items()))
    for t in prog.threads:
        out.append(f"thread {t.name}:")
        for s in t.body:
            _render_stmt(s, 1, out)
    for a in prog.asserts:
        out.append(f"assert never {a.text}")
    if prog.expect_traces is not None:
        out.append(f"expect traces = {prog.expect_traces}")
    return "\n".join(out) + "\n"

