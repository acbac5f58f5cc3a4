"""Stateless model checking of litmus programs under multi-copy-atomic
hardware semantics, with delayed store visibility modeled as schedulable
shadow-write events."""

from .ir import (
    Act,
    Event,
    MO,
    ParseError,
    Program,
    ord_leq,
    parse_program,
    pretty_print,
)
from .engine import ExecState, Sequence, run_sequence
from .relations import RelationSet, compute_relations
from .coherence import check_c11_oracle, check_moca
from .transform import early_write_transform
from .explorer import (
    ExplorationReport,
    canonical_trace_id,
    check_asserts,
    detect_na_races,
    enumerate_all,
    explore,
)

__all__ = [
    "Act", "Event", "MO", "ParseError", "Program", "ord_leq",
    "parse_program", "pretty_print", "ExecState", "Sequence",
    "run_sequence", "RelationSet", "compute_relations",
    "check_c11_oracle", "check_moca", "early_write_transform",
    "ExplorationReport", "canonical_trace_id", "check_asserts",
    "detect_na_races", "enumerate_all", "explore",
]

__version__ = "0.1.0"
