from __future__ import annotations

from pathlib import Path

import pytest

from moca_verify import parse_program
from moca_verify.ir import IfBlock, Program, Stmt, stmt_fingerprint

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def corpus_program(name: str):
    return parse_program((CORPUS / f"{name}.lit").read_text())


def corpus_names() -> list[str]:
    return sorted(p.stem for p in CORPUS.glob("*.lit"))


@pytest.fixture
def mp():
    return corpus_program("mp")


@pytest.fixture
def w_rwr():
    return corpus_program("w-rwr")


def structurally_equal(a: Program, b: Program) -> bool:
    """Structural identity ignoring line numbers."""
    def canon(body: list[Stmt]) -> tuple:
        return tuple(stmt_fingerprint(s) + ((canon(s.then_body), canon(s.else_body))
                                            if isinstance(s, IfBlock) else ())
                     for s in body)

    return (a.name == b.name and a.objects == b.objects
            and a.expect_traces == b.expect_traces
            and [x.text for x in a.asserts] == [x.text for x in b.asserts]
            and [t.name for t in a.threads] == [t.name for t in b.threads]
            and all(canon(ta.body) == canon(tb.body)
                    for ta, tb in zip(a.threads, b.threads)))
