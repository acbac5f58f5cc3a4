"""Command-line front end.

Exit codes: 0 verified (no violations or races), 1 violation / na race /
expected-trace-count mismatch, 2 usage or parse error, or an assert that
could not be evaluated (and no violation), 3 exploration budget exhausted
(partial report), 4 internal error (an uncaught exception inside the
checker, or an explored sequence that the post-hoc rules or the C11 oracle
reject; one line on stderr, never a verdict).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import click
from click.core import ParameterSource

from .ir import ParseError, parse_program, pretty_print
from .engine import ExecState, ReplayError, run_sequence
from .relations import compute_relations, hb_pairs, mask_edges, rf_pairs
from .coherence import check_c11_oracle, check_moca, shto_order
from .explorer import (
    EnumerationCapExceeded,
    ExplorationReport,
    canonical_trace_id,
    check_asserts,
    detect_na_races,
    enumerate_all,
    explore,
)
from .transform import early_write_transform

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4


def _load(path: str):
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as e:
        click.echo(f"error: cannot read {path}: {e}", err=True)
        sys.exit(EXIT_USAGE)
    try:
        return parse_program(text)
    except ParseError as pe:
        for d in pe.diagnostics:
            click.echo(f"{path}:{d}", err=True)
        sys.exit(EXIT_USAGE)


def _text_report(report: ExplorationReport) -> str:
    lines = [
        f"program:            {report.program}",
        f"sequences_explored: {report.sequences_explored}",
        f"distinct_traces:    {report.distinct_traces}",
        f"non_mca_sequences:  {report.non_mca_sequences}",
        f"c11_oracle_failures: {report.c11_oracle_failures}",
        f"racy_sequences:     {report.racy_sequence_count}",
        f"violations:         {len(report.violations)}",
    ]
    for v in report.violations:
        lines.append(f"  assert never {v['assert']}  witness schedule: {' '.join(v['schedule'])}")
    seen = set()
    for r in report.na_races:
        key = tuple(r["events"])
        if key in seen:
            continue
        seen.add(key)
        lines.append(f"  na race: {r['events'][0]} <-> {r['events'][1]}"
                     f"  witness schedule: {' '.join(r['schedule'])}")
    for d in report.assert_diagnostics:
        lines.append(f"  assert diagnostic: {d}")
    if report.budget_exhausted:
        lines.append("WARNING: exploration budget exhausted; report is partial")
    return "\n".join(lines)


def _relation_dump(program, schedule: list[str]) -> dict:
    rels = compute_relations(run_sequence(program, schedule).sequence())
    events = rels.events

    def edges(pairs) -> list[str]:
        return sorted(f"{a.pretty()} -> {b.pretty()}" for a, b in pairs)

    to = shto_order(rels)
    return {
        "schema": "moca-verify-relations/1",
        "schedule": schedule,
        "events": [e.pretty() for e in events],
        "rf": edges((w, r) for r, w in rf_pairs(rels)),
        "sw": edges(mask_edges(events, rels.sw)),
        "dob": edges(mask_edges(events, rels.dob)),
        "hb": edges(hb_pairs(rels)),
        "mo": {obj: [events[w].pretty() for w in ws] for obj, ws in rels.mo.items()},
        "to": None if to is None else [events[p].pretty() for p in to],
        "coherent": check_moca(rels).ok,
        "c11_coherent": check_c11_oracle(rels).ok,
    }


def _relations_dot(dump: dict) -> str:
    out = ["digraph relations {"]
    for kind, color in (("rf", "darkgreen"), ("sw", "purple"), ("dob", "orange")):
        for edge in dump[kind]:
            a, _, b = edge.partition(" -> ")
            out.append(f'  "{a}" -> "{b}" [label="{kind}", color={color}];')
    for edge in dump["hb"]:
        a, _, b = edge.partition(" -> ")
        out.append(f'  "{a}" -> "{b}" [color=gray, style=dashed];')
    out.append("}")
    return "\n".join(out)


class _Main(click.Group):
    """Command group that turns an uncaught exception inside the checker into
    exit code 4, so a crash never reads as a verdict."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except (click.ClickException, click.exceptions.Exit, click.Abort):
            raise
        except Exception as e:
            message = " ".join(str(e).split())
            click.echo(f"internal error: {type(e).__name__}: {message}", err=True)
            sys.exit(EXIT_INTERNAL)


@click.group(cls=_Main)
def main() -> None:
    """Model checker for litmus programs under multi-copy-atomic semantics."""


# verify's options that only exploring reads
_EXPLORE_ONLY = frozenset({"as_json", "max_seqs", "max_depth", "no_enforce_expect",
                           "emit_transformed", "dump_relations"})


@main.command()
@click.argument("path", type=click.Path())
@click.option("--json", "as_json", is_flag=True, help="emit a JSON report")
@click.option("--max-seqs", type=int, default=1_000_000, show_default=True)
@click.option("--max-depth", type=int, default=10_000, show_default=True)
@click.option("--no-early-write", is_flag=True,
              help="diagnostic: skip the early-write transformation")
@click.option("--no-enforce-expect", is_flag=True,
              help="ignore 'expect traces = N' annotations")
@click.option("--emit-transformed", is_flag=True,
              help="also print the source of the program explored: transformed, "
                   "or as written with --no-early-write (with --json, under the "
                   "report's \"transformed\" key)")
@click.option("--dump-relations", is_flag=True,
              help="include per-trace relation edge lists in the JSON report "
                   "(needs --json)")
@click.option("--dump-trace", is_flag=True,
              help="print per-step shared-store snapshots of each distinct trace "
                   "(with --json, under each trace's \"snapshots\" key)")
@click.option("--replay", "replay_file", type=click.Path(), default=None,
              help="replay a witness schedule (JSON list of unit ids) instead of exploring")
def verify(path, as_json, max_seqs, max_depth, no_early_write, no_enforce_expect,
           emit_transformed, dump_relations, dump_trace, replay_file) -> None:
    """Explore all traces of a litmus program; report violations and races."""
    if replay_file is not None:
        ctx = click.get_current_context()
        for param in ctx.command.params:
            if (param.name in _EXPLORE_ONLY
                    and ctx.get_parameter_source(param.name) is not ParameterSource.DEFAULT):
                raise click.UsageError(f"{param.opts[0]} has no effect with --replay", ctx)
        _replay(_load(path), replay_file, not no_early_write, dump_trace)
        return
    if dump_relations and not as_json:
        raise click.UsageError("--dump-relations needs --json")

    program = _load(path)

    # transformed once, for the explorer, both dumps and --emit-transformed
    target = program if no_early_write else early_write_transform(program)
    transformed = pretty_print(target) if emit_transformed else None
    if transformed is not None and not as_json:
        click.echo(transformed, nl=False)

    report = explore(target, max_seqs=max_seqs, max_depth=max_depth, use_early_write=False)
    payload = report.to_json()
    if dump_relations:
        for entry in payload["traces"]:
            entry["relations"] = _relation_dump(target, entry["schedule"])
    if dump_trace:
        for entry in payload["traces"]:
            state = ExecState(target)
            snapshots = [(state.advance(unit).rels.events[-1], state.shr)
                         for unit in entry["schedule"]]
            if as_json:
                entry["snapshots"] = [{"event": ev.pretty(), "shared": shr}
                                      for ev, shr in snapshots]
            else:
                click.echo(f"trace {entry['trace_id']}:")
                for ev, shr in snapshots:
                    click.echo(_trace_line(ev, shr))

    mismatch = None
    if program.expect_traces is not None and not no_enforce_expect:
        if report.distinct_traces != program.expect_traces:
            mismatch = (program.expect_traces, report.distinct_traces)
    if as_json:
        payload["expect_traces"] = program.expect_traces
        payload["expect_mismatch"] = bool(mismatch)
        if transformed is not None:
            payload["transformed"] = transformed
        click.echo(json.dumps(payload, indent=2, sort_keys=True))
    else:
        click.echo(_text_report(report))
        if mismatch:
            click.echo(f"trace-count mismatch: expected {mismatch[0]}, found {mismatch[1]}")

    if report.non_mca_sequences or report.c11_oracle_failures:
        # every explored sequence passed the incremental filter, so a
        # rejection by the post-hoc rules or the oracle is the checker
        # contradicting itself, not a verdict
        click.echo(f"internal error: {report.non_mca_sequences} explored sequences "
                   f"fail the post-hoc rules and {report.c11_oracle_failures} the "
                   f"C11 oracle", err=True)
        sys.exit(EXIT_INTERNAL)
    if report.budget_exhausted:
        sys.exit(EXIT_BUDGET)
    if report.violations or report.na_races or mismatch:
        sys.exit(EXIT_VIOLATION)
    if report.assert_diagnostics:
        sys.exit(EXIT_USAGE)
    sys.exit(EXIT_OK)


def _trace_line(ev, shr: dict[str, int]) -> str:
    """One ``--dump-trace`` line: the event and the shared store after it."""
    return f"  {ev.pretty():40s} | " + " ".join(f"{o}={v}" for o, v in sorted(shr.items()))


def _replay(program, replay_file: str, use_early_write: bool, dump_trace: bool) -> None:
    try:
        schedule = json.loads(Path(replay_file).read_text())
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as e:
        click.echo(f"error: cannot read schedule {replay_file}: {e}", err=True)
        sys.exit(EXIT_USAGE)
    if not (isinstance(schedule, list) and all(isinstance(u, str) for u in schedule)):
        click.echo(f"error: cannot read schedule {replay_file}: "
                   "not a JSON list of unit names", err=True)
        sys.exit(EXIT_USAGE)
    target = early_write_transform(program) if use_early_write else program
    state = ExecState(target)
    lines = []
    try:
        for unit in schedule:
            state.advance(unit)
            if dump_trace:
                lines.append(_trace_line(state.rels.events[-1], state.shr))
    except ReplayError as e:
        click.echo(f"replay error: {e}", err=True)
        sys.exit(EXIT_USAGE)
    rels = compute_relations(state.sequence())
    races = detect_na_races(rels)
    outcome = check_asserts(target, state)
    for line in lines:
        click.echo(line)
    click.echo(f"trace_id: {canonical_trace_id(rels)}")
    click.echo("final shared: " + " ".join(f"{o}={v}" for o, v in sorted(state.shr.items())))
    verdict = check_moca(rels)
    click.echo(f"coherent: {verdict.ok}")
    for rule, witness in verdict.failures.items():
        click.echo(f"incoherent: {rule}: {', '.join(e.pretty() for e in witness)}")
    for i in outcome.violations:
        click.echo(f"violated: assert never {target.asserts[i].text}")
    for a, b in races:
        click.echo(f"na race: {a.pretty()} <-> {b.pretty()}")
    for d in outcome.diagnostics:
        click.echo(f"assert diagnostic: {d}")
    if outcome.violations or races:
        sys.exit(EXIT_VIOLATION)
    sys.exit(EXIT_USAGE if outcome.diagnostics else EXIT_OK)


@main.command("enumerate")
@click.argument("path", type=click.Path())
@click.option("--json", "as_json", is_flag=True)
@click.option("--cap", type=int, default=12, show_default=True,
              help="refuse programs with more schedulable events than this")
@click.option("--no-early-write", is_flag=True)
def enumerate_cmd(path, as_json, cap, no_early_write) -> None:
    """Brute-force oracle: enumerate every coherent interleaving."""
    program = _load(path)
    try:
        traces = enumerate_all(program, cap=cap, use_early_write=not no_early_write)
    except EnumerationCapExceeded as e:
        click.echo(f"error: {e}", err=True)
        sys.exit(EXIT_USAGE)
    if as_json:
        click.echo(json.dumps({
            "schema": "moca-verify-enumeration/1",
            "program": program.name,
            "distinct_traces": len(traces),
            "traces": {tid: sched for tid, sched in sorted(traces.items())},
        }, indent=2, sort_keys=True))
    else:
        click.echo(f"program:         {program.name}")
        click.echo(f"distinct_traces: {len(traces)}")
    sys.exit(EXIT_OK)


@main.command("transform")
@click.argument("path", type=click.Path())
def transform_cmd(path) -> None:
    """Print the early-write transformed program."""
    program = _load(path)
    click.echo(pretty_print(early_write_transform(program)), nl=False)
    sys.exit(EXIT_OK)


@main.command("relations")
@click.argument("path", type=click.Path())
@click.option("--dot", is_flag=True, help="emit DOT graphs instead of JSON")
@click.option("--no-early-write", is_flag=True)
def relations_cmd(path, dot, no_early_write) -> None:
    """Explore and dump hb/sw/dob/rf/mo/to edges for each distinct trace."""
    program = _load(path)
    target = program if no_early_write else early_write_transform(program)
    report = explore(target, use_early_write=False)
    dumps = [_relation_dump(target, t.schedule) for t in report.traces]
    if dot:
        for d in dumps:
            click.echo(_relations_dot(d))
    else:
        click.echo(json.dumps(dumps, indent=2, sort_keys=True))
    sys.exit(EXIT_OK)


if __name__ == "__main__":
    main()
