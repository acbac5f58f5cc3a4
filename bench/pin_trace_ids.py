"""Record the sorted trace-id set of every benchmark program.

    python3 bench/pin_trace_ids.py

Explores each program of every workload in ``workloads.WORKLOADS`` (seed 0;
the seed does not reach trace ids) and writes ``trace_ids.json``, which the
benchmark compares every report with.  Re-record it only with a change that
is meant to change trace ids, and say so in that change.
"""

from __future__ import annotations

import json
import sys

import workloads
from run import PINS, SRC


def main() -> None:
    sys.path.insert(0, str(SRC))
    from moca_verify import explore, parse_program

    pins = {}
    for workload in workloads.WORKLOADS:
        for key, source in workloads.sources(workload, 0):
            report = explore(parse_program(source))
            pins[key] = sorted(report.trace_ids)
    PINS.write_text(json.dumps(pins, indent=0, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
