"""Bytecode census of one cell: bytecodes per event, and per call by function.

Exact on a given CPython (two runs agree to 0.002 %), so it sees a 1 %
change that a shared host's +-2 % timing noise cannot. Not a timing and
not part of the layered suite:

    PYTHONPATH=src python benchmarks/opcount.py

prints the top-ten table for ``TINY["cell"]`` (tests/test_cell_kinds.py)
and, on CPython 3.11 — the version ``RECORDED`` was taken on — exits 1 if
bytecodes per event rose more than 3 % above it.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from repro.experiments import run_cell  # noqa: E402
from tests.test_cell_kinds import TINY  # noqa: E402

#: Bytecodes per event of TINY["cell"] on CPython 3.11, after the per-hop
#: diet (per-queue constants, transmit counters counted when read, the
#: flags table). Its parent read 441.2; the parent of the "counted when
#: read" change 476.0.
RECORDED = 416.7


def census(config):
    """(events, bytecodes, {"module.function": [calls, bytecodes]})."""
    rows = {}  # keyed by code object: the label is built once, at the end

    def tracer(frame, event, arg):
        if event != "call":
            return None
        frame.f_trace_opcodes, frame.f_trace_lines = True, False
        row = rows.setdefault(frame.f_code, [0, 0])
        row[0] += 1

        def local(frame, event, arg):
            if event == "opcode":
                row[1] += 1
            return local

        return local

    sys.settrace(tracer)
    try:
        result = run_cell(config)
    finally:
        sys.settrace(None)
    table = {f"{Path(code.co_filename).stem}.{code.co_qualname}": row
             for code, row in rows.items()}
    return (result.manifest["timings"]["events"],
            sum(row[1] for row in rows.values()), table)


if __name__ == "__main__":
    events, ops, table = census(TINY["cell"])
    per_event = ops / events
    print(f"{events} events, {ops} bytecodes, {per_event:.1f} per event "
          f"(recorded {RECORDED})")
    for key, (calls, n) in sorted(table.items(), key=lambda kv: -kv[1][1])[:10]:
        print(f"{100 * n / ops:5.1f} %  {n / calls:7.1f} /call  "
              f"{calls:8d} calls  {key}")
    if sys.version_info[:2] == (3, 11) and per_event > 1.03 * RECORDED:
        sys.exit(f"bytecodes per event {per_event:.1f} is more than 3 % "
                 f"above the recorded {RECORDED}")
