"""Per-operator figures from Ray Data's ``Dataset.stats()`` text.

Each operator block reads like::

    Operator 2 MapBatches(add_pid)->MapBatches(deid_batch)->Write: 2 tasks executed, ...
    * Remote wall time: 248.62ms min, 351.68ms max, 300.15ms mean, 600.3ms total
    * UDF time: 173.49ms min, 240.39ms max, 206.94ms mean, 413.87ms total
    * Output num rows per block: 1 min, 1 max, 1 mean, 2 total

and an all-to-all operator (sort, shuffle, aggregate) reads
``Operator 3 Sort: executed in 0.58s`` followed by indented
``Suboperator`` blocks of the same shape.  The "executed in" figure is the
whole dataset's execution time, so an all-to-all operator's own time is
the sum of its sub-operators' wall times.  A block this parser cannot read
is reported as a miss; the caller counts misses as failures.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

_UNIT_S = {"ns": 1e-9, "us": 1e-6, "ms": 1e-3, "s": 1.0, "min": 60.0, "m": 60.0, "h": 3600.0}
_NUM = r"([\d.]+(?:e[-+]?\d+)?)(ns|us|ms|s|min|m|h)"
_HEADER = re.compile(r"^\s*(Operator|Suboperator) (\d+) (.+?): (.*)$")
_TIME_LINE = re.compile(
    rf"\* (Remote wall time|UDF time): {_NUM} min, {_NUM} max, {_NUM} mean, {_NUM} total"
)
_ROWS = re.compile(r"\* Output num rows per block: .*?([\d.]+) total")
_TASKS = re.compile(r"(\d+) tasks executed")
_EXECUTED = re.compile(rf"executed in {_NUM}")


def _seconds(value: str, unit: str) -> float:
    return float(value) * _UNIT_S[unit]


@dataclass
class OpStats:
    name: str
    sub: bool = False
    tasks: int = 0
    wall_total_s: float = 0.0
    wall_max_s: float = 0.0
    udf_total_s: float = 0.0
    rows: float = 0.0
    alltoall: bool = False
    subops: list["OpStats"] = field(default_factory=list)


def parse(text: str) -> tuple[list[OpStats], int]:
    """Return (top-level operators with their sub-operators, misses).

    Blocks Ray prints without figures (``[execution cached]``, a union's
    empty line, an operator that ran no task) are expected; any other
    block without a wall-time line, or a header of unknown shape, is a
    miss."""
    ops: list[OpStats] = []
    misses = 0
    cur: OpStats | None = None
    need_wall = False

    def close() -> None:
        nonlocal misses
        if need_wall:
            misses += 1

    for line in text.splitlines():
        head = _HEADER.match(line)
        if head:
            close()
            kind, _, name, rest = head.groups()
            cur = OpStats(name=name, sub=kind == "Suboperator")
            tasks = _TASKS.search(rest)
            executed = _EXECUTED.search(rest)
            cur.tasks = int(tasks.group(1)) if tasks else 0
            cur.alltoall = bool(executed) and not cur.sub
            need_wall = cur.tasks > 0
            if not (tasks or executed or "[execution cached]" in rest or not rest.strip()):
                misses += 1
            if cur.sub and ops:
                ops[-1].subops.append(cur)
            elif not cur.sub:
                ops.append(cur)
            continue
        if cur is None:
            continue
        timing = _TIME_LINE.search(line)
        if timing:
            vals = timing.groups()
            if vals[0] == "Remote wall time":
                cur.wall_max_s = _seconds(vals[3], vals[4])
                cur.wall_total_s = _seconds(vals[7], vals[8])
                need_wall = False
            else:
                cur.udf_total_s = _seconds(vals[7], vals[8])
            continue
        rows = _ROWS.search(line)
        if rows:
            cur.rows = float(rows.group(1))
    close()
    if text.strip() and not ops:
        misses += 1
    return ops, misses
