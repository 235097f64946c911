"""Parser for the text that ``ray.data.Dataset.stats()`` returns.

Only the public string is read.  Each operator section becomes a dict:

    {"name", "wall_s", "tasks", "blocks", "cached",
     "remote_wall": {"min", "max", "mean", "total"},   # seconds, per block
     "remote_cpu": {...}, "rows_out", "bytes_out", "subops": [...]}

An all-to-all operator (Sort, Aggregate, Repartition, ...) is printed as
``Operator N Sort: executed in 1.59s`` followed by indented
``Suboperator k ...`` sections; those land in ``subops``.
"""

from __future__ import annotations

import re

_OP = re.compile(r"^Operator (\d+) (.*?): ?(.*)$")
_SUBOP = re.compile(r"^\s*Suboperator (\d+) (.*?): ?(.*)$")
_PRODUCED = re.compile(
    r"(?:(\d+) tasks executed, )?(\d+) blocks produced(?: in ([\d.]+)s)?"
)
_EXECUTED_IN = re.compile(r"^executed in ([-\d.]+)s")
_STAT = re.compile(r"^\s*\* (Remote wall time|Remote cpu time|Output num rows per block|Output size bytes per block): (.*)$")
_PART = re.compile(r"([\d.]+)(us|ms|s)? (min|max|mean|total)")

_UNIT_S = {"us": 1e-6, "ms": 1e-3, "s": 1.0, "": 1.0}
_KEYS = {
    "Remote wall time": "remote_wall",
    "Remote cpu time": "remote_cpu",
    "Output num rows per block": "rows",
    "Output size bytes per block": "bytes",
}


def _new(name: str, rest: str) -> dict:
    op = {
        "name": name,
        "wall_s": 0.0,
        "tasks": 0,
        "blocks": 0,
        "cached": "[execution cached]" in rest,
        "remote_wall": {},
        "remote_cpu": {},
        "rows_out": 0,
        "bytes_out": 0,
        "subops": [],
    }
    m = _PRODUCED.search(rest)
    if m:
        op["tasks"] = int(m.group(1) or 0)
        op["blocks"] = int(m.group(2))
        op["wall_s"] = float(m.group(3) or 0.0)
    m = _EXECUTED_IN.match(rest)
    if m:
        op["wall_s"] = max(0.0, float(m.group(1)))
    return op


def _stat_line(op: dict, key: str, body: str) -> None:
    parts = {kind: float(v) * _UNIT_S[unit] for v, unit, kind in _PART.findall(body)}
    field = _KEYS[key]
    if field == "rows":
        op["rows_out"] = int(parts.get("total", 0))
    elif field == "bytes":
        op["bytes_out"] = int(parts.get("total", 0))
    else:
        op[field] = parts


def parse_stats(text: str) -> list[dict]:
    """Operator sections of one ``Dataset.stats()`` string, in order."""
    ops: list[dict] = []
    cur: dict | None = None
    for line in text.splitlines():
        m = _SUBOP.match(line)
        if m and ops:
            cur = _new(m.group(2), m.group(3))
            ops[-1]["subops"].append(cur)
            continue
        m = _OP.match(line)
        if m:
            cur = _new(m.group(2), m.group(3))
            ops.append(cur)
            continue
        m = _STAT.match(line)
        if m and cur is not None:
            _stat_line(cur, m.group(1), m.group(2))
    for op in ops:
        if op["subops"]:
            # an all-to-all operator's output is its last stage's output
            last = op["subops"][-1]
            op["rows_out"] = last["rows_out"]
            op["bytes_out"] = last["bytes_out"]
            op["tasks"] = sum(s["tasks"] for s in op["subops"])
            op["cached"] = all(s["cached"] for s in op["subops"])
    return ops


def is_all_to_all(op: dict) -> bool:
    return bool(op["subops"])


def find(ops: list[dict], needle: str) -> list[dict]:
    """Executed (not cached) operators whose name contains ``needle``."""
    return [op for op in ops if needle in op["name"] and not op["cached"]]
