"""Span arithmetic for the traced run: unions, self times, per-name totals.

A span is `(sid, parent, name, t0, t1, extra)`: `parent` is the sid of the
span that caused it (None at the top), `extra` a dict of counters taken at
the boundary or None.  Children may overlap one another when they ran on
different pool threads, so a parent's covered time is the length of the
union of its children's intervals, clipped to the parent's own interval.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable, NamedTuple


class Span(NamedTuple):
    sid: int
    parent: int | None
    name: str
    t0: float
    t1: float
    extra: dict | None = None


def union_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by a set of closed intervals."""
    total, end = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi > end:
            total += hi - max(lo, end)
            end = hi
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Duration minus the union of the child intervals, per span."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    by_id = {s.sid: s for s in spans}
    for s in spans:
        if s.parent in by_id:
            children[s.parent].append((s.t0, s.t1))
    out = {}
    for s in spans:
        clipped = [
            (max(lo, s.t0), min(hi, s.t1))
            for lo, hi in children.get(s.sid, ())
            if hi > s.t0 and lo < s.t1
        ]
        out[s.sid] = (s.t1 - s.t0) - union_length(clipped)
    return out


def summarize(spans: list[Span]) -> dict:
    """Per-name call counts, total and self seconds, summed counters; the
    union of the top-level spans; and, per name, the busy time of its
    children (for the overlap of pool work under one scan)."""
    selfs = self_times(spans)
    by_id = {s.sid: s for s in spans}
    names: dict[str, dict] = {}
    child_busy: dict[str, float] = defaultdict(float)
    for s in spans:
        rec = names.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                        "counters": {}})
        rec["calls"] += 1
        rec["total_s"] += s.t1 - s.t0
        rec["self_s"] += selfs[s.sid]
        for key, value in (s.extra or {}).items():
            if key.endswith("_max"):
                rec["counters"][key] = max(rec["counters"].get(key, value), value)
            else:
                rec["counters"][key] = rec["counters"].get(key, 0) + value
        parent = by_id.get(s.parent)
        if parent is not None:
            child_busy[parent.name] += s.t1 - s.t0
    top = union_length((s.t0, s.t1) for s in spans if s.parent not in by_id)
    for name, busy in child_busy.items():
        names[name]["child_busy_s"] = busy
    return {"names": names, "top_s": top}
