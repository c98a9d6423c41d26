"""Spans around the library calls a benchmark pipeline makes.

A span records one call: its name (``<module>.<operation>``), start and end
on the ``perf_counter`` clock, the index of the enclosing span (-1 for none)
and the sequence number of the pipeline instance it belongs to.  Spans stay
in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import json
from pathlib import Path
from time import perf_counter


def untraced(name, fn, *args, **kwargs):
    """Forward to ``fn``; the untraced stand-in for :meth:`Tracer.call`."""
    return fn(*args, **kwargs)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (name, start, end, parent, instance)
        self.instance = -1
        self._open: list[int] = []

    def call(self, name, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        parent = self._open[-1] if self._open else -1
        idx = len(self.spans)
        self.spans.append(None)
        self._open.append(idx)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans[idx] = (name, start, perf_counter(), parent, self.instance)
            self._open.pop()

    def self_times(self, scale: dict[int, float]) -> dict[str, tuple[float, int]]:
        """Per span name: summed self time (duration minus children) and span count.

        Each span's self time is multiplied by ``scale`` of its instance.
        """
        children = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                children[parent] += end - start
        totals: dict[str, tuple[float, int]] = {}
        for idx, (name, start, end, _, instance) in enumerate(self.spans):
            total, count = totals.get(name, (0.0, 0))
            own = (end - start - children[idx]) * scale[instance]
            totals[name] = (total + own, count + 1)
        return totals

    def durations(self, name: str) -> dict[int, float]:
        """Duration of every span called ``name``, keyed by instance number."""
        return {inst: end - start for n, start, end, _, inst in self.spans if n == name}

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("name", "start", "end", "parent", "instance")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
