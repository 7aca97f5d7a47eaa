"""In-memory span recorder for the traced run.

A span is (name, start, end, parent, op): ``parent`` is the index of the
enclosing span or -1, and ``op`` identifies the operation the span belongs
to.  Spans are kept in a list and written out once, when the run ends.
Names are ``<layer>.<stage>``, where the layer is a setpack module
(``setcore``, ``invert``, ``kappa``, ``pack``, ``qcube``, ``cli``).
"""
from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self._stack: list[int] = []
        self.op = -1

    @contextmanager
    def span(self, name: str):
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ops.append(self.op)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(perf_counter())
        try:
            yield index
        finally:
            self.ends[index] = perf_counter()
            self._stack.pop()

    def __len__(self) -> int:
        return len(self.names)

    def duration(self, index: int) -> float:
        return self.ends[index] - self.starts[index]

    def totals(self, first: int = 0) -> dict[str, float]:
        """Summed duration per span name, over spans ``first`` onwards."""
        out: dict[str, float] = {}
        for i in range(first, len(self.names)):
            out[self.names[i]] = out.get(self.names[i], 0.0) + self.duration(i)
        return out

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps({
                    "name": name, "start": self.starts[i], "end": self.ends[i],
                    "parent": self.parents[i], "op": self.ops[i],
                }) + "\n")


def span_cost(samples: int = 20000) -> float:
    """Seconds one empty span costs, measured on a throwaway tracer."""
    probe = Tracer()
    t0 = perf_counter()
    for _ in range(samples):
        with probe.span("x"):
            pass
    return (perf_counter() - t0) / samples
