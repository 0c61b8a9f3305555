"""A span tracer that wraps functions from outside the traced program.

Each call of a wrapped function is a span with a name, a layer, a start,
an end and a parent span.  Spans are aggregated into a call tree: one
node per (name, parent node), holding the call count, the total time, the
time covered by child spans, the rows the calls were given and the
exceptions they raised.  High-count calls such as ``make_report`` thus
cost one node, not one record each; the first ``KEEP_PER_NODE`` spans of
every node are also kept individually.  The program runs on one thread,
so child spans never overlap and a span's self time is its duration
minus the sum of its children's durations.
"""

from __future__ import annotations

import functools
import time
from collections import Counter

KEEP_PER_NODE = 20


class Node:
    """Aggregate of every span with one name under one parent node."""

    def __init__(self, name: str, layer: str | None, parent: "Node | None"):
        self.name = name
        self.layer = layer
        self.parent = parent
        self.children: dict[str, Node] = {}
        self.count = 0
        self.total = 0.0
        self.child_total = 0.0
        self.rows = 0
        self.errors: Counter = Counter()

    @property
    def self_time(self) -> float:
        return self.total - self.child_total

    def path(self) -> list[str]:
        node, out = self, []
        while node.parent is not None:
            out.append(node.name)
            node = node.parent
        return out[::-1]

    def walk(self):
        """This node and all its descendants, depth first."""
        yield self
        for child in self.children.values():
            yield from child.walk()


class _Frame:
    __slots__ = ("node", "span_id", "start", "child_time", "error")

    def __init__(self, node, span_id, start):
        self.node = node
        self.span_id = span_id
        self.start = start
        self.child_time = 0.0
        self.error = None


class Tracer:
    """Call-tree span recorder; ``clock`` is injectable for tests."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.root = Node("<root>", None, None)
        self.spans: list[dict] = []  # the individually kept spans
        self._stack = [_Frame(self.root, 0, None)]
        self._next_id = 1

    def enter(self, name: str, layer: str, rows: int = 0) -> _Frame:
        parent = self._stack[-1]
        node = parent.node.children.get(name)
        if node is None:
            node = parent.node.children[name] = Node(name, layer, parent.node)
        node.rows += rows
        frame = _Frame(node, self._next_id, self.clock())
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def exit(self, frame: _Frame) -> None:
        end = self.clock()
        if self._stack.pop() is not frame:
            raise RuntimeError(f"span {frame.node.name} closed out of order")
        duration = end - frame.start
        node = frame.node
        node.count += 1
        node.total += duration
        node.child_total += frame.child_time
        if frame.error is not None:
            node.errors[frame.error] += 1
        self._stack[-1].child_time += duration
        if node.count <= KEEP_PER_NODE:
            self.spans.append({
                "id": frame.span_id,
                "name": node.name,
                "parent": self._stack[-1].span_id,
                "start": frame.start,
                "end": end,
            })

    def wrap(self, fn, name: str, layer: str, rows=None):
        """``fn`` recording a span per call; ``rows(args, kwargs)`` sizes the call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self.enter(name, layer, rows(args, kwargs) if rows else 0)
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                frame.error = type(exc).__name__
                raise
            finally:
                self.exit(frame)

        return traced

    def nodes(self):
        """Every node except the root."""
        it = self.root.walk()
        next(it)
        return it

    def to_json(self) -> dict:
        return {
            "nodes": [
                {
                    "path": node.path(),
                    "layer": node.layer,
                    "count": node.count,
                    "total_s": node.total,
                    "self_s": node.self_time,
                    "rows": node.rows,
                    "errors": dict(node.errors),
                }
                for node in self.nodes()
            ],
            "spans": self.spans,
        }
