"""Host-time spans around the benchmark's own calls into each layer.

Spans are kept in memory and written once, at the end of a traced run,
as Chrome trace-event JSON that Perfetto loads.  Each span records its
name, start, end, the span that encloses it and the op it belongs to.
A disabled recorder keeps nothing and costs one attribute check.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Dict, List, Optional


class SpanRecorder:
    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: List[Dict] = []
        self._stack: List[int] = []
        self._origin = time.perf_counter()

    @contextmanager
    def span(self, name: str, op_id: Optional[int] = None, **args):
        if not self.enabled:
            yield
            return
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = {
            "id": span_id, "name": name, "parent": parent, "op_id": op_id,
            "start": time.perf_counter(), "end": None, "args": args,
        }
        self.spans.append(record)
        self._stack.append(span_id)
        try:
            yield
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def chrome_trace(self, process_name: str) -> Dict:
        """The spans as Chrome trace events (complete ``X`` events)."""
        events = [{
            "ph": "M", "pid": 1, "tid": 1, "name": "process_name",
            "args": {"name": process_name},
        }]
        for s in self.spans:
            args = dict(s["args"], span_id=s["id"], parent=s["parent"])
            if s["op_id"] is not None:
                args["op_id"] = s["op_id"]
            events.append({
                "ph": "X", "pid": 1, "tid": 1, "name": s["name"], "cat": "perfbench",
                "ts": (s["start"] - self._origin) * 1e6,
                "dur": (s["end"] - s["start"]) * 1e6,
                "args": args,
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write(self, path, process_name: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.chrome_trace(process_name), fh)
