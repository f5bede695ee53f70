"""Spans around the benchmark's calls into the mosaicforest layers.

The benchmark routes every call into a package module through `Tracer.call`.
With tracing off that is a plain call.  With tracing on it records a span
(name, start, end, parent span, job id, plus counts taken from the result
after the clock stopped) in memory; start and end are process CPU seconds,
the clock the job times use; `write_jsonl` saves them when the run ends.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import process_time


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._job: int | None = None
        self._job_span: int | None = None

    def call(self, name, fn, *args, meta=None, **kwargs):
        """Call fn(*args, **kwargs); when tracing, record a span named `name`.

        `meta`, if given, maps the result to a dict of counts stored on the
        span (vertices built, levels computed, bytes written, ...).
        """
        if not self.enabled:
            return fn(*args, **kwargs)
        start = process_time()
        result = fn(*args, **kwargs)
        end = process_time()
        span = {
            "id": len(self.spans),
            "name": name,
            "start": start,
            "end": end,
            "parent": self._job_span,
            "job": self._job,
        }
        if meta is not None:
            span.update(meta(result))
        self.spans.append(span)
        return result

    @contextmanager
    def job(self, job_id: int, label: str):
        """Root span of one job; layer spans opened inside it name it as parent."""
        if not self.enabled:
            yield
            return
        span = {
            "id": len(self.spans),
            "name": "job",
            "start": process_time(),
            "end": None,
            "parent": None,
            "job": job_id,
            "label": label,
        }
        self.spans.append(span)
        self._job, self._job_span = job_id, span["id"]
        try:
            yield
        finally:
            span["end"] = process_time()
            self._job = self._job_span = None

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")

    def totals(self) -> dict[str, dict]:
        """Per span name: summed seconds, call count, jobs seen and summed counts."""
        out: dict[str, dict] = {}
        for span in self.spans:
            if span["name"] == "job":
                continue
            agg = out.setdefault(span["name"], {"s": 0.0, "calls": 0, "jobs": set()})
            agg["s"] += span["end"] - span["start"]
            agg["calls"] += 1
            agg["jobs"].add(span["job"])
            for key, value in span.items():
                if key not in ("id", "name", "start", "end", "parent", "job"):
                    agg[key] = agg.get(key, 0) + value
        return out
