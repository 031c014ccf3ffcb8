"""Structured export of one pipeline execution's metrics.

:class:`PipelineSnapshot` is the single JSON document the observability
layer produces: per-operator metrics, punctuation-trace statistics, the
pipeline-wide buffered-occupancy timeline, and (optionally) the
:class:`~repro.framework.memory.MemoryMeter`'s byte accounting — the
schema is documented in ``docs/observability.md``.
"""

from __future__ import annotations

import json

__all__ = ["PipelineSnapshot", "SCHEMA"]

#: Schema identifier embedded in every export.
SCHEMA = "repro.pipeline-metrics/1"


class PipelineSnapshot:
    """An immutable, JSON-ready view of a pipeline's collected metrics."""

    def __init__(self, operators, punctuation=None, occupancy=None,
                 memory=None, meta=None, resilience=None, parallel=None,
                 spill=None, serve=None):
        self._doc = {
            "schema": SCHEMA,
            "meta": dict(meta or {}),
            "operators": list(operators),
            "punctuation": punctuation,
            "occupancy": occupancy,
            "memory": memory,
            "resilience": resilience,
            "parallel": parallel,
            "spill": spill,
            "serve": serve,
            "totals": self._totals(operators, occupancy),
        }

    @staticmethod
    def _totals(operators, occupancy) -> dict:
        dropped = sum(op.get("dropped", 0) for op in operators)
        return {
            "operators": len(operators),
            "events_in": sum(op["events"]["in"] for op in operators),
            "events_out": sum(op["events"]["out"] for op in operators),
            "dropped": dropped,
            "busy_s": sum(op["busy_s"]["total"] for op in operators),
            "peak_buffered_events": (
                occupancy["peak"] if occupancy else
                max((op["occupancy"]["peak"] for op in operators), default=0)
            ),
        }

    # -- access -----------------------------------------------------------

    def as_dict(self) -> dict:
        """The full export document (shared, do not mutate)."""
        return self._doc

    @property
    def operators(self):
        """Per-operator metric dicts, pipeline discovery order."""
        return self._doc["operators"]

    def operator(self, name) -> dict:
        """One operator's metrics by diagnostic label."""
        for op in self._doc["operators"]:
            if op["name"] == name:
                return op
        raise KeyError(name)

    @property
    def punctuation(self):
        """Punctuation trace statistics (None when tracing was off)."""
        return self._doc["punctuation"]

    @property
    def resilience(self):
        """Supervised-run fault/recovery summary (None for plain runs)."""
        return self._doc["resilience"]

    @property
    def parallel(self):
        """Parallel-runtime accounting — coordinator round/merge counters
        and per-shard worker stats (None for single-process runs)."""
        return self._doc["parallel"]

    @property
    def spill(self):
        """Bounded-memory spill metrics (None for unbudgeted runs):
        runs spilled, bytes written/read, merge fan-in, and the peak
        resident buffer the budget was enforced against."""
        return self._doc["spill"]

    @property
    def serve(self):
        """Always-on service section (None outside ``repro serve``):
        per-tenant queue depths, shed/evict/quarantine counters, standing
        query registry, and delivery-lag quantiles."""
        return self._doc["serve"]

    @property
    def totals(self) -> dict:
        """Cross-operator aggregates."""
        return self._doc["totals"]

    # -- export -----------------------------------------------------------

    def to_json(self, indent=2) -> str:
        """Serialize the export document."""
        return json.dumps(self._doc, indent=indent, default=_jsonable)

    def save(self, path, indent=2):
        """Write the JSON export to ``path``."""
        with open(path, "w") as fh:
            fh.write(self.to_json(indent=indent))
            fh.write("\n")

    def __repr__(self):
        totals = self._doc["totals"]
        return (
            f"PipelineSnapshot(operators={totals['operators']}, "
            f"events_in={totals['events_in']}, "
            f"peak_buffered={totals['peak_buffered_events']})"
        )


def _jsonable(value):
    """Fallback serializer: infinities and exotic numerics to strings."""
    try:
        return float(value)
    except (TypeError, ValueError):
        return str(value)
