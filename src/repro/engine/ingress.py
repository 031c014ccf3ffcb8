"""Ingress: turning raw out-of-order data into an element stream.

Pairs a data source (a :class:`~repro.workloads.base.Dataset` or any
iterable of events) with a :class:`~repro.engine.punctuation.PunctuationPolicy`
to produce the interleaved event/punctuation element stream that
:meth:`repro.engine.graph.Pipeline.run` consumes.
"""

from __future__ import annotations

from repro.engine.event import Event, Punctuation
from repro.engine.punctuation import PunctuationPolicy

__all__ = ["ingress_events", "ingress_dataset", "ingress_timestamps"]


def ingress_events(events, frequency=None, reorder_latency=0,
                   final_punctuation=True):
    """Interleave punctuations into an iterable of events.

    Yields events as-is plus a :class:`Punctuation` after every
    ``frequency`` events at ``high_watermark - reorder_latency``
    (Section III-A).  ``final_punctuation`` appends an end-of-data
    punctuation at the final high watermark so downstream windows close
    before the flush.
    """
    policy = PunctuationPolicy(frequency, reorder_latency)
    for event in events:
        yield event
        timestamp = policy.observe(event.sync_time)
        if timestamp is not None:
            yield Punctuation(timestamp)
    end = policy.final()
    if final_punctuation and end is not None:
        yield Punctuation(end)


def ingress_dataset(dataset, frequency=None, reorder_latency=0,
                    final_punctuation=True):
    """``ingress_events`` over a workload dataset's arrival order."""
    return ingress_events(
        dataset.events(), frequency, reorder_latency, final_punctuation
    )


def ingress_timestamps(timestamps, frequency=None, reorder_latency=0,
                       final_punctuation=True):
    """Raw-timestamp ingress for sorter-only benchmarks.

    Yields ``("event", t)`` and ``("punct", t)`` pairs — no Event objects,
    so sorting-algorithm comparisons (Figures 7/8) measure the algorithms,
    not event allocation.
    """
    policy = PunctuationPolicy(frequency, reorder_latency)
    for t in timestamps:
        yield ("event", t)
        timestamp = policy.observe(t)
        if timestamp is not None:
            yield ("punct", timestamp)
    end = policy.final()
    if final_punctuation and end is not None:
        yield ("punct", end)
