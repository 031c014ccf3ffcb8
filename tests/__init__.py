"""Helpers shared by more than one test module."""

from __future__ import annotations

from repro.engine.event import Event


def item_events(items, mode):
    """A compiled shard executor's wire items back to ``(events,
    punctuations)`` for a plan of wire mode ``mode``."""
    events, puncts = [], []
    for kind, value in items:
        if kind == "punct":
            puncts.append(value)
            continue
        if kind == "elements":
            events.extend(value)
            continue
        if kind == "fbatch":
            sync, other, keys, values = value
            cols = [values]
        else:
            sync, other, keys = value.sync_times, value.other_times, value.keys
            cols = value.payload_columns
        if mode == "tuple":
            payloads = list(zip(*(col.tolist() for col in cols))) \
                if cols else [()] * len(sync)
        else:
            payloads = cols[0].tolist()
        events.extend(map(
            Event, sync.tolist(), other.tolist(), keys.tolist(), payloads
        ))
    return events, puncts
