"""Terminal operators: collectors and callback subscribers."""

from __future__ import annotations

from repro.engine.operators.base import Operator

__all__ = ["Collector", "CallbackSink"]


class Collector(Operator):
    """Materialize a stream: events, punctuations, and completion flag.

    The workhorse sink for tests and benchmarks; ``events`` preserves
    emission order, ``punctuations`` records every progress marker.
    """

    def __init__(self):
        super().__init__()
        self.events = []
        self.punctuations = []
        self.completed = False

    def on_event(self, event):
        self.events.append(event)

    def on_punctuation(self, punctuation):
        self.punctuations.append(punctuation.timestamp)

    def on_flush(self):
        self.completed = True

    @property
    def sync_times(self):
        """Convenience: the emitted events' sync_times, in emission order."""
        return [event.sync_time for event in self.events]

    @property
    def payloads(self):
        """Convenience: the emitted events' payloads, in emission order."""
        return [event.payload for event in self.events]

    def __len__(self) -> int:
        return len(self.events)


class CallbackSink(Operator):
    """Invoke ``on_event_fn(event)`` per event — the paper's Subscribe().

    Optional ``on_punctuation_fn(timestamp)`` and ``on_flush_fn()`` hooks
    mirror the other two signals.
    """

    def __init__(self, on_event_fn, on_punctuation_fn=None, on_flush_fn=None):
        super().__init__()
        self.on_event_fn = on_event_fn
        self.on_punctuation_fn = on_punctuation_fn
        self.on_flush_fn = on_flush_fn

    def on_event(self, event):
        self.on_event_fn(event)

    def on_punctuation(self, punctuation):
        if self.on_punctuation_fn is not None:
            self.on_punctuation_fn(punctuation.timestamp)

    def on_flush(self):
        if self.on_flush_fn is not None:
            self.on_flush_fn()
