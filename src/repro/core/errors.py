"""Exception types raised by the repro library."""


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class LateEventError(ReproError):
    """An event arrived with a timestamp at or before an emitted punctuation.

    Raised only when the sorter/ingress is configured with
    :data:`repro.core.late.LatePolicy.RAISE`.
    """

    def __init__(self, event_time, punctuation_time):
        super().__init__(
            f"event time {event_time!r} is <= last punctuation "
            f"{punctuation_time!r}"
        )
        self.event_time = event_time
        self.punctuation_time = punctuation_time

    def __reduce__(self):
        # Default Exception pickling replays args=(message,) against the
        # two-parameter __init__; worker processes forward these across
        # the exchange, so round-trip with the constructor arguments.
        return (type(self), (self.event_time, self.punctuation_time))


class PunctuationOrderError(ReproError):
    """A punctuation regressed: its timestamp is below an earlier one."""

    def __init__(self, timestamp, previous):
        super().__init__(
            f"punctuation {timestamp!r} regresses below previous "
            f"punctuation {previous!r}"
        )
        self.timestamp = timestamp
        self.previous = previous

    def __reduce__(self):
        return (type(self), (self.timestamp, self.previous))


class QueryBuildError(ReproError):
    """A streaming query was composed incorrectly.

    Examples: applying an order-sensitive operator to a
    ``DisorderedStreamable``, subscribing twice to a single-use source, or
    passing non-increasing reorder latencies to the Impatience framework.
    """


class CheckpointError(ReproError, ValueError):
    """A sorter checkpoint could not be taken or restored.

    Raised for unsupported sorter configurations (keyed sorters are not
    checkpointable), unknown checkpoint formats, and corrupt state
    (non-ascending runs, tails-invariant violations).  Subclasses
    :class:`ValueError` so pre-existing callers that caught the old bare
    ``ValueError`` keep working.
    """


class DatasetFormatError(ReproError, ValueError):
    """A dataset file (CSV) is malformed.

    Carries the offending path and, for per-row failures, the 1-based row
    number (header = row 1), so shell pipelines and operators can locate
    the bad input.  Subclasses :class:`ValueError` for backward
    compatibility with callers catching the old bare errors.
    """

    def __init__(self, path, message, row=None):
        location = f"{path}:{row}" if row is not None else str(path)
        super().__init__(f"{location}: {message}")
        self.path = str(path)
        self.row = row


class MalformedEventError(ReproError):
    """A stream element is neither a valid event nor a punctuation.

    Raised by the supervised runtime's ingress guard when quarantine is
    disabled; with a quarantine ledger configured the element is recorded
    and skipped instead.
    """

    def __init__(self, element):
        super().__init__(f"malformed stream element: {element!r}")
        self.element = element


class ChaosSpecError(ReproError, ValueError):
    """A chaos-injection spec string could not be parsed.

    See ``docs/resilience.md`` for the spec grammar.
    """


class ReplayDivergenceError(ReproError):
    """Recovery replay re-emitted output that differs from what was
    already delivered.

    Supervised recovery assumes the pipeline is deterministic: replaying
    the journaled ingress prefix must re-produce the already-delivered
    outputs byte-for-byte so they can be deduplicated.  This error means
    an operator in the pipeline is non-deterministic (or mutated shared
    state) and exactly-once delivery cannot be guaranteed.
    """


class SupervisionExhaustedError(ReproError):
    """The supervised runtime gave up: retry/restart budget exhausted.

    The original failure is attached as ``__cause__``.
    """


class SpillCorruptionError(ReproError, OSError):
    """A spilled run file on disk is corrupt, truncated, or unreadable.

    Carries the offending file path and the byte offset of the bad
    block so operators (and humans) can locate the damage.  Like
    :class:`WorkerCrashError` this failure is environmental rather than
    semantic — transient read corruption is restartable under the
    sorter supervisor (the file on disk may be fine even when a read
    was mangled in flight), while persistent corruption exhausts the
    restart budget and surfaces as
    :class:`SupervisionExhaustedError` with this error as the cause.
    Never a silent wrong answer: every spilled block is CRC-checked on
    the way back in.
    """

    def __init__(self, path, offset, detail=""):
        message = f"spill file {path} corrupt at byte offset {offset}"
        if detail:
            message = f"{message}: {detail}"
        super().__init__(message)
        self.path = str(path)
        self.offset = int(offset)
        self.detail = detail

    def __reduce__(self):
        return (type(self), (self.path, self.offset, self.detail))


class WorkerCrashError(ReproError):
    """A parallel shard worker process died mid-stream.

    Carries the shard index, the worker's last *acknowledged* ingress
    journal offset (every journal element up to it was processed by
    that worker; ``-1`` before its first acknowledged round), and the
    process exit code (negative for a signal).  Unlike the semantic
    :class:`ReproError` family this failure is environmental, but
    :func:`repro.parallel.run_parallel` does not restart the run: it
    terminates the surviving workers and raises.
    """

    def __init__(self, shard, journal_offset, exitcode=None, detail=""):
        message = (
            f"worker for shard {shard} died"
            f"{f' (exit code {exitcode})' if exitcode is not None else ''}"
            f" with journal acknowledged through offset {journal_offset}"
        )
        if detail:
            message = f"{message}: {detail}"
        super().__init__(message)
        self.shard = shard
        self.journal_offset = journal_offset
        self.exitcode = exitcode
        self.detail = detail

    def __reduce__(self):
        return (
            type(self),
            (self.shard, self.journal_offset, self.exitcode, self.detail),
        )


class ServeProtocolError(ReproError, ValueError):
    """A serve-layer frame, command, or standing-query spec is invalid.

    Raised by the ingress server's protocol parser and by
    :func:`repro.serve.protocol.parse_query_spec`.  Connection handlers
    translate it into an ``ERR`` reply (or a quarantine record for data
    frames) rather than letting it kill the service.
    """
