"""String-keyed workload variants (service names, log levels).

The base CloudLog/AndroidLog simulators carry synthetic int keys; real
log analytics groups and filters on *names* — service identifiers like
``prod.cluster-03.svc.zone-1.host-00042`` with long shared prefixes, and
categorical payload strings like log levels.  These variants re-key the
same arrival simulations with such names, delivering them the way the
string stack expects:

* ``dataset.keys`` holds **int64 dictionary codes** of the per-event
  service name under an order-preserving
  :class:`~repro.core.strings.StringDictionary` (exposed as
  ``dataset.key_dictionary``), so every int-keyed engine — row,
  columnar, compiled, parallel, external — sorts and groups the names
  correctly without knowing strings exist;
* ``dataset.string_payloads`` holds the raw per-event strings as
  :class:`~repro.core.strings.StringColumn` payload columns (service
  name, then log level), which
  :meth:`~repro.engine.batch.EventBatch.from_dataset` attaches so the
  columnar sorter and its spill blocks carry the actual bytes
  end-to-end (the parallel shard workers refuse them).

The service-name shape is deliberately prefix-heavy: a handful of
cluster/zone prefixes fan out into hundreds of hosts, so byte-wise key
comparisons share long prefixes — the regime where sorting by
order-preserving dictionary codes (:mod:`repro.core.strings`) beats
walking the bytes.
"""

from __future__ import annotations

import numpy as np

from repro.core.strings import StringColumn, StringDictionary
from repro.workloads.androidlog import generate_androidlog
from repro.workloads.base import Dataset
from repro.workloads.cloudlog import generate_cloudlog

__all__ = [
    "LOG_LEVELS",
    "cloudlog_service_names",
    "androidlog_package_names",
    "generate_cloudlog_strings",
    "generate_androidlog_strings",
]

LOG_LEVELS = (b"DEBUG", b"ERROR", b"FATAL", b"INFO", b"WARN")


def cloudlog_service_names(n_services):
    """Deterministic service-name universe with long shared prefixes."""
    return [
        (
            f"prod.cluster-{i % 7:02d}.svc.zone-{i % 3}."
            f"host-{i:05d}"
        ).encode()
        for i in range(n_services)
    ]


def androidlog_package_names(n_apps):
    """Deterministic Android package-name universe."""
    return [
        f"com.vendor{i % 11:02d}.app{i % 29:02d}.build-{i:05d}".encode()
        for i in range(n_apps)
    ]


def _string_variant(dataset, names, suffix):
    """Re-key ``dataset`` onto ``names`` and attach string payloads."""
    dictionary = StringDictionary(names)
    per_event = [names[int(k) % len(names)] for k in dataset.keys]
    codes = dictionary.encode(per_event)
    rng = np.random.default_rng(
        int(dataset.params.get("seed", 0)) + 0x5757
    )
    levels = [
        LOG_LEVELS[i] for i in rng.integers(0, len(LOG_LEVELS),
                                            size=len(dataset))
    ]
    # The row views hand their columns back to the constructor, so the
    # variant shares timestamps and payloads with ``dataset``.
    out = Dataset(
        name=f"{dataset.name}-{suffix}",
        timestamps=dataset.timestamps,
        payloads=dataset.payloads,
        keys=codes,
        params={**dataset.params, "string_keys": True},
    )
    out.key_dictionary = dictionary
    out.string_payloads = [
        StringColumn.from_values(per_event),
        StringColumn.from_values(levels),
    ]
    return out


def generate_cloudlog_strings(n, n_services=387, seed=0, **kwargs):
    """CloudLog with service-name keys and log-level string payloads.

    Same arrival process as :func:`~repro.workloads.generate_cloudlog`
    (the key column is re-used to pick each event's service), plus the
    string attachments described in the module docstring.
    """
    base = generate_cloudlog(
        n, n_servers=n_services, seed=seed, n_keys=n_services, **kwargs
    )
    return _string_variant(
        base, cloudlog_service_names(n_services), "strings"
    )


def generate_androidlog_strings(n, n_apps=227, seed=0, **kwargs):
    """AndroidLog with package-name keys and log-level string payloads."""
    base = generate_androidlog(
        n, n_phones=n_apps, seed=seed, n_keys=n_apps, **kwargs
    )
    return _string_variant(
        base, androidlog_package_names(n_apps), "strings"
    )
