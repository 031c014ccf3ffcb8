"""Integration tests for the Impatience framework (repro.framework)."""

from __future__ import annotations

import pytest

from repro.core.errors import QueryBuildError
from repro.engine import DisorderedStreamable
from repro.framework import make_query
from repro.framework.audit import run_method
from repro.framework.queries import PAPER_QUERIES

LATENCIES = [500, 5_000, 50_000]
FREQ = 500


def build(dataset, query, latencies=LATENCIES, advanced=True):
    disordered = DisorderedStreamable.from_dataset(
        dataset, punctuation_frequency=FREQ
    ).tumbling_window(query.window_size)
    if advanced:
        return disordered.to_streamables(
            latencies, piq=query.piq, merge=query.merge
        )
    return disordered.to_streamables(latencies).apply(query.body)


class TestConstruction:
    def test_requires_latencies(self):
        disordered = DisorderedStreamable.from_elements([])
        with pytest.raises(QueryBuildError, match="at least one latency"):
            disordered.to_streamables([])

    def test_piq_without_merge_rejected(self):
        disordered = DisorderedStreamable.from_elements([])
        q = make_query("Q1")
        with pytest.raises(QueryBuildError, match="both piq and merge"):
            disordered.to_streamables([1, 2], piq=q.piq)

    def test_output_count_matches_latencies(self):
        disordered = DisorderedStreamable.from_elements([])
        streamables = disordered.to_streamables([1, 10, 100])
        assert len(streamables) == 3
        assert streamables.latencies == [1, 10, 100]
        assert len(list(iter(streamables))) == 3


class TestEngineSelector:
    """``Streamables.run(engine=...)`` mirrors ``QueryPlan.run``'s
    selector: framework runs always execute the row pipeline and say so;
    ``columnar`` is an explicit, loud error."""

    def test_run_records_row_engine_and_reason(self, cloudlog_small):
        query = make_query("Q1")
        result = build(cloudlog_small, query).run()
        assert result.engine == "row"
        assert "opaque operator DAG" in result.engine_reason

    def test_engine_row_is_accepted(self, cloudlog_small):
        query = make_query("Q1")
        result = build(cloudlog_small, query).run(engine="row")
        assert result.engine == "row"
        assert result.engine_reason == "engine='row' requested"

    def test_engine_columnar_raises(self, cloudlog_small):
        query = make_query("Q1")
        with pytest.raises(QueryBuildError, match="cannot be compiled"):
            build(cloudlog_small, query).run(engine="columnar")

    def test_rejects_unknown_engine(self, cloudlog_small):
        query = make_query("Q1")
        with pytest.raises(QueryBuildError, match="engine must be"):
            build(cloudlog_small, query).run(engine="fused")


class TestSemantics:
    @pytest.mark.parametrize("query", PAPER_QUERIES, ids=lambda q: q.name)
    def test_advanced_final_output_matches_ground_truth(
        self, query, cloudlog_small
    ):
        """The advanced framework's most-complete output must equal the
        single-sort full query at the same (max) latency."""
        advanced = build(cloudlog_small, query).run()
        truth = build(
            cloudlog_small, query, latencies=LATENCIES[-1:], advanced=False
        ).run()
        got = {
            (e.sync_time, e.key): e.payload
            for e in advanced.collectors[-1].events
        }
        want = {
            (e.sync_time, e.key): e.payload
            for e in truth.collectors[0].events
        }
        assert got == want

    @pytest.mark.parametrize("query", PAPER_QUERIES[:2], ids=lambda q: q.name)
    def test_basic_final_output_matches_ground_truth(
        self, query, cloudlog_small
    ):
        basic = build(cloudlog_small, query, advanced=False).run()
        truth = build(
            cloudlog_small, query, latencies=LATENCIES[-1:], advanced=False
        ).run()
        got = {
            (e.sync_time, e.key): e.payload
            for e in basic.collectors[-1].events
        }
        want = {
            (e.sync_time, e.key): e.payload
            for e in truth.collectors[0].events
        }
        assert got == want

    def test_passthrough_piq_merge_equals_basic(self, synthetic_small):
        """Section V-B: pass-through PIQ/merge reduces the advanced
        framework to the basic framework."""
        identity = lambda s: s  # noqa: E731 - the paper's pass-through
        disordered = DisorderedStreamable.from_dataset(
            synthetic_small, punctuation_frequency=FREQ
        )
        via_advanced = disordered.to_streamables(
            LATENCIES, piq=identity, merge=identity
        ).run()
        disordered2 = DisorderedStreamable.from_dataset(
            synthetic_small, punctuation_frequency=FREQ
        )
        via_basic = disordered2.to_streamables(LATENCIES).run()
        for a, b in zip(via_advanced.collectors, via_basic.collectors):
            assert a.sync_times == b.sync_times
            assert a.payloads == b.payloads

    def test_outputs_are_sorted_and_nested(self, cloudlog_small):
        """Each output is sync-ordered; later outputs contain at least as
        many raw events (basic framework)."""
        result = build(
            cloudlog_small, make_query("Q1"), advanced=False
        ).run()
        # basic: outputs carry query results; check via partition ledger
        sizes = result.summary()["outputs"]
        assert result.partition.routed[0] > 0
        for collector in result.collectors:
            assert collector.sync_times == sorted(collector.sync_times)
        assert sizes == sorted(sizes)

    def test_completeness_monotone_in_latency(self, androidlog_small):
        result = build(androidlog_small, make_query("Q1")).run()
        completeness = [
            result.completeness(i) for i in range(len(result.collectors))
        ]
        assert completeness == sorted(completeness)
        assert completeness[-1] <= 1.0


class TestMemory:
    def test_advanced_uses_less_memory_than_basic(self, cloudlog_small):
        """Figure 10(b)'s headline: embedding PIQ/merge shrinks the union
        buffers from raw events to per-window aggregates.  Latencies must
        sit inside the stream horizon (as in the paper, where 1 h << the
        log's span) for the union buffering to be the dominant term."""
        query = make_query("Q1", window_size=100)
        latencies = [200, 1_000, 4_000]
        advanced = build(cloudlog_small, query, latencies=latencies).run()
        basic = build(
            cloudlog_small, query, latencies=latencies, advanced=False
        ).run()
        assert advanced.memory.peak_events < basic.memory.peak_events / 4

    def test_memory_meter_sampled(self, cloudlog_small):
        result = build(cloudlog_small, make_query("Q1")).run()
        assert result.memory.samples > 0
        assert result.memory.peak_mb >= 0


class TestRunMethodAudit:
    def test_all_methods_run(self, cloudlog_small):
        query = make_query("Q1")
        for method in ("advanced", "basic", "min", "max"):
            result = run_method(
                method, cloudlog_small, query, LATENCIES,
                punctuation_frequency=FREQ,
            )
            assert result.method == method
            assert result.input_events == len(cloudlog_small)
            assert result.elapsed_seconds > 0
            assert result.throughput_meps > 0

    def test_min_method_uses_first_latency_only(self, cloudlog_small):
        result = run_method(
            "min", cloudlog_small, make_query("Q1"), LATENCIES,
            punctuation_frequency=FREQ,
        )
        assert result.latencies == [LATENCIES[0]]
        assert len(result.output_events) == 1

    def test_min_loses_events_max_does_not(self, cloudlog_small):
        """Table II's tradeoff, on the burst-y CloudLog simulation."""
        query = make_query("Q1")
        low = run_method(
            "min", cloudlog_small, query, [50, 50_000],
            punctuation_frequency=FREQ,
        )
        high = run_method(
            "max", cloudlog_small, query, [50, 50_000],
            punctuation_frequency=FREQ,
        )
        assert low.final_completeness < 1.0
        assert high.final_completeness > low.final_completeness

    def test_advanced_matches_max_completeness(self, cloudlog_small):
        query = make_query("Q1")
        lat = [50, 1_000, 50_000]
        adv = run_method(
            "advanced", cloudlog_small, query, lat, punctuation_frequency=FREQ
        )
        mx = run_method(
            "max", cloudlog_small, query, lat, punctuation_frequency=FREQ
        )
        assert adv.final_completeness == pytest.approx(
            mx.final_completeness, abs=1e-9
        )

    def test_unknown_method(self, cloudlog_small):
        with pytest.raises(ValueError, match="unknown method"):
            run_method("turbo", cloudlog_small, make_query("Q1"), LATENCIES)

    def test_table2_rows(self, cloudlog_small):
        from repro.framework.audit import table2_rows

        rows = table2_rows(
            cloudlog_small, make_query("Q1"), [50, 50_000],
            punctuation_frequency=FREQ,
        )
        by_method = {row["method"]: row for row in rows}
        assert set(by_method) == {"advanced", "basic", "min", "max"}
        assert by_method["min"]["completeness"] <= by_method["max"]["completeness"]
        assert by_method["advanced"]["completeness"] == pytest.approx(
            by_method["max"]["completeness"]
        )
