"""Tests for the query planner and sorter checkpointing."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ImpatienceSorter
from repro.core.errors import CheckpointError, QueryBuildError
from repro.engine import DisorderedStreamable, Event
from repro.engine.checkpoint import checkpoint_sorter, restore_sorter
from repro.engine.planner import QueryPlan


def disordered(times):
    return DisorderedStreamable.from_elements([Event(t) for t in times])


class TestQueryPlan:
    def test_hoists_insensitive_block(self):
        plan = (
            QueryPlan()
            .sort()
            .where(lambda e: True)
            .tumbling_window(100)
            .count()
        )
        assert plan.describe() == ["sort", "where", "tumbling_window", "count"]
        assert plan.optimized().describe() == [
            "where", "tumbling_window", "sort", "count",
        ]

    def test_sensitive_op_blocks_later_hoisting(self):
        plan = (
            QueryPlan()
            .sort()
            .tumbling_window(10)
            .count()
            .select(lambda p: p)  # operates on aggregates; must not move
        )
        assert plan.optimized().describe() == [
            "tumbling_window", "sort", "count", "select",
        ]

    def test_pre_sort_steps_stay_in_front(self):
        plan = (
            QueryPlan()
            .where(lambda e: True)
            .sort()
            .select_columns([0])
            .count()
        )
        assert plan.optimized().describe() == [
            "where", "select_columns", "sort", "count",
        ]

    def test_duplicate_sort_rejected(self):
        with pytest.raises(QueryBuildError, match="already contains"):
            QueryPlan().sort().sort()

    def test_missing_sort_rejected(self):
        with pytest.raises(QueryBuildError, match="no sort"):
            QueryPlan().where(lambda e: True).optimized()

    def test_sensitive_before_sort_rejected(self):
        plan = QueryPlan().count().sort()
        with pytest.raises(QueryBuildError, match="order-sensitive"):
            plan.validate()

    def test_unknown_method(self):
        with pytest.raises(AttributeError):
            QueryPlan().frobnicate

    def test_explain_marks_sort(self):
        text = QueryPlan().where(lambda e: True).sort().count().explain()
        assert ">> sort" in text
        assert "   where" in text or "  where" in text

    def test_bind_executes(self):
        plan = QueryPlan().sort().tumbling_window(10).count()
        times = [13, 2, 27, 9, 5, 22]
        result = plan.bind(disordered(times)).collect()
        assert sum(result.payloads) == len(times)

    @given(st.lists(st.integers(0, 300), min_size=1, max_size=150))
    @settings(max_examples=50, deadline=None)
    def test_optimized_plan_same_results(self, times):
        """The rewrite is semantics-preserving for any input stream."""
        plan = (
            QueryPlan()
            .sort()
            .where(lambda e: e.sync_time % 2 == 0)
            .tumbling_window(20)
            .count()
        )
        naive = plan.bind(disordered(times)).collect()
        fast = plan.optimized().bind(disordered(times)).collect()
        assert [(e.sync_time, e.payload) for e in naive.events] == [
            (e.sync_time, e.payload) for e in fast.events
        ]

    def test_plans_are_immutable_values(self):
        base = QueryPlan().sort()
        extended = base.count()
        assert base.describe() == ["sort"]
        assert extended.describe() == ["sort", "count"]


class TestCheckpoint:
    def _loaded(self, values, punct=None):
        sorter = ImpatienceSorter()
        sorter.extend(values)
        if punct is not None:
            sorter.on_punctuation(punct)
        return sorter

    def test_roundtrip_preserves_behaviour(self):
        original = self._loaded([5, 1, 9, 3], punct=2)
        restored = restore_sorter(checkpoint_sorter(original))
        assert restored.buffered == original.buffered
        assert restored.run_count == original.run_count
        assert restored.watermark == original.watermark
        assert restored.flush() == original.flush()

    def test_checkpoint_is_json_serializable(self):
        state = checkpoint_sorter(self._loaded([3, 1, 2]))
        assert restore_sorter(json.loads(json.dumps(state))).flush() == \
            [1, 2, 3]

    def test_restored_rejects_late_like_original(self):
        original = self._loaded([5, 10], punct=7)
        restored = restore_sorter(checkpoint_sorter(original))
        assert restored.insert(6) is False
        assert restored.late.dropped == 1

    def test_keyed_sorter_not_checkpointable(self):
        sorter = ImpatienceSorter(key=lambda e: e[0])
        with pytest.raises(CheckpointError, match="keyless"):
            checkpoint_sorter(sorter)

    def test_bad_format_rejected(self):
        with pytest.raises(CheckpointError, match="format"):
            restore_sorter({"format": 99})

    @pytest.mark.parametrize("doc, field", [
        ({"format": 2}, "huffman_merge"),
        ({"format": 4}, "late_policy"),
    ])
    def test_missing_field_rejected(self, doc, field):
        with pytest.raises(CheckpointError, match=field):
            restore_sorter(doc)

    def _states(self):
        """A format-2 and a format-4 checkpoint, each holding rows."""
        import numpy as np

        from repro.core.columnar import ColumnarImpatienceSorter

        columnar = ColumnarImpatienceSorter(columns=1)
        columnar.insert_batch(np.array([1, 2, 3]), (np.array([1, 2, 3]),))
        columnar.on_punctuation(0)
        return [
            checkpoint_sorter(self._loaded([1, 2], punct=0)),
            checkpoint_sorter(columnar),
        ]

    @pytest.mark.parametrize("field, value", [
        ("merge", "nope"),
        # Strategies that no longer exist fail the same way.
        ("merge", "ovc"),
        ("late_policy", "x"),
        ("runs", [[3, "a"]]),
        ("runs", [[3], ["a"]]),
        ("watermark", "x"),
        ("watermark", True),
        ("pending", 5),
        ("pending", ["a"]),
        ("ts", [1.5, 2.5, 3.5]),
        ("ts", ["a"]),
        ("cols", []),
        ("cols", [[1, 2]]),
        ("columns", -1),
        ("scols", [b"x"]),
    ])
    def test_malformed_field_rejected(self, field, value):
        """Every checkpoint format that carries ``field`` rejects the
        malformed value with a typed error naming the field."""
        states = [state for state in self._states() if field in state]
        assert states
        for state in states:
            state[field] = value
            with pytest.raises(CheckpointError, match=field):
                restore_sorter(state)

    def test_columnar_watermark_must_be_integer(self):
        state = self._states()[1]
        state["watermark"] = 2.5
        with pytest.raises(CheckpointError, match="watermark"):
            restore_sorter(state)

    def test_corrupt_run_rejected(self):
        # punct=0 partitions the staged batch into a run without
        # emitting anything, so the checkpoint carries a real run.
        state = checkpoint_sorter(self._loaded([1, 2], punct=0))
        state["runs"][0] = [3, 1]
        with pytest.raises(CheckpointError, match="not ascending"):
            restore_sorter(state)

    def test_corrupt_empty_run_rejected(self):
        state = checkpoint_sorter(self._loaded([1, 2], punct=0))
        state["runs"][0] = []
        with pytest.raises(CheckpointError, match="empty run"):
            restore_sorter(state)

    def test_invariant_violation_rejected(self):
        state = checkpoint_sorter(self._loaded([5, 1]))
        state["runs"] = [[1, 2], [3, 4]]  # tails ascending: invalid
        with pytest.raises(CheckpointError, match="tails invariant"):
            restore_sorter(state)

    def test_checkpoint_errors_are_still_valueerrors(self):
        # Pre-existing callers catch ValueError; the typed error must
        # remain compatible.
        with pytest.raises(ValueError):
            restore_sorter({"format": 99})

    def test_checkpoint_does_not_mutate_live_sorter(self):
        """Taking a checkpoint is side-effect-free: the staged ingress
        batch stays staged and run statistics are untouched."""
        sorter = self._loaded([9, 4, 7])  # no punctuation: all pending
        runs_before = len(sorter._pool.runs)
        pending_before = list(sorter._pending_keys)
        state = checkpoint_sorter(sorter)
        assert sorter._pending_keys == pending_before
        assert len(sorter._pool.runs) == runs_before
        assert state["pending"] == pending_before
        # And the restored twin still behaves identically.
        assert restore_sorter(state).flush() == sorter.flush()

    def test_restore_refuses_format1(self):
        # No writer produces format 1 (no "pending" field) any more.
        state = checkpoint_sorter(self._loaded([2, 1, 3], punct=0))
        del state["pending"]
        state["format"] = 1
        with pytest.raises(CheckpointError, match="format 1"):
            restore_sorter(state)

    @pytest.mark.parametrize("field", ["pending", "merge"])
    def test_restore_refuses_format2_without_field(self, field):
        # Every format-2 writer emits both fields; a document lacking
        # one is refused, not completed with a guessed default.
        state = checkpoint_sorter(self._loaded([2, 1]))
        del state[field]
        with pytest.raises(CheckpointError, match=f"'{field}' field"):
            restore_sorter(state)

    @pytest.mark.parametrize("merge", ["pairwise", "huffman", "kway"])
    def test_checkpoint_every_punctuation_boundary(self, merge, rng):
        """Restart the sorter (checkpoint → JSON → restore) at *every*
        punctuation boundary of a disordered stream; the emission
        sequence must be byte-identical to an uninterrupted run."""
        values = list(range(400))
        for _ in range(80):
            i = rng.randrange(len(values))
            j = max(0, i - rng.randint(1, 30))
            values[i], values[j] = values[j], values[i]

        def batches(restart):
            sorter = ImpatienceSorter(merge=merge)
            out, high = [], None
            for count, value in enumerate(values, start=1):
                sorter.insert(value)
                high = value if high is None else max(high, value)
                if count % 50 == 0:
                    out.append(sorter.on_punctuation(high - 20))
                    if restart:
                        state = json.loads(
                            json.dumps(checkpoint_sorter(sorter))
                        )
                        sorter = restore_sorter(state)
            out.append(sorter.flush())
            return out, sorter

        plain_out, plain = batches(restart=False)
        restarted_out, restarted = batches(restart=True)
        assert json.dumps(plain_out) == json.dumps(restarted_out)
        assert sum(map(len, plain_out)) == sum(map(len, restarted_out))
        assert plain.watermark == restarted.watermark
        assert plain.buffered == restarted.buffered == 0
        # The restored sorter must keep the configured merge strategy.
        assert restarted.merge == merge

    def test_checkpoint_roundtrips_merge_strategy(self):
        sorter = ImpatienceSorter(merge="kway")
        sorter.extend([3, 1, 2])
        assert restore_sorter(checkpoint_sorter(sorter)).merge == "kway"

    @pytest.mark.parametrize("shard", [None, {"index": 1, "count": 2}])
    def test_columnar_format4_roundtrip(self, shard):
        # Format-4 docs that earlier writers tagged with a shard restore.
        import numpy as np

        from repro.core.columnar import ColumnarImpatienceSorter

        sorter = ColumnarImpatienceSorter(columns=1)
        sorter.insert_batch(np.array([5, 1, 9, 3]), (np.array([5, 1, 9, 3]),))
        sorter.on_punctuation(2)
        state = checkpoint_sorter(sorter)
        assert state["format"] == 4 and "shard" not in state
        if shard is not None:
            state["shard"] = shard
        restored = restore_sorter(state)
        assert restored.watermark == 2
        ts, (col,) = restored.flush()
        assert ts.tolist() == col.tolist() == [3, 5, 9]

    @pytest.mark.parametrize("budget", [None, 64])
    def test_columnar_checkpoint_leaves_live_sorter_intact(self, budget):
        """Capture has no side effect at any budget: a sorter fed on
        after its checkpoint cuts exactly what a never-checkpointed twin
        cuts, and so does the copy restored from the checkpoint."""
        import numpy as np

        from repro.core.columnar import ColumnarImpatienceSorter

        rng = np.random.default_rng(7)
        n = 2000
        ts = np.arange(n, dtype=np.int64) + rng.integers(0, 60, size=n)
        serial = np.arange(n, dtype=np.int64)

        def make():
            return ColumnarImpatienceSorter(columns=1, memory_budget=budget)

        live, twin = make(), make()
        sorters = [live, twin]
        try:
            for start in range(0, n, 100):
                if start == n // 2:
                    if budget is not None:
                        assert live.run_count > 0  # spilled rows too
                    state = checkpoint_sorter(live)
                    sorters.append(restore_sorter(state, budget))
                for sorter in sorters:
                    sorter.insert_batch(
                        ts[start:start + 100], (serial[start:start + 100],)
                    )
                punct = int(ts[:start + 100].max()) - 60
                want_ts, (want_col,) = twin.on_punctuation(punct)
                for sorter in (live, *sorters[2:]):
                    got_ts, (got_col,) = sorter.on_punctuation(punct)
                    assert got_ts.tolist() == want_ts.tolist()
                    assert got_col.tolist() == want_col.tolist()
            want_ts, (want_col,) = twin.flush()
            for sorter in (live, sorters[2]):
                got_ts, (got_col,) = sorter.flush()
                assert got_ts.tolist() == want_ts.tolist()
                assert got_col.tolist() == want_col.tolist()
            assert live.spill_doc() == twin.spill_doc()
            assert live.stats.as_dict() == twin.stats.as_dict()
        finally:
            for sorter in sorters:
                sorter.close()

    @given(
        st.lists(st.integers(0, 500), max_size=200),
        st.lists(st.integers(0, 500), max_size=200),
    )
    @settings(max_examples=60, deadline=None)
    def test_resume_equivalence(self, before, after):
        """Checkpoint mid-stream, restore, feed the rest: emissions match
        an uninterrupted sorter exactly."""
        uninterrupted = ImpatienceSorter()
        uninterrupted.extend(before)
        resumed = restore_sorter(
            checkpoint_sorter(self._loaded(before))
        )
        for sorter in (uninterrupted, resumed):
            sorter.extend(after)
        high = max(before + after, default=0)
        assert uninterrupted.on_punctuation(high // 2) == \
            resumed.on_punctuation(high // 2)
        assert uninterrupted.flush() == resumed.flush()
