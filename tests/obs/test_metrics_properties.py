"""Property-based tests for the metrics registry and snapshot algebra."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import (
    DEFAULT_BYTE_BUCKETS,
    DEFAULT_MS_BUCKETS,
    Metrics,
    MetricError,
)

pytestmark = pytest.mark.trace

# One registry mutation: (kind, metric name, value).
ops = st.lists(
    st.tuples(
        st.sampled_from(["count", "observe"]),
        st.sampled_from(["vfs.open", "aufs.copy_up", "cow.query", "sql.ms"]),
        st.one_of(
            st.integers(min_value=0, max_value=1000),
            st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
        ),
    ),
    max_size=60,
)


def apply_ops(metrics, batch):
    for kind, name, value in batch:
        if kind == "count":
            metrics.count("c." + name, int(value))
        else:
            metrics.observe("h." + name, value)


class TestCounters:
    @given(st.lists(st.integers(min_value=0, max_value=10_000), max_size=50))
    def test_counter_is_sum_of_increments(self, increments):
        metrics = Metrics()
        for n in increments:
            metrics.count("vfs.open", n)
        assert metrics.counter("vfs.open").value == sum(increments)

    @given(st.lists(st.integers(min_value=0, max_value=100), min_size=1, max_size=50))
    def test_counter_never_decreases(self, increments):
        counter = Metrics().counter("aufs.copy_up")
        previous = counter.value
        for n in increments:
            counter.inc(n)
            assert counter.value >= previous
            previous = counter.value

    def test_negative_increment_rejected(self):
        with pytest.raises(MetricError):
            Metrics().count("vfs.open", -1)


class TestHistograms:
    @given(st.lists(st.floats(min_value=0.0, max_value=1e7, allow_nan=False), max_size=200))
    def test_bucket_counts_sum_to_total(self, values):
        metrics = Metrics()
        for v in values:
            metrics.observe("lat", v, DEFAULT_MS_BUCKETS)
        hist = metrics.histogram("lat", DEFAULT_MS_BUCKETS)
        assert sum(hist.counts) == hist.count == len(values)
        assert hist.total == pytest.approx(sum(values))

    @given(st.floats(min_value=0.0, max_value=2e6, allow_nan=False))
    def test_observation_lands_in_the_right_bucket(self, value):
        metrics = Metrics()
        metrics.observe("size", value, DEFAULT_BYTE_BUCKETS)
        hist = metrics.histogram("size", DEFAULT_BYTE_BUCKETS)
        (index,) = [i for i, c in enumerate(hist.counts) if c]
        edges = hist.boundaries
        lower = edges[index - 1] if index > 0 else float("-inf")
        upper = edges[index] if index < len(edges) else float("inf")
        assert lower < value <= upper or (value == 0 and index == 0)

    def test_boundary_mismatch_rejected(self):
        metrics = Metrics()
        metrics.histogram("h", (1.0, 2.0))
        with pytest.raises(MetricError):
            metrics.histogram("h", (1.0, 3.0))

    def test_unsorted_boundaries_rejected(self):
        with pytest.raises(MetricError):
            Metrics().histogram("h", (2.0, 1.0))


class TestSnapshotAlgebra:
    @settings(max_examples=50)
    @given(ops, ops, ops)
    def test_diff_is_additive_along_a_timeline(self, batch1, batch2, batch3):
        """(b - a) + (c - b) == c - a for snapshots a, b, c taken
        at successive points of one registry's life."""
        metrics = Metrics()
        apply_ops(metrics, batch1)
        a = metrics.snapshot()
        apply_ops(metrics, batch2)
        b = metrics.snapshot()
        apply_ops(metrics, batch3)
        c = metrics.snapshot()
        chained = (b - a) + (c - b)
        direct = c - a
        assert chained.counters == direct.counters
        assert chained.histograms.keys() == direct.histograms.keys()
        for name in direct.histograms:
            assert chained.histograms[name].counts == direct.histograms[name].counts
            assert chained.histograms[name].count == direct.histograms[name].count
            assert chained.histograms[name].total == pytest.approx(
                direct.histograms[name].total
            )

    @settings(max_examples=50)
    @given(ops)
    def test_diff_of_a_snapshot_with_itself_is_zero(self, batch):
        metrics = Metrics()
        apply_ops(metrics, batch)
        snap = metrics.snapshot()
        zero = snap - snap
        assert zero.nonzero().counters == {}
        assert zero.nonzero().histograms == {}

    @settings(max_examples=50)
    @given(ops, ops)
    def test_add_sub_round_trip(self, batch1, batch2):
        metrics = Metrics()
        apply_ops(metrics, batch1)
        a = metrics.snapshot()
        apply_ops(metrics, batch2)
        b = metrics.snapshot()
        restored = a + (b - a)
        assert restored.counters == b.counters
        assert {k: h.counts for k, h in restored.histograms.items()} == {
            k: h.counts for k, h in b.histograms.items()
        }

    @settings(max_examples=50)
    @given(ops)
    def test_counters_in_diff_are_never_negative_over_time(self, batch):
        """Monotone counters mean a later-minus-earlier diff is >= 0."""
        metrics = Metrics()
        a = metrics.snapshot()
        apply_ops(metrics, batch)
        b = metrics.snapshot()
        assert all(v >= 0 for v in (b - a).counters.values())

    def test_diff_handles_metrics_created_between_snapshots(self):
        metrics = Metrics()
        a = metrics.snapshot()
        metrics.count("vfs.open", 3)
        metrics.observe("lat", 0.5)
        b = metrics.snapshot()
        delta = b - a
        assert delta.counter("vfs.open") == 3
        assert delta.histograms["lat"].count == 1


class TestQuantile:
    """HistogramSnapshot.quantile: interpolation plus the documented edge
    cases (empty snapshot, single bucket, +Inf overflow bucket)."""

    def snap(self, boundaries, values):
        metrics = Metrics()
        for v in values:
            metrics.observe("q", v, boundaries)
        return metrics.snapshot().histograms["q"]

    def test_empty_snapshot_returns_zero(self):
        metrics = Metrics()
        metrics.histogram("q", (1.0, 2.0))
        hist = metrics.snapshot().histograms["q"]
        assert hist.quantile(0.0) == 0.0
        assert hist.quantile(0.5) == 0.0
        assert hist.quantile(1.0) == 0.0

    def test_diffed_to_empty_snapshot_returns_zero(self):
        hist = self.snap((1.0, 2.0), [0.5, 1.5])
        assert (hist - hist).quantile(0.95) == 0.0

    def test_single_bucket_interpolates_from_zero(self):
        hist = self.snap((10.0,), [3.0, 4.0])  # both land in (0, 10]
        assert hist.quantile(0.5) == pytest.approx(5.0)
        assert hist.quantile(1.0) == pytest.approx(10.0)
        assert hist.quantile(0.0) == pytest.approx(0.0)

    def test_overflow_bucket_clamps_to_last_finite_edge(self):
        hist = self.snap((1.0, 5.0), [100.0, 200.0])  # all in +Inf bucket
        assert hist.quantile(0.5) == 5.0
        assert hist.quantile(0.99) == 5.0

    def test_interpolation_within_a_uniform_bucket(self):
        # 4 observations in (1, 2]: p50 -> halfway through that bucket.
        hist = self.snap((1.0, 2.0), [1.1, 1.2, 1.8, 1.9])
        assert hist.quantile(0.5) == pytest.approx(1.5)
        assert hist.quantile(0.25) == pytest.approx(1.25)

    def test_quantile_spans_multiple_buckets(self):
        hist = self.snap((1.0, 2.0, 4.0), [0.5, 1.5, 3.0, 3.5])
        assert hist.quantile(0.25) == pytest.approx(1.0)
        assert hist.quantile(1.0) == pytest.approx(4.0)
        assert hist.quantile(0.5) == pytest.approx(2.0)

    def test_out_of_range_q_rejected(self):
        hist = self.snap((1.0,), [0.5])
        for bad in (-0.1, 1.1):
            with pytest.raises(MetricError):
                hist.quantile(bad)

    @settings(max_examples=50)
    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=2000.0, allow_nan=False),
            min_size=1,
            max_size=80,
        )
    )
    def test_quantile_is_monotone_and_bounded(self, values):
        hist = self.snap(DEFAULT_MS_BUCKETS, values)
        qs = [0.0, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0]
        estimates = [hist.quantile(q) for q in qs]
        assert estimates == sorted(estimates)
        assert all(0.0 <= e <= DEFAULT_MS_BUCKETS[-1] for e in estimates)

    @settings(max_examples=50)
    @given(
        st.lists(
            st.floats(min_value=0.001, max_value=900.0, allow_nan=False),
            min_size=1,
            max_size=80,
        ),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_quantile_brackets_the_true_bucket(self, values, q):
        """The estimate never leaves the bucket the true quantile is in:
        it is bounded by the bucket edges around the nearest-rank value."""
        import bisect

        hist = self.snap(DEFAULT_MS_BUCKETS, values)
        ordered = sorted(values)
        rank = min(len(ordered) - 1, max(0, int(q * len(ordered)) - (q == 1.0)))
        true_value = ordered[rank] if q > 0 else ordered[0]
        index = bisect.bisect_left(DEFAULT_MS_BUCKETS, true_value)
        upper = DEFAULT_MS_BUCKETS[min(index, len(DEFAULT_MS_BUCKETS) - 1)]
        estimate = hist.quantile(q)
        assert estimate <= upper + 1e-9
