"""LatencySketch: accuracy vs exact percentiles, exact merges, contracts."""

import math
import pickle

import numpy as np
import pytest

from repro.serve import LatencySketch, latency_stats
from repro.serve import sketch as sketch_module


def lognormal_samples(n, seed=0):
    rng = np.random.default_rng(seed)
    # latency-shaped: median ~1 ms, heavy right tail
    return np.exp(rng.normal(math.log(1e-3), 1.0, size=n))


class TestAccuracy:
    def test_within_rel_err_of_exact_on_1e5_samples(self):
        """The satellite acceptance: 10^5+ samples, every percentile <1%."""
        samples = lognormal_samples(120_000)
        sketch = LatencySketch()
        sketch.add_many(samples)
        for q in (1, 5, 25, 50, 75, 90, 95, 99, 99.9):
            exact = float(np.percentile(samples, q))
            approx = sketch.percentile(q)
            assert abs(approx - exact) / exact < 0.01, f"p{q}"

    def test_exact_count_sum_min_max_mean(self):
        samples = lognormal_samples(5000, seed=3)
        sketch = LatencySketch()
        sketch.add_many(samples)
        assert sketch.count == 5000
        assert sketch.sum_s == pytest.approx(float(samples.sum()), rel=1e-12)
        assert sketch.min_s == float(samples.min())
        assert sketch.max_s == float(samples.max())
        assert sketch.mean_s == pytest.approx(float(samples.mean()), rel=1e-12)

    def test_scalar_and_vector_inserts_agree(self):
        samples = lognormal_samples(300, seed=5)
        one = LatencySketch()
        many = LatencySketch()
        for value in samples:
            one.add(value)
        many.add_many(samples)
        assert np.array_equal(one._counts, many._counts)
        assert one.count == many.count
        assert one.sum_s == pytest.approx(many.sum_s, rel=1e-12)

    def test_extreme_quantiles_are_exact(self):
        sketch = LatencySketch()
        sketch.add_many([0.002, 0.005, 0.009])
        assert sketch.percentile(0) == 0.002
        assert sketch.percentile(100) == 0.009

    def test_single_sample_every_percentile_exact(self):
        sketch = LatencySketch()
        sketch.add(0.0042)
        for q in (0, 10, 50, 90, 100):
            assert sketch.percentile(q) == pytest.approx(0.0042, rel=1e-12)

    def test_out_of_range_samples_clamp_instead_of_failing(self):
        sketch = LatencySketch(lo_s=1e-3, hi_s=1.0)
        sketch.add_many([1e-9, 0.5, 100.0])
        assert sketch.count == 3
        assert sketch.min_s == 1e-9
        assert sketch.max_s == 100.0
        # percentiles stay bracketed by the exact extremes
        assert sketch.percentile(0) == 1e-9
        assert sketch.percentile(100) == 100.0

    def test_nonfinite_rejected(self):
        sketch = LatencySketch()
        with pytest.raises(ValueError, match="finite"):
            sketch.add(float("nan"))
        with pytest.raises(ValueError, match="finite"):
            sketch.add_many([1e-3, float("inf")])


class TestMerge:
    def test_merge_equals_single_sketch_exactly(self):
        samples = lognormal_samples(10_000, seed=1)
        whole = LatencySketch()
        whole.add_many(samples)
        left = LatencySketch()
        right = LatencySketch()
        left.add_many(samples[:3000])
        right.add_many(samples[3000:])
        merged = left.merged(right)
        assert np.array_equal(merged._counts, whole._counts)
        assert merged.count == whole.count
        assert merged.min_s == whole.min_s
        assert merged.max_s == whole.max_s
        for q in (50, 90, 99):
            assert merged.percentile(q) == whole.percentile(q)

    def test_merge_is_associative_and_commutative(self):
        """The satellite acceptance: any merge tree, identical statistics."""
        samples = lognormal_samples(9000, seed=2)
        parts = [LatencySketch() for _ in range(3)]
        for part, chunk in zip(parts, np.array_split(samples, 3)):
            part.add_many(chunk)
        a, b, c = parts
        left_tree = a.merged(b).merged(c)
        right_tree = a.merged(b.merged(c))
        reversed_order = c.merged(b).merged(a)
        for other in (right_tree, reversed_order):
            assert np.array_equal(left_tree._counts, other._counts)
            assert left_tree.count == other.count
            assert left_tree.sum_s == pytest.approx(other.sum_s, rel=1e-12)
            for q in (50, 95, 99):
                assert left_tree.percentile(q) == other.percentile(q)

    def test_incompatible_geometry_rejected(self):
        with pytest.raises(ValueError, match="geometry"):
            LatencySketch().update(LatencySketch(rel_err=0.01))

    def test_update_with_empty_is_identity(self):
        sketch = LatencySketch()
        sketch.add_many([1e-3, 2e-3])
        before = sketch.to_dict()
        sketch.update(LatencySketch())
        assert sketch.to_dict() == before


class TestLatencyStatsContract:
    def test_matches_list_based_stats_on_degenerate_sets(self):
        # empty and single-sample sets reproduce the exact-list contract
        assert latency_stats(LatencySketch()) == latency_stats([])
        sketch = LatencySketch()
        sketch.add(0.0031)
        exact = latency_stats([0.0031])
        approx = latency_stats(sketch)
        assert approx.count == exact.count
        assert approx.mean_ms == pytest.approx(exact.mean_ms, rel=1e-12)
        assert approx.max_ms == pytest.approx(exact.max_ms, rel=1e-12)
        for key, value in exact.percentiles_ms.items():
            assert approx.percentiles_ms[key] == pytest.approx(value, rel=1e-12)

    def test_tracks_exact_stats_within_rel_err(self):
        samples = list(lognormal_samples(20_000, seed=4))
        sketch = LatencySketch()
        sketch.add_many(samples)
        exact = latency_stats(samples)
        approx = latency_stats(sketch)
        assert approx.count == exact.count
        assert approx.mean_ms == pytest.approx(exact.mean_ms, rel=1e-9)
        for key, value in exact.percentiles_ms.items():
            assert approx.percentiles_ms[key] == pytest.approx(value, rel=0.01)


class TestCdf:
    def test_bounds_and_monotonicity(self):
        samples = lognormal_samples(8000, seed=6)
        sketch = LatencySketch()
        sketch.add_many(samples)
        assert sketch.cdf(sketch.min_s * 0.5) == 0.0
        assert sketch.cdf(sketch.max_s) == 1.0
        grid = np.geomspace(sketch.min_s, sketch.max_s, 64)
        values = [sketch.cdf(v) for v in grid]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_matches_empirical_fraction(self):
        samples = lognormal_samples(50_000, seed=7)
        sketch = LatencySketch()
        sketch.add_many(samples)
        for threshold in (5e-4, 1e-3, 5e-3):
            empirical = float(np.mean(samples <= threshold))
            assert sketch.cdf(threshold) == pytest.approx(empirical, abs=0.01)

    def test_empty_cdf_is_zero(self):
        assert LatencySketch().cdf(1.0) == 0.0

    @pytest.mark.parametrize("samples", [0, 3])
    def test_nan_threshold_is_named(self, samples):
        sketch = LatencySketch()
        sketch.add_many(lognormal_samples(samples))
        with pytest.raises(ValueError, match="cdf threshold.*nan"):
            sketch.cdf(float("nan"))


def sketch_state(sketch: LatencySketch) -> tuple:
    """Every field of a sketch, floats bit for bit."""
    return (
        sketch.count,
        float(sketch.sum_s).hex(),
        float(sketch.min_s).hex(),
        float(sketch.max_s).hex(),
        tuple(sketch._counts.tolist()),
    )


def vector_only(monkeypatch) -> None:
    """Send every batch down the vectorized path (no scalar shortcut)."""
    monkeypatch.setattr(sketch_module, "_PAIRWISE_BLOCK", 0)


def edge_pool(lo_s=1e-7, hi_s=1e4) -> list[float]:
    """Bucket edges +-3 ulps, values below ``lo_s`` and above ``hi_s``."""
    geometry = LatencySketch(lo_s, hi_s)
    edges = geometry._bin_edges(np.arange(0, geometry.num_bins + 1, 97))
    pool = [0.0, 1e-300, lo_s * 0.5, hi_s, hi_s * 3.0, 1e300]
    for edge in [*edges.tolist(), lo_s]:
        for direction in (0.0, math.inf):
            value = edge
            for _ in range(4):
                pool.append(value)
                value = math.nextafter(value, direction)
    return pool


class TestFewSamplePath:
    """Batches shorter than numpy's 8-element summation block skip the
    histogram pass; every field must equal the vectorized path's."""

    @pytest.mark.parametrize("size", range(10))
    @pytest.mark.parametrize("seed", range(6))
    def test_equals_the_vector_path(self, monkeypatch, size, seed):
        rng = np.random.default_rng(seed)
        pool = edge_pool()
        prior = lognormal_samples(12, seed=seed)
        batches = [
            [pool[i] for i in rng.integers(0, len(pool), size)],
            list(lognormal_samples(size, seed=seed + 100)),
            list(np.round(lognormal_samples(size, seed=seed), 3)),  # ties
        ]
        few = []
        for batch in batches:
            sketch = LatencySketch()
            sketch.add_many(prior)
            sketch.add_many(batch)
            few.append(sketch_state(sketch))
        vector_only(monkeypatch)
        for batch, state in zip(batches, few):
            sketch = LatencySketch()
            sketch.add_many(prior)
            sketch.add_many(batch)
            assert sketch_state(sketch) == state

    def test_signed_zeros_match(self, monkeypatch):
        batches = [[0.0, -0.0], [-0.0, 0.0, -0.0], [-0.0], [1e-9, -0.0, 0.0]]
        few = []
        for batch in batches:
            sketch = LatencySketch()
            sketch.add_many(batch)
            few.append(sketch_state(sketch))
        vector_only(monkeypatch)
        for batch, state in zip(batches, few):
            sketch = LatencySketch()
            sketch.add_many(batch)
            assert sketch_state(sketch) == state

    @pytest.mark.parametrize("size", range(1, 10))
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("vector", [False, True])
    def test_nonfinite_batch_leaves_the_sketch_unchanged(
        self, monkeypatch, size, bad, vector
    ):
        if vector:
            vector_only(monkeypatch)
        sketch = LatencySketch()
        sketch.add_many(lognormal_samples(5))
        before = sketch_state(sketch)
        batch = list(lognormal_samples(size, seed=1))
        batch[size // 2] = bad
        with pytest.raises(ValueError, match="finite"):
            sketch.add_many(batch)
        assert sketch_state(sketch) == before

    def test_histogram_snapshots_match(self, monkeypatch):
        from repro.obs.metrics import Histogram

        pool = edge_pool(1e-7, 1e9)
        batches = [pool[7 * size:8 * size] for size in range(10)] + [[3.0]]

        def snapshot():
            histogram = Histogram("h")
            for batch in batches:
                histogram.observe_many(batch)
            return histogram.to_dict()

        few = snapshot()
        vector_only(monkeypatch)
        assert snapshot() == few


class TestZeroServedTenant:
    """A declared tenant that never gets a request is a legitimate
    configuration, not an error: its ClusterReport block is all zeros,
    its sketch is empty, and merging empty sketches stays associative."""

    def _run(self, tenants, requests=6, fleet_size=1):
        from repro.cluster import homogeneous_fleet, simulate_cluster_sharded
        from repro.serve import Request, SchedulerConfig

        stream = [
            Request(
                index=i, model="model4", arrival_s=i * 1e-4, tenant="busy"
            )
            for i in range(requests)
        ]
        return simulate_cluster_sharded(
            stream,
            homogeneous_fleet(fleet_size),
            SchedulerConfig(mode="continuous"),
            tenants=tenants,
            passes="packing+stratify+ecp",
        )

    def test_idle_tenant_block_is_zeros_not_keyerror(self):
        from repro.serve import TenantSpec

        report = self._run(
            (TenantSpec("busy", 2.0), TenantSpec("idle", 1.0, 4))
        )
        block = report.tenants["idle"]  # must not raise
        assert block["served"] == 0
        assert block["shed"] == 0
        assert block["service_s"] == 0.0
        assert block["service_share"] == 0.0
        assert block["latency_ms"]["p99"] == 0.0
        assert block["quota"] == 4
        assert report.tenant_sketches["idle"].count == 0

    def test_idle_tenant_json_is_strict(self):
        import json

        from repro.serve import TenantSpec

        report = self._run((TenantSpec("busy"), TenantSpec("idle")))
        text = json.dumps(report.to_dict(), allow_nan=False)  # no NaN/Inf
        assert json.loads(text)["tenants"]["idle"]["latency_ms"]["mean"] == 0.0

    def test_latency_stats_on_empty_sketch_is_all_zero(self):
        stats = latency_stats(LatencySketch())
        assert stats.count == 0
        assert stats.mean_ms == 0.0
        assert all(v == 0.0 for v in stats.percentiles_ms.values())

    def test_merge_with_empties_stays_associative(self):
        samples = lognormal_samples(4000, seed=10)
        full = LatencySketch()
        full.add_many(samples)
        empty_a, empty_b = LatencySketch(), LatencySketch()
        left = empty_a.merged(full).merged(empty_b)
        right = empty_a.merged(full.merged(empty_b))
        assert np.array_equal(left._counts, right._counts)
        assert left.count == right.count == full.count
        for q in (50, 99):
            assert (
                left.percentile(q)
                == right.percentile(q)
                == full.percentile(q)
            )

    def test_merging_only_empties_is_still_empty(self):
        merged = LatencySketch().merged(LatencySketch()).merged(LatencySketch())
        assert merged.count == 0
        assert merged.percentile(99) == 0.0
        assert merged.cdf(1.0) == 0.0


class TestSerialization:
    def test_dict_round_trip(self):
        sketch = LatencySketch()
        sketch.add_many(lognormal_samples(2000, seed=8))
        clone = LatencySketch.from_dict(sketch.to_dict())
        assert np.array_equal(clone._counts, sketch._counts)
        assert clone.count == sketch.count
        assert clone.percentile(99) == sketch.percentile(99)

    def test_empty_dict_round_trip(self):
        clone = LatencySketch.from_dict(LatencySketch().to_dict())
        assert clone.count == 0
        assert clone.percentile(50) == 0.0

    def test_pickle_round_trip(self):
        # the sharded cluster ships sketches between worker processes
        sketch = LatencySketch()
        sketch.add_many(lognormal_samples(2000, seed=9))
        clone = pickle.loads(pickle.dumps(sketch))
        assert np.array_equal(clone._counts, sketch._counts)
        assert clone.percentile(95) == sketch.percentile(95)
        assert clone.merged(sketch).count == 2 * sketch.count

    def test_validation(self):
        with pytest.raises(ValueError, match="lo_s"):
            LatencySketch(lo_s=0.0)
        with pytest.raises(ValueError, match="rel_err"):
            LatencySketch(rel_err=1.0)
