"""A serving profile's derived sums: batch energy and sparse-core share."""

import numpy as np
import pytest

from repro.serve import RequestProfile

from ..compiler.test_prefetch_makespan import APPROX, random_timings


def profile(seed, layers=6):
    timings = random_timings(np.random.default_rng(seed), layers)
    return RequestProfile(model="m", timings=timings, single_latency_s=0.0)


class TestRequestProfileSums:
    def test_batch_energy_matches_layer_sum(self):
        p = profile(4)
        for batch in (1, 2, 5):
            assert p.batch_dynamic_pj(batch) == pytest.approx(
                sum(t.batch_dynamic_pj(batch) for t in p.timings), **APPROX
            )

    def test_sparse_core_share_matches_layer_sum(self):
        p = profile(5)
        total = sum(
            t.dense_s + t.sparse_s + t.attention_s + t.spike_gen_s
            for t in p.timings
        )
        expected = sum(t.sparse_s for t in p.timings) / total
        assert p.sparse_core_share == pytest.approx(expected, **APPROX)

    def test_empty_program(self):
        p = RequestProfile(model="m", timings=(), single_latency_s=0.0)
        assert p.batch_dynamic_pj(3) == 0.0
        assert p.sparse_core_share == 0.0

    def test_energy_sums_are_numpy_reductions(self):
        """Pairwise, not Python's left-to-right ``sum``: the two differ in
        the last bits from 8 layers on, and serving energy is recorded."""
        p = profile(6, layers=40)
        assert p.dynamic_pj == float(
            np.array([t.dynamic_pj for t in p.timings]).sum()
        )
        assert p.weight_dram_pj == float(
            np.array([t.weight_dram_pj for t in p.timings]).sum()
        )
