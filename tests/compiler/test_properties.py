"""Property tests: every pass pipeline preserves work and legality.

The optimization passes may *re-map* work (different cores, skipped
inactive bundles, overlapped streaming) but must never lose or invent it:
spike counts are partition-invariant, stratification preserves the total
select-accumulate work exactly, and the DRAM weight stream depends only on
feature liveness — not on where features were routed.
"""

import pytest

from repro.arch import BishopConfig
from repro.compiler import compile_trace, legal_cores_for

from ..arch.engine.reference_lanes import replay_makespan

PIPELINES = (
    "all",
    "none",
    "packing",
    "stratify",
    "schedule",
    "packing+stratify",
    "packing+schedule",
    "packing+stratify+schedule",
)


@pytest.fixture(scope="module", params=PIPELINES)
def compiled(request, small_trace):
    return compile_trace(small_trace, BishopConfig(), passes=request.param)


class TestLegality:
    def test_every_op_on_a_legal_core(self, compiled):
        for stage in compiled.stages:
            legal = legal_cores_for(stage.kind)
            for op in stage.ops:
                assert op.core in legal
                assert op.duration_s >= 0.0
                assert op.tiles >= 1

    def test_matmul_work_never_on_attention_core(self, compiled):
        for stage in compiled.stages:
            if stage.kind != "attention":
                assert stage.op("attention_core") is None

    def test_dram_tags_cover_all_traffic(self, compiled):
        for stage in compiled.stages:
            for op in stage.ops:
                if op.core == "dram":
                    assert op.tag in ("weight", "activation")
                    assert op.bytes > 0


class TestWorkPreservation:
    def test_spike_counts_match_trace(self, compiled, small_trace):
        traced = {
            index: float(record.input_spikes.sum())
            for index, record in enumerate(
                r for r in small_trace.records if r.is_matmul or r.kind == "attention"
            )
            if getattr(record, "is_matmul", False)
        }
        for stage in compiled.stages:
            if stage.kind != "attention":
                assert stage.annotations["spike_count"] == traced[stage.index]

    def test_stratification_preserves_sac_work(self, small_trace):
        """Dense+sparse ops with the stratifier equal all-dense ops: the
        feature partition moves work between cores, never changes it."""
        config = BishopConfig()
        split = compile_trace(small_trace, config, passes="packing+stratify")
        dense_only = compile_trace(small_trace, config, passes="packing")
        for with_split, without in zip(split.stages, dense_only.stages):
            if with_split.kind == "attention":
                continue
            ops_split = (
                with_split.annotations["sac_ops"]
                + with_split.annotations["sparse_ops"]
            )
            assert ops_split == pytest.approx(
                without.annotations["sac_ops"], rel=1e-12
            )

    def test_stratification_preserves_weight_stream(self, small_trace):
        """The DRAM weight stream is gated by feature liveness, which is a
        property of the tensor — not of the dense/sparse split."""
        config = BishopConfig()
        split = compile_trace(small_trace, config, passes="packing+stratify")
        dense_only = compile_trace(small_trace, config, passes="packing")
        for with_split, without in zip(split.stages, dense_only.stages):
            assert with_split.annotations.get(
                "dram_weight_bytes"
            ) == pytest.approx(
                without.annotations.get("dram_weight_bytes"), rel=1e-12
            )

    def test_scheduling_moves_no_work(self, small_trace):
        """The scheduling pass reorders streams; durations, bytes, and
        energy are untouched."""
        config = BishopConfig()
        scheduled = compile_trace(small_trace, config, passes="all")
        unscheduled = compile_trace(
            small_trace, config, passes="packing+stratify+ecp"
        )
        assert scheduled.timings() == unscheduled.timings()
        assert scheduled.dram_bytes == unscheduled.dram_bytes
        assert scheduled.dynamic_pj == unscheduled.dynamic_pj

    def test_spike_count_annotation_survives_every_pipeline(self, compiled):
        for stage in compiled.stages:
            assert stage.annotations["spike_count"] >= 0.0
            assert stage.annotations["macs"] > 0.0


class TestLatencyStructure:
    def test_serial_estimate_matches_engine_replay(self, compiled):
        measured = replay_makespan(compiled.timings(), scheduled=False)
        assert measured == pytest.approx(compiled.serial_latency_s, rel=1e-12)

    def test_scheduled_never_exceeds_serial(self, compiled):
        if not compiled.scheduled:
            pytest.skip("no scheduling pass in this pipeline")
        assert compiled.scheduled_latency_s <= compiled.serial_latency_s * (
            1 + 1e-9
        )
        assert compiled.scheduled_latency_s >= compiled.pipelined_bound_s * (
            1 - 1e-9
        )

    def test_bound_never_exceeds_serial(self, compiled):
        assert compiled.pipelined_bound_s <= compiled.serial_latency_s * (
            1 + 1e-12
        )


class TestBandwidthSweepInvariants:
    """The scheduled ≤ serial contract must hold at any DRAM bandwidth."""

    @pytest.mark.parametrize("gbps", (76.8, 9.6, 2.4, 0.6))
    def test_scheduled_leq_serial(self, small_trace, gbps):
        import dataclasses

        base = BishopConfig()
        config = base.with_overrides(
            dram=dataclasses.replace(
                base.dram, bandwidth_bytes_per_s=gbps * 1e9
            )
        )
        program = compile_trace(small_trace, config, passes="all")
        assert program.scheduled_latency_s <= program.serial_latency_s * (
            1 + 1e-9
        )
