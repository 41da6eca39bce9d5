"""The pass pipeline: each pass in isolation, toggles, and the manager."""

import pytest

from repro.algo import ECPConfig
from repro.arch import BishopConfig, EnergyModel
from repro.bundles import BundleSpec
from repro.compiler import (
    BundlePackingPass,
    Compilation,
    ECPPlanningPass,
    LowerPass,
    PassConfig,
    PassManager,
    SchedulePass,
    StratifyPass,
    TraceIngestPass,
    compile_trace,
    default_pipeline,
)


def compilation(trace, config=None, ecp=None):
    return Compilation(
        trace=trace,
        config=config or BishopConfig(),
        energy=EnergyModel(),
        ecp=ecp,
    )


class TestPassConfig:
    def test_parse_all_none(self):
        assert PassConfig.parse("all") == PassConfig()
        none = PassConfig.parse("none")
        assert not (none.bundle_packing or none.stratify or none.ecp
                    or none.schedule)

    def test_parse_subset(self):
        config = PassConfig.parse("packing+schedule")
        assert config.bundle_packing and config.schedule
        assert not config.stratify and not config.ecp

    def test_parse_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown compiler pass"):
            PassConfig.parse("packing+vectorize")

    def test_spec_round_trips(self):
        for spec in ("all", "none", "packing+stratify", "ecp+schedule"):
            assert PassConfig.parse(spec).spec() == spec

    def test_without(self):
        config = PassConfig().without("schedule")
        assert not config.schedule and config.bundle_packing
        with pytest.raises(ValueError, match="unknown compiler pass"):
            PassConfig().without("loop_unroll")

    def test_parse_accepts_existing_config(self):
        config = PassConfig(schedule=False)
        assert PassConfig.parse(config) is config


class TestIngest:
    def test_one_draft_per_simulated_layer(self, small_trace):
        comp = compilation(small_trace)
        TraceIngestPass().run(comp)
        kinds = [draft.kind for draft in comp.drafts]
        # 2 blocks × (3 projections + attention + proj_o + mlp1 + mlp2).
        assert len(kinds) == 14
        assert kinds.count("attention") == 2

    def test_annotates_raw_workload(self, small_trace):
        comp = compilation(small_trace)
        TraceIngestPass().run(comp)
        matmul = comp.drafts[0]
        assert matmul.annotations["spike_count"] == float(
            matmul.record.input_spikes.sum()
        )
        assert matmul.annotations["macs"] == float(matmul.record.macs())


class TestPacking:
    def test_marks_drafts_and_annotates_occupancy(self, small_trace):
        comp = compilation(small_trace)
        TraceIngestPass().run(comp)
        BundlePackingPass().run(comp)
        assert all(draft.packed for draft in comp.drafts)
        for draft in comp.drafts:
            occupancy = draft.annotations["bundle_occupancy"]
            assert 0.0 < occupancy < 1.0
            assert draft.annotations["active_bundles"] <= (
                draft.annotations["num_bundles"]
            )


class TestStratify:
    def test_splits_matmul_features(self, small_trace):
        comp = compilation(small_trace)
        TraceIngestPass().run(comp)
        StratifyPass().run(comp)
        for draft in comp.drafts:
            if draft.is_matmul:
                workload = draft.workload
                assert workload.num_features == draft.record.input_spikes.shape[2]
                assert draft.annotations["dense_features"] == float(
                    len(workload.dense_features)
                )
            else:
                assert draft.workload is None


class TestECPPlanning:
    def test_noop_without_config(self, small_trace):
        comp = compilation(small_trace)
        TraceIngestPass().run(comp)
        ECPPlanningPass().run(comp)
        assert all(draft.ecp is None for draft in comp.drafts)

    def test_plans_attention_stages(self, small_trace):
        ecp = ECPConfig(theta_q=2, theta_k=3, spec=BundleSpec(2, 4))
        comp = compilation(small_trace, ecp=ecp)
        TraceIngestPass().run(comp)
        ECPPlanningPass().run(comp)
        attention = [d for d in comp.drafts if d.kind == "attention"]
        assert attention and all(d.ecp is ecp for d in attention)
        for draft in attention:
            assert draft.annotations["ecp_theta_q"] == 2.0
            assert draft.annotations["ecp_error_bound"] == 3.0
        assert all(d.ecp is None for d in comp.drafts if d.is_matmul)

    def test_lowering_realizes_the_plan_once(self, small_trace):
        """Keep fractions come from the single pruning run inside the
        lowering, not from a duplicate in the planning pass."""
        ecp = ECPConfig(theta_q=2, theta_k=2, spec=BundleSpec(2, 4))
        program = compile_trace(small_trace, ecp=ecp)
        attention = [s for s in program.stages if s.kind == "attention"]
        for stage in attention:
            assert 0.0 <= stage.annotations["q_keep_fraction"] <= 1.0
            assert stage.annotations["ecp_error_bound"] == 2.0


class TestLowerAndSchedule:
    def test_lower_requires_running_last(self, small_trace):
        comp = compilation(small_trace)
        with pytest.raises(RuntimeError, match="without lowering"):
            PassManager([TraceIngestPass()]).run(comp)

    def test_schedule_measures_makespan(self, small_trace):
        comp = compilation(small_trace)
        for compiler_pass in (TraceIngestPass(), LowerPass(), SchedulePass()):
            compiler_pass.run(comp)
        assert comp.meta["scheduled_latency_s"] > 0

    def test_schedule_requires_lowered_stages(self, small_trace):
        comp = compilation(small_trace)
        TraceIngestPass().run(comp)
        with pytest.raises(RuntimeError, match="lowered"):
            SchedulePass().run(comp)


class TestDefaultPipeline:
    def test_all_passes(self, small_trace):
        program = compile_trace(small_trace)
        assert program.passes == (
            "ingest", "packing", "stratify", "lower", "schedule",
        )

    def test_ecp_pass_needs_a_plan(self, small_trace):
        names = [p.name for p in default_pipeline(PassConfig())]
        assert "ecp" not in names
        ecp = ECPConfig(theta_q=2, theta_k=2, spec=BundleSpec(2, 4))
        names = [
            p.name for p in default_pipeline(PassConfig(), ecp)
        ]
        assert "ecp" in names

    def test_pass_toggles_recorded_in_meta(self, small_trace):
        program = compile_trace(small_trace, passes="packing+stratify")
        assert program.meta["pass_config"] == "packing+stratify"
        assert "schedule" not in program.passes
        assert program.scheduled_latency_s is None
        assert program.request_latency_s == program.serial_latency_s
