"""Engine emission: serial oracle, prefetch schedule, two-resource forms."""

import pytest

from repro.arch.engine.machine import LayerTiming
from repro.compiler.passes import prefetch_makespan

from ..arch.engine.reference_lanes import replay_makespan, serial_closed_form
from ..arch.test_pipeline import program


def closed_form(timings, scheduled=False, batch=1):
    """What the compiled program reads: the schedule pass's prefetch
    recurrence (batch 1 only) or the layer-serial sum."""
    if scheduled:
        assert batch == 1, "the prefetch closed form has no batch"
        return prefetch_makespan(timings)
    return serial_closed_form(timings, batch)


@pytest.fixture(
    params=[closed_form, replay_makespan], ids=["closed_form", "replay"],
    autouse=True,
)
def measure(request):
    """Every emission oracle must hold for the closed form and for the
    callback replay on a fresh engine."""
    return request.param


def timing(compute_s, weight_s, activation_s=0.0, kind="mlp1", phase="MLP"):
    return LayerTiming(
        block=0,
        kind=kind,
        phase=phase,
        dense_s=compute_s,
        weight_dram_s=weight_s,
        activation_dram_s=activation_s,
    )


class TestSerialEmission:
    def test_matches_closed_form(self, measure):
        timings = (timing(10.0, 4.0), timing(2.0, 7.0), timing(5.0, 5.0))
        expected = sum(max(t.compute_s, t.dram_s()) for t in timings)
        assert measure(timings) == pytest.approx(expected)

    def test_empty_chain(self, measure):
        assert measure(()) == 0.0


class TestScheduledEmission:
    def test_equal_when_compute_bound(self, measure):
        timings = (timing(10.0, 1.0), timing(10.0, 1.0), timing(10.0, 1.0))
        serial = measure(timings)
        scheduled = measure(timings, scheduled=True)
        assert scheduled == pytest.approx(serial)

    def test_strictly_faster_on_mixed_chain(self, measure):
        # Layer 0 compute-heavy, layer 1 weight-heavy: prefetch hides the
        # second layer's stream under the first layer's compute.
        timings = (timing(10.0, 1.0), timing(2.0, 9.0))
        serial = measure(timings)  # 10 + 9 = 19
        scheduled = measure(timings, scheduled=True)
        assert serial == pytest.approx(19.0)
        # W1 streams during L0 compute; L1 ends at max(10+2, 1+9) = 12.
        assert scheduled == pytest.approx(12.0)

    def test_never_slower_than_serial(self, measure):
        cases = [
            (timing(3.0, 5.0, 1.0), timing(4.0, 0.5, 2.0), timing(1.0, 6.0)),
            (timing(1.0, 1.0), timing(1.0, 1.0)),
            (timing(0.0, 5.0), timing(5.0, 0.0)),
            (timing(2.0, 0.0, 3.0), timing(2.0, 4.0, 0.0)),
        ]
        for timings in cases:
            serial = measure(timings)
            scheduled = measure(timings, scheduled=True)
            assert scheduled <= serial * (1 + 1e-12)

    def test_activation_stream_not_starved_by_prefetch(self, measure):
        # The current layer's activation traffic must win the channel over
        # the next layer's weight prefetch (the FIFO-ordering regression).
        timings = (timing(10.0, 0.0, 8.0), timing(5.0, 9.0))
        serial = measure(timings)  # 10 + 9 = 19
        scheduled = measure(timings, scheduled=True)
        assert scheduled <= serial * (1 + 1e-12)

    def test_batch_scales_activation_not_weights(self, measure):
        timings = (timing(1.0, 4.0, 2.0),)
        # batch=3: compute 3, weights 4 (once), activations 6.
        assert measure(timings, batch=3) == pytest.approx(10.0)
        # A batched prefetch schedule has no closed form: replay only.
        assert replay_makespan(
            timings, scheduled=True, batch=3
        ) == pytest.approx(10.0)


class TestTwoResourceEmission:
    """The datapath + DRAM channel chain of a compiled program."""

    def test_serial_pairs_match_closed_form(self):
        compiled = program((3.0, 1.0, 0.0), (2.0, 4.0, 0.0))
        assert compiled.serial_latency_s == pytest.approx(3.0 + 4.0)
        assert sum(s.compute_s for s in compiled.stages) == pytest.approx(5.0)
        assert sum(s.dram_s for s in compiled.stages) == pytest.approx(5.0)

    def test_prefetch_between_serial_and_bound(self, measure):
        compiled = program((3.0, 1.0, 0.0), (2.0, 4.0, 0.0), (1.0, 3.0, 0.0))
        scheduled = measure(compiled.timings(), scheduled=True)
        assert (
            compiled.pipelined_bound_s * (1 - 1e-12)
            <= scheduled
            <= compiled.serial_latency_s * (1 + 1e-12)
        )

    def test_prefetch_wins_on_alternating_chain(self, measure):
        compiled = program(*[(4.0, 1.0, 0.0), (1.0, 4.0, 0.0)] * 3)
        serial = compiled.serial_latency_s          # 24
        assert measure(compiled.timings(), scheduled=True) < serial

    def test_activation_traffic_is_never_prefetched(self, measure):
        """Causality: a layer's activation spill cannot stream before the
        layer computes, so an activation-dominated chain gains nothing."""
        triples = [(4.0, 0.0, 1.0), (1.0, 0.0, 4.0)] * 2
        serial = sum(max(c, w + a) for c, w, a in triples)
        compiled = program(*triples)
        assert compiled.serial_latency_s == pytest.approx(serial)
        assert measure(compiled.timings(), scheduled=True) == pytest.approx(serial)

    def test_empty_pairs(self, measure):
        compiled = program()
        assert measure(compiled.timings(), scheduled=True) == 0.0
        assert compiled.serial_latency_s == 0.0
