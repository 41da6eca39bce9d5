"""Event-stream (DVS-Gesture-style) pipeline — the paper's Model-4 modality.

Trains a tiny spiking transformer directly on synthetic dynamic-vision-sensor
event streams (no frames, no direct encoding — the time axis is native),
then traces real inference workloads and compares Bishop against PTB with the
paper's DVS operating point (θ_p = 10).

Run:  python examples/dvs_gesture_pipeline.py [--epochs N]
"""

import argparse

import numpy as np

from repro.algo import ECPConfig
from repro.arch import BishopAccelerator, BishopConfig
from repro.baselines import PTBAccelerator
from repro.bundles import BundleSpec
from repro.model import SpikingTransformer, tiny_config
from repro.train import TrainConfig, Trainer, encode_batch, make_event_dataset

SPEC = BundleSpec(2, 2)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--epochs", type=int, default=20,
                        help="training epochs (smoke tests use 1)")
    args = parser.parse_args()
    timesteps = 8
    dataset = make_event_dataset(
        num_classes=4, samples_per_class=40, image_size=16,
        timesteps=timesteps, events_per_step=30, seed=5,
    )
    print(f"event clips: {dataset.x_train.shape}  "
          f"(mean event density {dataset.x_train.mean():.2%})")

    config = tiny_config(
        input_kind="event", num_classes=4, timesteps=timesteps, tokenizer_depth=2
    )
    model = SpikingTransformer(config, seed=2)
    trainer = Trainer(
        model, dataset,
        TrainConfig(epochs=args.epochs, batch_size=24, lr=5e-3, seed=0),
    )
    trainer.fit(log=True)
    accuracy = trainer.evaluate(dataset.x_test, dataset.y_test)
    print(f"\ntest accuracy: {accuracy:.3f}")

    # Trace a real inference and accelerate it.
    clips = encode_batch(dataset.x_test[:2], "event", timesteps)
    trace = model.trace(clips)
    bishop = BishopAccelerator(BishopConfig(bundle_spec=SPEC))
    report = bishop.run_trace(trace)
    report_ecp = bishop.run_trace(trace, ecp=ECPConfig(10, 10, SPEC))
    ptb = PTBAccelerator().run_trace(trace)

    print(f"\nlatency: bishop {report.total_latency_s * 1e6:.2f} µs"
          f"  +ECP {report_ecp.total_latency_s * 1e6:.2f} µs"
          f"  ptb {ptb.total_latency_s * 1e6:.2f} µs")
    print(f"speedup vs PTB: {ptb.total_latency_s / report_ecp.total_latency_s:.2f}x")

    program = report_ecp.program
    print(f"double-buffered pipeline: {program.serial_latency_s * 1e6:.2f} µs serial"
          f" -> {program.scheduled_latency_s * 1e6:.2f} µs"
          f" (bound {program.pipelined_bound_s * 1e6:.2f} µs)")


if __name__ == "__main__":
    main()
