"""Deployment flow: train → 8-bit quantize → checkpoint → pipelined inference.

Bishop's datapath stores 8-bit weights (Sec. 2.3/6.1), so deployment means
quantizing the trained float weights to the accelerator's format, saving the
artifact, and scheduling inference with double-buffered layer pipelining.

Run:  python examples/deploy_quantized.py [--epochs N]
"""

import argparse
import tempfile
from pathlib import Path

from repro.arch import BishopAccelerator, BishopConfig
from repro.bundles import BundleSpec
from repro.model import SpikingTransformer, load_model, save_model, tiny_config
from repro.snn import quantize_model
from repro.train import TrainConfig, Trainer, encode_batch, make_image_dataset

SPEC = BundleSpec(2, 2)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--epochs", type=int, default=10,
                        help="training epochs (smoke tests use 1)")
    args = parser.parse_args()
    dataset = make_image_dataset(num_classes=4, samples_per_class=30, image_size=16, seed=3)
    model = SpikingTransformer(tiny_config(num_classes=4), seed=1)
    trainer = Trainer(
        model, dataset, TrainConfig(epochs=args.epochs, batch_size=24, lr=3e-3, seed=0)
    )
    trainer.fit()
    float_accuracy = trainer.evaluate(dataset.x_test, dataset.y_test)

    report = quantize_model(model, bits=8)
    int8_accuracy = trainer.evaluate(dataset.x_test, dataset.y_test)
    print(f"accuracy: float {float_accuracy:.3f} -> int8 {int8_accuracy:.3f}")
    print(f"quantized {report.num_quantized}/{report.num_parameters} tensors, "
          f"mean |err| {report.mean_abs_error:.2e}")

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "bishop_int8.npz"
        save_model(model, path)
        print(f"checkpoint: {path.name} ({path.stat().st_size / 1024:.1f} KiB)")
        deployed = load_model(path)

    x = encode_batch(dataset.x_test[:2], "image", deployed.config.timesteps)
    trace = deployed.trace(x)
    run = BishopAccelerator(BishopConfig(bundle_spec=SPEC)).run_trace(trace)
    program = run.program
    print(f"\nBishop inference: {program.serial_latency_s * 1e6:.2f} µs serial, "
          f"{program.scheduled_latency_s * 1e6:.2f} µs double-buffered "
          f"(bound {program.pipelined_bound_s * 1e6:.2f} µs), "
          f"{run.total_energy_pj / 1e6:.3f} µJ")


if __name__ == "__main__":
    main()
