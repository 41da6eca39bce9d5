"""Error-Constrained TT-Bundle Pruning (ECP) — paper Sec. 5.1, Figs. 7/8/14.

Demonstrates on the ImageNet-100-scale model (Table 2's Model 3):

1. the certified error bound — for binary Q/K every pruned attention score
   is strictly below θ_p (verified against the real score tensors);
2. the compounding effect — pruned Q rows × pruned K rows multiply into a
   much smaller attention-map computation;
3. the hardware payoff — attention-core speedup/energy across a θ_p sweep.

Run:  python examples/ecp_attention_pruning.py
"""

import numpy as np

from repro.algo import ECPConfig, ecp_prune_qk
from repro.arch import BishopConfig, simulate_attention_core
from repro.arch.attention_core import merge_attention_heads
from repro.bundles import BundleSpec
from repro.harness.synthetic import PROFILES, synthetic_trace
from repro.model import model_config


def main() -> None:
    spec = BundleSpec(2, 4)
    config = model_config("model3")
    profile = PROFILES["model3"].bsa_variant()
    trace = synthetic_trace(config, profile, spec, seed=0)
    record = trace.layers(kind="attention")[-1]

    q = merge_attention_heads(record.q)
    k = merge_attention_heads(record.k)
    print(f"model3 attention layer: T={q.shape[0]} N={q.shape[1]} D={q.shape[2]}")
    print(f"Q density {q.mean():.2%}, K density {k.mean():.2%}\n")

    print(" θ_p   Q kept   K kept   S compute   max |ΔS|  bound   speedup")
    arch = BishopConfig(bundle_spec=spec)
    base = simulate_attention_core(record.q, record.k, record.v, arch)
    base_cycles = base.cycles
    for theta in (0, 2, 4, 6, 8, 12):
        if theta == 0:
            q_pruned, k_pruned = q, k
            q_keep = k_keep = 1.0
            s_frac, max_err, bound = 1.0, 0.0, 0.0
            result = base
        else:
            ecp = ECPConfig(theta_q=theta, theta_k=theta, spec=spec)
            q_pruned, k_pruned, report = ecp_prune_qk(q, k, ecp)
            q_keep = report.q_token_keep_fraction
            k_keep = report.k_token_keep_fraction
            s_frac = report.score_compute_fraction
            # Integer scores: on bool spikes a plain einsum is a logical OR.
            before = np.einsum("tnd,tmd->tnm", q, k, dtype=np.int64)
            after = np.einsum("tnd,tmd->tnm", q_pruned, k_pruned, dtype=np.int64)
            max_err = float(np.abs(before - after).max())
            bound = report.error_bound
            assert max_err < bound, "certified bound violated!"
            result = simulate_attention_core(record.q, record.k, record.v, arch, ecp=ecp)
        speedup = base_cycles / max(result.cycles, 1e-9)
        print(
            f"{theta:4d}  {q_keep:7.1%}  {k_keep:7.1%}  {s_frac:10.2%}"
            f"  {max_err:8.1f}  {bound:5.0f}  {speedup:7.2f}x"
        )

    print(
        "\nEvery pruned score is certified < θ_p — the binary-spike property"
        "\nthat ANN attention lacks (Sec. 5.1)."
    )


if __name__ == "__main__":
    main()
