"""Bishop (ISCA 2025) reproduction: sparsified bundling spiking transformers
on heterogeneous cores with error-constrained pruning.

Subpackages
-----------
autograd
    NumPy reverse-mode autodiff with surrogate-gradient support.
snn
    LIF neurons, spike encoders, spiking layers.
model
    Spiking transformer (tokenizer, SSA, MLP) and the Table-2 model zoo.
bundles
    Token-Time Bundle (TTB) partitioning, tags, and statistics.
algo
    Bundle-Sparsity-Aware training (BSA) and Error-Constrained Pruning (ECP).
train
    Synthetic datasets, training loop, metrics.
arch
    The Bishop accelerator simulator (stratifier, dense/sparse/attention
    cores, spike generator, memory hierarchy, energy model) and the
    discrete-event engine modelling the cores as contended resources
    (``arch.engine``, docs/ARCHITECTURE.md).
serve
    Multi-request serving simulation on the event engine: Poisson/bursty
    arrival streams, batch/queue schedulers, latency-percentile reports.
cluster
    Multi-chip fleets behind a front-end router: chip kinds and model
    placement, routing policies, admission control, autoscaling, all in
    one simulator of K shards stepped in windows (docs/CLUSTER.md).
dse
    Design-space exploration: a typed parameter-space DSL over
    ``BishopConfig``, pluggable multi-objective search strategies, and
    Pareto-frontier extraction with cluster chip-kind export
    (docs/DSE.md).
baselines
    PTB systolic accelerator and edge-GPU roofline comparators.
harness
    Experiment registry regenerating every table and figure of the paper.
runtime
    Parallel experiment executor with content-addressed result caching
    and the JSON artifact store behind ``repro run-all`` / ``repro sweep``.
"""

__version__ = "1.0.0"
