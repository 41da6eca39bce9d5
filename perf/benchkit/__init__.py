"""The Bishop benchmark: four workloads, their timed loop, and per-layer tracing.

``workloads`` builds each workload's seeded inputs and checks its outputs,
``measure`` runs the timed loop and assembles the metrics, ``yardstick``
measures the machine's speed between operations, ``layers``
installs the traced run's wrappers and derives the per-layer metrics, and
``golden`` stores and compares the committed output digests.
"""
