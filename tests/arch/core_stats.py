"""The dense and sparse core models driven by spike arrays.

The core models read a partition's integer statistics, not spikes; these
helpers count them from a ``(T, N, D)`` array (one fresh grid per call),
for tests that build their partitions by hand or slice them out of a
layer's spikes.
"""

import numpy as np

from repro.arch import simulate_dense_core, simulate_sparse_core
from repro.arch.dense_core import dense_tile_activity
from repro.bundles import TTBGrid


def dense_core_on(spikes, out_features, config, skip_inactive=True):
    """:func:`simulate_dense_core` on the partition ``spikes``."""
    grid = TTBGrid(spikes, config.bundle_spec)
    bundle_rows = grid.n_bt * grid.n_bn
    active = grid.active.reshape(bundle_rows, grid.features)
    tile_steps, row_steps = dense_tile_activity(active, config, skip_inactive)
    return simulate_dense_core(
        np.count_nonzero(active), tile_steps.sum(), row_steps.sum(),
        grid.features, bundle_rows, out_features, config, skip_inactive,
    )


def sparse_core_on(spikes, out_features, config):
    """:func:`simulate_sparse_core` on the partition ``spikes``."""
    grid = TTBGrid(spikes, config.bundle_spec)
    return simulate_sparse_core(
        grid.num_active_bundles, grid.features, grid.n_bt * grid.n_bn,
        out_features, config,
    )
