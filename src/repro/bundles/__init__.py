"""Token-Time Bundle representation and statistics (system S5)."""

from .stats import (
    ActiveBundleDistribution,
    DensityReport,
    active_bundle_distribution,
    density_report,
)
from .ttb import BundleSpec, TTBGrid, as_grid, pad_to_bundle_grid

__all__ = [
    "BundleSpec",
    "TTBGrid",
    "as_grid",
    "pad_to_bundle_grid",
    "ActiveBundleDistribution",
    "active_bundle_distribution",
    "DensityReport",
    "density_report",
]
