"""Bishop's HW/SW co-design algorithms (systems S6-S7): BSA and ECP."""

from .bsa import TAG_MODES, BundleSparsityLoss, bundle_sums
from .ecp import (
    ECPAttentionPruner,
    ECPConfig,
    ECPReport,
    attach_ecp,
    bundle_row_keep_mask,
    detach_ecp,
    ecp_plan,
    ecp_prune_qk,
    expand_row_mask,
)

__all__ = [
    "BundleSparsityLoss",
    "bundle_sums",
    "TAG_MODES",
    "ECPConfig",
    "ECPReport",
    "ECPAttentionPruner",
    "attach_ecp",
    "detach_ecp",
    "ecp_plan",
    "ecp_prune_qk",
    "bundle_row_keep_mask",
    "expand_row_mask",
]
