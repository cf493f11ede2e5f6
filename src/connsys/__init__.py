"""Connectivity systems: set families, exact width parameters, and theorem audits."""

__version__ = "0.1.0"

from .construction import (
    EnumerationRequest,
    UltrafilterNumberResult,
    construct_ultrafilter,
    construct_ultrafilter_with_stats,
    enumerate_families,
    extend_filter_to_ultrafilter,
    generate_from_subbase,
    generated_filter_of_prefilter,
    ultrafilter_number,
)
from .core import ConnectivitySystem, GroundSet, enumerate_k_efficient
from .decomposition import (
    BranchDecomposition,
    DualityVerdict,
    LinearOrdering,
    WidthResult,
    branch_width,
    chain_to_decomposition,
    decomposition_width,
    duality_audit,
    linear_width,
    ordering_width,
)
from .families import (
    FamilyFlags,
    SetFamily,
    Verdict,
    check_family,
    classify_family,
    complement_family,
    derived_flags,
    fip_check,
    truncate_order,
)
from .orders import (
    Antichain,
    AuditReport,
    Chain,
    brute_force_min_cover_size,
    chain_delete_single,
    chain_extend_single,
    find_max_antichain,
    find_sequence_chain,
    make_antichain,
    make_chain,
    min_chain_cover,
    run_theorem_audit,
)
