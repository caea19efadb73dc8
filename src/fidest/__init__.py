"""Desk-scale simulator and verification harness for fidelity estimation of
low-rank states via block-encoded operator square roots."""

from .amplitude import (
    QaeParams,
    qae_error_bound,
    qae_estimate,
    qae_outcome_distribution,
)
from .block_encoding import purification_to_unitary_be
from .linalg import (
    eig_hermitian,
    operator_norm,
    sqrtm_psd,
    trace_norm,
    unitarity_defect,
)
from .pipeline import (
    PipelineParams,
    build_eta,
    build_w_sigma,
    estimate_fidelity,
    select_params,
)
from .sqrt_extractor import (
    SqrtParams,
    build_sqrt_unitary,
    filter_f,
    grid_eigenvalue,
    h_vector,
    pe_coefficient,
    pe_coefficient_direct,
    pe_phase_offset,
    pe_tail_bound,
    preparer_queries,
    sine_state,
    stage_gain,
)
from .states import (
    DensityOperator,
    Purification,
    ancilla_qubits_for,
    fidelity_exact,
    purify,
    random_density,
    trace_distance,
    uhlmann_fidelity,
)

__version__ = "0.1.0"

__all__ = [
    "DensityOperator",
    "PipelineParams",
    "Purification",
    "QaeParams",
    "SqrtParams",
    "ancilla_qubits_for",
    "build_eta",
    "build_sqrt_unitary",
    "build_w_sigma",
    "eig_hermitian",
    "estimate_fidelity",
    "fidelity_exact",
    "filter_f",
    "grid_eigenvalue",
    "h_vector",
    "operator_norm",
    "pe_coefficient",
    "pe_coefficient_direct",
    "pe_phase_offset",
    "pe_tail_bound",
    "preparer_queries",
    "purification_to_unitary_be",
    "purify",
    "qae_error_bound",
    "qae_estimate",
    "qae_outcome_distribution",
    "random_density",
    "select_params",
    "sine_state",
    "sqrtm_psd",
    "stage_gain",
    "trace_distance",
    "trace_norm",
    "uhlmann_fidelity",
    "unitarity_defect",
]
