"""entkit: decide and quantify entanglement of two-part pure quantum states.

The package tells product states from entangled ones by an entrywise
coefficient-sum criterion (with a Schmidt-rank fallback), extracts local
parts, computes Schmidt decompositions through its own small complex-matrix
kernel, evaluates the entanglement number by two independent routes, and
reenacts the two-lab measurement-update scenario numerically.
"""

from .entanglement import (
    EntanglementReport,
    FactorizationVerdict,
    SchmidtDecomposition,
    entanglement_number_schmidt,
    entanglement_number_trace,
    factor_test,
    is_maximally_entangled,
    max_entanglement_bound,
    schmidt_decompose,
)
from .linalg import SVDResult, adjoint, hermitian_eigen, matmul, svd, trace
from .reporting import AnalysisReport, build_analysis_report, emit_machine, parse_machine
from .scenario import ScenarioResult, run_entangled_scenario, run_product_scenario
from .statefile import StateFileError, parse_state_file
from .states import (
    BipartiteState,
    MixedStateReduction,
    NonOrthogonalInput,
    ZeroProbabilityEvent,
    apply_local_unitary,
    collapse,
    embed_left,
    embed_right,
    local_collapse,
    local_probability,
    phase_aligned_difference,
    probability,
    reduce_left,
    singlet,
    tensor_state,
)

__version__ = "0.1.0"

__all__ = [
    "AnalysisReport",
    "BipartiteState",
    "EntanglementReport",
    "FactorizationVerdict",
    "MixedStateReduction",
    "NonOrthogonalInput",
    "ScenarioResult",
    "SchmidtDecomposition",
    "StateFileError",
    "SVDResult",
    "ZeroProbabilityEvent",
    "adjoint",
    "apply_local_unitary",
    "build_analysis_report",
    "collapse",
    "emit_machine",
    "embed_left",
    "embed_right",
    "entanglement_number_schmidt",
    "entanglement_number_trace",
    "factor_test",
    "hermitian_eigen",
    "is_maximally_entangled",
    "local_collapse",
    "local_probability",
    "matmul",
    "max_entanglement_bound",
    "parse_machine",
    "parse_state_file",
    "phase_aligned_difference",
    "probability",
    "reduce_left",
    "run_entangled_scenario",
    "run_product_scenario",
    "schmidt_decompose",
    "singlet",
    "svd",
    "tensor_state",
    "trace",
]
