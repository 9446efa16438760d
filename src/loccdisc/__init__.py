"""loccdisc: LOCC discrimination of bipartite pure states.

Construction of named state ensembles, synthesis of one-way discrimination
protocols, exact and Monte-Carlo protocol evaluation, and closed-form
bounds with a distinguishability verdict.
"""

from .bounds import (
    BoundsReport,
    Witness,
    entropy_bound_bits,
    f_bounds,
    f_mixed_dims_bounds,
    fme_bounds,
    g_bounds_bits,
    schmidt_bound,
    verdict,
)
from .ensembles import (
    BasisFamily,
    StateEnsemble,
    bell_basis,
    bell_subset,
    common_unbiased_basis_check,
    fourier_matrix,
    haar_unitary,
    mub_prime,
    random_orthogonal_me_triple,
    simultaneously_diagonal_ensemble,
    uniform_ensemble,
)
from .errors import DomainError, ToleranceError, ToolkitError
from .locc import (
    Leaf,
    LoccProtocol,
    OneWayProtocolSpec,
    Povm,
    ProtocolEvaluation,
    ProtocolNode,
    blind_guess_protocol,
    discard_protocol,
    evaluate,
    product_basis_protocol,
    simulate,
    standard_bell_protocol,
    two_state_protocol,
)
from .qstate import (
    BipartiteState,
    generalized_pauli,
    is_unitary,
    me_state,
    state_from_matrix,
    transpose_identity_check,
)
from .synth import (
    find_cub,
    synthesize_cub_protocol,
    synthesize_three_qutrit_protocol,
)

__version__ = "0.1.0"

__all__ = [
    "BasisFamily",
    "BipartiteState",
    "BoundsReport",
    "DomainError",
    "Leaf",
    "LoccProtocol",
    "OneWayProtocolSpec",
    "Povm",
    "ProtocolEvaluation",
    "ProtocolNode",
    "StateEnsemble",
    "ToolkitError",
    "ToleranceError",
    "Witness",
    "bell_basis",
    "bell_subset",
    "blind_guess_protocol",
    "common_unbiased_basis_check",
    "discard_protocol",
    "entropy_bound_bits",
    "evaluate",
    "f_bounds",
    "f_mixed_dims_bounds",
    "find_cub",
    "fme_bounds",
    "fourier_matrix",
    "g_bounds_bits",
    "generalized_pauli",
    "haar_unitary",
    "is_unitary",
    "me_state",
    "mub_prime",
    "product_basis_protocol",
    "random_orthogonal_me_triple",
    "schmidt_bound",
    "simulate",
    "simultaneously_diagonal_ensemble",
    "standard_bell_protocol",
    "state_from_matrix",
    "synthesize_cub_protocol",
    "synthesize_three_qutrit_protocol",
    "transpose_identity_check",
    "two_state_protocol",
    "uniform_ensemble",
    "verdict",
]
