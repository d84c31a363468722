"""qbhkit: decomposable Poisson tensors, commutation-algebra criteria,
and quasi-bi-Hamiltonian systems on coordinate charts, with every
symbolic claim cross-checked numerically at seeded sample points."""

__version__ = "0.1.0"

from .chart import CoordinateChart, Point, PointCloud
from .errors import (
    AllPointsSkippedError,
    ChartMismatchError,
    DeltaViolatedError,
    EvaluationDomainError,
    ExprSyntaxError,
    GuardTooRestrictiveError,
    HamiltonianConditionViolatedError,
    NonVanishingRhoError,
    NotAnIntegralError,
    PreconditionResidualError,
    ProblemFormatError,
    QbhError,
    SingularFactorError,
    UnknownCoordinateError,
    UnknownIdentifierError,
)
from .expr import (
    ScalarExpr,
    atan,
    atan2,
    constant,
    coordinate,
    cos,
    differentiate,
    evaluate,
    evaluate_at_points,
    exp,
    ln,
    simplify,
    sin,
    sqrt,
    structurally_equal,
    tan,
)
from .parser import parse_expression
from .fields import (
    BivectorSum,
    DecomposableBivector,
    TrivectorSum,
    VectorField,
    apply_field,
    bivector_components_at,
    contract_hamiltonian,
    coordinate_field,
    lie_bracket,
    lie_derivative_bivector,
    poisson_bracket,
    schouten_bb,
    trivector_at,
    trivector_components_at,
    wedge,
    wedge3,
    zero_field,
)
from .sampling import (
    GENERATOR_NAME,
    Guard,
    SampleDomain,
    ToleranceConfig,
    VerifyConfig,
    fd_apply_field,
    fd_lie_bracket,
    fd_partial,
    random_polynomial,
    sample_points,
)
from .reports import ConditionResult, CriterionReport, RunReport, render_json, render_text
from .criteria import (
    JACOBI_STRUCTURE_SIGN,
    HojmanResult,
    Lemma4Result,
    LinearRealization,
    SpanDecomposition,
    StructureCoefficients,
    check_automorphism,
    check_compatibility,
    check_delta,
    check_jacobi,
    check_linear_realization,
    check_poisson_pair,
    delta_structure_functions,
    hamiltonian_condition,
    hojman_check,
    lemma4_coefficients,
    lemma4_residuals,
    linear_realization,
    separable_hamiltonian,
    span_expand,
)
from .qbh import (
    HamiltonianSystem,
    QuasiBiHamiltonianSystem,
    build_qbh,
    hamiltonian_vector_field,
    jacobi_identity_check,
)
from .problem import ProblemSpec, load_problem, parse_problem, problem_digest
from .fixtures import FIXTURES, fixture_names, load_fixture, run_fixture
