"""cl13: the complex Clifford algebra Cl(1,3) and a verification harness
for the symplectic-gauge Dirac-Yang-Mills model systems."""

from .algebra import (
    BETA,
    BLADE_LABELS,
    E,
    E0,
    E1,
    E2,
    E3,
    GENERATORS,
    J,
    METRIC_DIAG,
    CliffordElement,
    anticommutator,
    blade_mul,
    commutator,
    exp_element,
    random_element,
)
from .exactnum import RationalComplex
from .fields import (
    CliffordField,
    ConstantField,
    ExpField,
    FieldFamily,
    ModelFieldSet,
    PointSet,
    ProductField,
    ShapeField,
    StackField,
    SumField,
    TwoYangMillsFieldSet,
    bianchi_current_check,
    build_pure_gauge,
    check_h_identities,
    check_reduction_identities,
    convergence_slope,
    fd_derivative,
    model_residuals,
    random_family,
    random_two_yang_mills_set,
    reduce_to_two_yang_mills,
    reductions,
    sample_points,
    source_norm,
    two_yang_mills_residuals,
    worst,
)
from .rep import (
    NotHermitianError,
    SingularElementError,
    gamma_rep,
    hermitian_eigenvalues,
    inverse,
    rep_inverse,
    rep_rank,
)
from .shapes import PolyShape, TrigShape, constant_shape, shape_from_json
from .subspaces import (
    fixed_idempotent,
    in_ideal,
    in_sp_algebra,
    in_sp_group,
    is_hermitian_idempotent,
    matrix_sp_dimension,
    sample,
    subspace_basis,
)
from .symmetries import (
    TransformationSpec,
    apply_transformation,
    bilinear_form,
    covariance_check,
    random_transformation,
)
from .verify import Report, ScenarioConfig, emit_report, run_scenario

__version__ = "0.1.0"
