"""Robustness certificates for data-driven state-feedback controllers."""

from .linalg import (
    EigensolverError,
    Spectrum,
    eigenvalues,
    pseudoinverse,
    q_function,
    spectral_radius,
    unstable,
)
from .lti import LtiSystem, TrainingData, collect, simulate, vehicle_model
from .ctrlmaps import (
    CeLqrMap,
    ControllerMap,
    DareError,
    LqrWeights,
    PinvMap,
    check_a1,
    dare_solve,
    identify,
    lqr_gain,
    map_from_descriptor,
)
from .sensitivity import (
    B_SOURCE_IDENTIFIED,
    B_SOURCE_TRUE,
    JacobianBundle,
    PerturbationModel,
    fd_jacobian,
    first_order_acl,
)
from .bounds import (
    BoundsReport,
    EnvelopeError,
    StabilityError,
    bauer_fike_check,
    jmax_envelope,
    theorem1_sweep,
    theorem2_rate,
    variance_params,
)
from .mc import (
    MODE_EXACT,
    MODE_FIRST_ORDER,
    MonteCarloReport,
    NoEstimateError,
    estimate_instability,
    lemma1_residual,
    random_support,
    sample_z,
    wilson_interval,
)

__version__ = "0.1.0"
