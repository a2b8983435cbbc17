"""Quantum and noncontextual bounds for two-state discrimination, and
semi-device-independent certification of maximum confidence from rates."""

from .certify import (
    CertReport,
    DualCertificate,
    GeneralCertificate,
    OutcomeRates,
    WeightVector,
    certify_general,
    certify_qubit,
    delta_gap,
    verify_kkt,
)
from .ensembles import (
    DensityMatrix,
    Ensemble,
    PairSpec,
    average_state,
    confusability,
    depolarize,
    ensemble_from_json,
    ensemble_to_json,
    make_noisy_pair,
    make_pure_pair,
    matrix_from_json,
    matrix_to_json,
    mirror_state,
    pure_state,
)
from .errors import (
    DegenerateEnsembleError,
    DimensionMismatchError,
    InfeasibleRateError,
    InvalidNoiseError,
    InvalidSpecError,
    McdiscError,
    NonHermitianError,
    NotPsdError,
    NotPureError,
    NumericalError,
    OutOfRangeError,
    WrongArityError,
    WrongRegionError,
    ZeroConfusabilityError,
    ZeroRateError,
)
from .ncmodel import (
    OnticModel,
    ResponseFunction,
    build_model,
    ensemble_weights,
    nc_achievability_search,
    nc_certified,
    nc_confidence,
    noisy_epistemic,
    prob,
    sharp,
)
from .oracle import SearchConfig, brute_confidence, brute_guess, brute_ud
from .qmath import (
    bloch_op,
    bloch_vector,
    dagger,
    eig_hermitian,
    inv_sqrt,
    is_hermitian,
    min_eig,
    op_norm,
    psd_floor,
    trace_norm,
)
from .simulator import (
    ExperimentSpec,
    Tally,
    TallyCertification,
    certify_from_tally,
    run,
    tally_from_json,
    tally_to_json,
    wilson_interval,
)
from .strategies import (
    BoundResult,
    Povm,
    confidence_of,
    guess_nc,
    helstrom,
    mcm_noncontextual,
    mcm_quantum,
    mcm_quantum_general,
    povm_from_json,
    povm_to_json,
    ud_noncontextual,
    ud_quantum,
)

__version__ = "0.1.0"
