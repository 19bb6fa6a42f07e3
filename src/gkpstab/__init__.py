"""Gaussian simulation of GKP-stabilizer oscillator codes.

Encoding circuits are symplectic transforms, decoding is modular
measurement plus linear estimation, and the resulting logical noise is
available both in closed form and from seeded Monte Carlo.
"""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .analytic import (
    MixturePdf,
    cell_masses,
    gaussian_pdf,
    gkp_repetition_pdfs,
    gkp_repetition_stds,
    tms_asymptotic_optimum,
    tms_mixture,
    tms_variance,
    tms_variance_erfc_approx,
    tms_variance_noisy_gkp,
)
from .checks import CheckResult, run_all_checks
from .codes import (
    CodeSpec,
    gaussian_repetition,
    gkp_repetition,
    gkp_squeezed_repetition,
    gkp_tms,
    gkp_tms_pair,
    logical_gate,
)
from .decoders import DecodeOutcome, Decoder, Read
from .modular import MODULAR_PERIOD, centered_mod, modular_measure
from .montecarlo import ComparisonReport, TrialReport, compare, run
from .noise import (
    IidNoiseModel,
    NoiseCovariance,
    gkp_db_from_sigma,
    gkp_sigma_from_db,
    gkp_sigma_from_delta,
    iid_covariance,
    loss_to_sigma,
    propagate_covariance,
    reshape_noise,
    sample_iid,
    stream_rng,
)
from .tuning import (
    GainOptimum,
    critical_gkp_squeezing_db,
    optimize,
    squeeze_db_from_gain,
    threshold_sigma,
)
from .symplectic import (
    SymplecticTransform,
    apply,
    beam_splitter,
    compose,
    direct_sum,
    identity,
    inverse,
    is_symplectic,
    omega,
    single_mode_squeeze,
    sum_gate,
    two_mode_squeeze,
)

# every public name imported above; the submodules themselves are not
__all__ = ["__version__"] + [
    name
    for name, value in list(globals().items())
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
