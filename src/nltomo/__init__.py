"""Tomogram-based nonclassicality quantifiers for nonlinear optical media.

The package simulates single-mode bosonic states (coherent,
photon-added, even coherent) evolving in Kerr or cubic nonlinear media
under zero-temperature amplitude or phase damping, computes optical
tomograms, and tracks two nonclassicality quantifiers along the
evolution: the nonclassical area of the quadrature spread and the sum
of tomographic entropies in conjugate quadratures.
"""

from .config import ExperimentConfig, Product, config_from_file, config_from_text
from .errors import NltomoError, NumericalInvariantError, ValidationError
from .evolve import (
    DampingChannel,
    DampingSpec,
    MediumKind,
    MediumSpec,
    TimeGrid,
    coherence_block_solve,
    integrate_master,
    propagate_phase_damping,
    propagate_unitary,
    revival_time,
)
from .quantifiers import (
    ENTROPY_BOUND,
    QuantifierRecord,
    entropy_sum,
    find_local_minima,
    nonclassical_area,
    tomographic_entropy,
)
from .runner import convergence_sweep, oracle_report, run_experiment
from .presets import preset_names, run_preset
from .states import (
    DensityMatrix,
    FockVector,
    InitialStateSpec,
    StateKind,
    build_state,
    density_from_pure,
    ladder_expectations,
)
from .tomography import QuadratureGrid, Tomogram, tomogram_of_density

__version__ = "0.1.0"

__all__ = [
    "DampingChannel",
    "DampingSpec",
    "DensityMatrix",
    "ENTROPY_BOUND",
    "ExperimentConfig",
    "FockVector",
    "InitialStateSpec",
    "MediumKind",
    "MediumSpec",
    "NltomoError",
    "NumericalInvariantError",
    "Product",
    "QuadratureGrid",
    "QuantifierRecord",
    "StateKind",
    "TimeGrid",
    "Tomogram",
    "ValidationError",
    "build_state",
    "coherence_block_solve",
    "config_from_file",
    "config_from_text",
    "convergence_sweep",
    "density_from_pure",
    "entropy_sum",
    "find_local_minima",
    "integrate_master",
    "ladder_expectations",
    "nonclassical_area",
    "oracle_report",
    "preset_names",
    "propagate_phase_damping",
    "propagate_unitary",
    "revival_time",
    "run_experiment",
    "run_preset",
    "tomogram_of_density",
    "tomographic_entropy",
    "__version__",
]
