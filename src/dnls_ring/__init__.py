"""Standing waves, stability thresholds and traveling-wave bifurcation
branches of the n-site periodic discrete nonlinear Schrodinger lattice."""

from .bifurcation import (BifurcationPoint, ResonanceRecord, ResonanceReport,
                          Thresholds, amplitude_thresholds, check_nondegenerate,
                          check_nonresonant, enumerate_bifurcations)
from .continuation import (Branch, BranchPoint, ContinuationOptions,
                           ReducedSystem, continue_branch, extrapolate_onset,
                           onset_kernel, refine_point)
from .errors import (ConfigError, ConvergenceError, DegenerateAmplitudeError,
                     DnlsRingError, DomainError, ResonanceError)
from .lattice import (LatticeConfig, Potential, StandingWave, gradient,
                      hamiltonian, hessian, make_standing_wave, onsite_blocks)
from .spectral import (BlockData, StabilityVerdict, alpha_beta, block_data,
                       classify_stability, full_spectrum)
from .symmetry import (LatticeLoop, ReducedProfile, embed_reduced,
                       project_reduced)
from .verify import (Trajectory, closure_error, integrate, invariant_drift,
                     spatial_period_error, traveling_wave_error)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
