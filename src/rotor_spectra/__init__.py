"""Spectral analysis of noisy banded rotations on a discretised cylinder.

The library assembles the Fourier-block matrices of the annealed transfer
operator for a banded rotation model with random-walk fibre noise, computes
and labels their complex eigenspectra, constructs the zero-noise limiting
basis, evaluates first/second-order eigendata response, cross-checks against
closed-form Laplacian eigendata, and detects coexisting cycles from Ulam
transition matrices.
"""

__version__ = "0.1.0"

from .config import RunConfig, case_study_config, load_config, parse_config
from .model import (AdmissibilityReport, BandModel, NoiseGenerator, build_band_model,
                    detect_bands, laplacian_generator, validate_admissibility, w_epsilon)
from .oracle import ClosedFormEigen, OracleReport, closed_form_eigendata, oracle_crosscheck
from .response import (OrderCheck, ResponseData, alpha_response, eigenvector_response,
                       order_check, projection_expansion, response_data,
                       second_order_eigenvalue)
from .simulate import (Cycle, CycleReport, TrajectoryBatch, UlamOperator, detect_cycles,
                       simulate, ulam_analytic, ulam_empirical)
from .spectra import (FourierBlock, LabelledSpectrum, assemble_fourier_block, delta_factor,
                      eig_dense_complex, gershgorin_bound, label_spectrum, spectrum)
from .zero_noise import (LimitBasis, LimitMatrix, assemble_limit_matrix, check_gamma,
                         limit_basis, limit_eigenbasis, projective_distance, projector_gap,
                         spectrum_convergence, support_mass_outside_band)

__all__ = [name for name in dir() if not name.startswith("_")]
