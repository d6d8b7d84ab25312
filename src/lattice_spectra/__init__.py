"""Discrete spectrum above the band of lattice Schrodinger operators on Z^2."""

from .dispersion import (DiscreteLaplacian, ExponentialHopping, PiecewisePhi,
                         SteppedPhiA, MorseData, morse_data,
                         fourier_coefficients, validate_hypothesis,
                         model_from_spec, model_to_spec)
from .torus_quad import (QuadratureSpec, IntegralResult, default_spec,
                         integrate_smooth, integrate_resolvent,
                         integrate_threshold)
from .thresholds import (NO_THRESHOLD, SectorConstants, EsConstants,
                         CouplingThresholds, ThresholdKind, gammas,
                         es_constants, coupling_thresholds,
                         classify_threshold_solutions,
                         resonance_integrability_probe)
from .determinant import (EigenvalueRecord, EsDeterminantParts, delta_rank_one,
                          delta_es, find_eigenvalue_rank_one,
                          find_eigenvalues_es, eigenfunction_es,
                          multiplicity_check)
from .spectrum import (SpectrumResult, solve, predicted_sector_counts,
                       phase_diagram, eigenvalue_curve, triple_emergence_check,
                       multiplicity_two_construct)
from .lattice_oracle import (TruncatedHamiltonian, SectorCounts, build,
                             top_eigenvalues, sector_count_above, extrapolate)
from .asymptotics import (LeadingCoefficients, FitReport, leading_coefficient,
                          leading_coefficients, fit_eigenvalue_asymptotics,
                          extract_log_coefficient)

__version__ = "0.1.0"
