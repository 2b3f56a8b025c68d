"""Extended relativistic Toda lattice laboratory.

Evolves recurrence coefficients of L-orthogonal polynomials under the
two-parameter exponential modification of a moment functional, and verifies
the structure backing the flow: the Lax pair commutator identity,
isospectrality of the finite truncation, closed-form coefficient families,
and the unit-circle reductions (kernel chain sequences and the Schur flow).
"""

from .errors import (BufferTooSmall, DegenerateKernel, ErtlError,
                     IndexOutOfTable, InvalidSupport, NonConvergence,
                     NonConvergentIntegral, NotPositiveDefinite,
                     NotSymmetricState, PositivityLost, ReciprocalZero,
                     RegularityBreakdown, SingularDenominator, StepUnderflow)
from .measures import (MomentSpec, MomentTable, circle_kernel_spec,
                       circle_lebesgue_spec, compute_moments,
                       compute_moments_exact, discrete_spec, example1_spec,
                       example2_spec, explicit_table_spec)
from .lorth import (LPolySequence, RecurrenceCoeffs, bootstrap_recurrence,
                    stieltjes, triangle_from_coeffs)
from .lattice import (SYSTEMS, LatticeState, StepControl, Trajectory,
                      integrate, integrate_buffered, rhs_ertl, rhs_langmuir,
                      state_from_coeffs)
from .lax import (LaxPair, build_pair, commutator, hausdorff_distance,
                  isospectral_drift, lax_residual, spectra, spectrum)
from .circle import (CircleState, VerblunskySeq, cd_from_verblunsky,
                     integrate_cd, integrate_schur, kernel_coeffs,
                     map_beta_alpha_cd, map_cd_beta_alpha, rhs_cd, rhs_schur,
                     szego_values, verblunsky_from_moments)
from .oracles import ClosedFormExample, example1_coeffs, example2_coeffs

__version__ = "0.1.0"
