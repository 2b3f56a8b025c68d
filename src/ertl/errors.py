"""Exception types shared across the package.

Numerical breakdowns are *detected* conditions, never silent NaN: a vanishing
recurrence denominator, a failed regularity condition or a non-convergent
quadrature each raise a dedicated error carrying the level/site where the
problem occurred.
"""


class ErtlError(Exception):
    """Base class for all package errors."""


class InvalidSupport(ErtlError):
    """The modification does not damp the weight at 0 and at infinity, so the moments diverge."""


class NonConvergentIntegral(ErtlError):
    """Quadrature failed to reach the requested tolerance within budget."""


class IndexOutOfTable(ErtlError, KeyError):
    """A moment of order outside the computed table was requested."""


class RegularityBreakdown(ErtlError):
    """A sigma value fell below the scale-aware threshold at level ``n``.

    Signals failure of one of the two determinant conditions that guarantee
    existence of the next L-orthogonal polynomial and its nonzero value at 0.
    ``which`` names the sigma that vanished: ``"condition_a"`` for
    sigma_{n,-1} = L[x^(-n-1) Q_n], ``"condition_b"`` for sigma_{n,n} = L[Q_n].
    """

    def __init__(self, n, which, value=None):
        self.n = n
        self.which = which
        self.value = value
        super().__init__(f"regularity breakdown at level {n} ({which}): sigma={value!r}")


class SingularDenominator(ErtlError):
    """|beta_n| fell below the singularity threshold at site ``n``."""

    def __init__(self, n, value=None, t=None, t_bracket=None):
        self.n = n
        self.value = value
        self.t = t
        self.t_bracket = t_bracket
        loc = f" near t in {t_bracket}" if t_bracket is not None else (f" at t={t}" if t is not None else "")
        super().__init__(f"singular denominator: |beta_{n}| too small{loc}")


class StepUnderflow(ErtlError):
    """Adaptive step size fell below the hard floor."""


class PositivityLost(ErtlError):
    """A coefficient left its admissible range (positive cone, |a_n| < 1) during integration.

    ``n`` is the site, ``modulus`` the offending |a_n| of the Schur flow and
    ``t`` the time at which the integrator saw it, each when known.
    """

    def __init__(self, message, n=None, modulus=None, t=None):
        self.n = n
        self.modulus = modulus
        self.t = t
        super().__init__(message)


class NotSymmetricState(ErtlError):
    """State does not lie on the symmetric manifold beta_n = sqrt(q)."""


class NonConvergence(ErtlError):
    """Root iteration exhausted its budget without converging."""


class NotPositiveDefinite(ErtlError):
    """Toeplitz moment data is not positive definite at level ``n``."""

    def __init__(self, n, modulus=None):
        self.n = n
        self.modulus = modulus
        super().__init__(f"implied reflection coefficient has |a_{n}| >= 1 (got {modulus!r})")


class ReciprocalZero(ErtlError):
    """Reciprocal polynomial vanished at the kernel point (degenerate measure)."""

    def __init__(self, n):
        self.n = n
        super().__init__(f"reciprocal polynomial value is zero at level {n}")


class DegenerateKernel(ErtlError):
    """The kernel parametrization denominator 1 - Re(rho*a) is numerically zero."""

    def __init__(self, n):
        self.n = n
        super().__init__(f"degenerate kernel parametrization at index {n}")


class BufferTooSmall(ErtlError):
    """Buffered truncation disagreed with its largest check window."""
