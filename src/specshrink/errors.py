"""Exception hierarchy for specshrink.

Every structured failure raised by the library derives from
:class:`SpecshrinkError`, so callers can catch one type at the boundary.
Input-validation failures raise the most specific subclass available.
"""


class SpecshrinkError(Exception):
    """Base class for all specshrink errors."""


# ---------------------------------------------------------------------------
# matrix-core
# ---------------------------------------------------------------------------

class NumericalFailure(SpecshrinkError):
    """An underlying numerical routine (eigensolver, SVD) did not converge."""


class EmptySpectrum(SpecshrinkError):
    """A spectrum argument was empty where a nonempty one is required."""


class SizeMismatch(SpecshrinkError):
    """Two multisets or polynomials have different sizes/degrees."""


class DimensionMismatch(SpecshrinkError):
    """Matrix or subspace dimensions are incompatible."""


class Singular(SpecshrinkError):
    """A matrix required to be invertible is numerically singular."""


# ---------------------------------------------------------------------------
# spaces
# ---------------------------------------------------------------------------

class UnsupportedDimension(SpecshrinkError):
    """The requested dimension is outside the supported range."""


class SingularConjugator(SpecshrinkError):
    """A conjugating matrix is numerically singular."""


# ---------------------------------------------------------------------------
# shrinker checks
# ---------------------------------------------------------------------------

class OracleFailure(SpecshrinkError):
    """A user-supplied map raised while being evaluated on a sample."""


class NotHermitian(SpecshrinkError):
    """Input is not Hermitian within tolerance."""


class NotUnitary(SpecshrinkError):
    """Input is not unitary within tolerance."""


class NotSpecialUnitary(SpecshrinkError):
    """Input is not special unitary (unitary with determinant 1) within tolerance."""


# ---------------------------------------------------------------------------
# eigenvalue selection
# ---------------------------------------------------------------------------

class RepresentativeNotFound(SpecshrinkError):
    """The fundamental-domain representative could not be constructed.

    Mathematically the representative exists and is unique, so this error
    signals a numerical failure (e.g. the determinant drifted off 1).
    """


class LambdaInSpectrum(SpecshrinkError):
    """The branch point lies in (or too close to) the spectrum."""


class AmbiguousContinuation(SpecshrinkError):
    """Nearest-eigenvalue continuation hit a tie; refusing to guess."""


# ---------------------------------------------------------------------------
# configuration space
# ---------------------------------------------------------------------------

class DegeneratePoints(SpecshrinkError):
    """Circle points coincide within tolerance; the configuration is invalid."""


# ---------------------------------------------------------------------------
# semisimple functional calculus
# ---------------------------------------------------------------------------

class NotSemisimple(SpecshrinkError):
    """The matrix is not semisimple under the condition-number surrogate."""


class AmbiguousClustering(SpecshrinkError):
    """Eigenvalue gap structure violates the cluster-separation precondition."""


class EqualEigenvalues(SpecshrinkError):
    """The 2x2 closed form requires distinct eigenvalues."""


# ---------------------------------------------------------------------------
# theta map
# ---------------------------------------------------------------------------

class WellDefinednessDegraded(SpecshrinkError):
    """Eigenvector conditioning is too poor for a trustworthy decomposition."""


# ---------------------------------------------------------------------------
# preserver reconstruction
# ---------------------------------------------------------------------------

class DimensionDrift(SpecshrinkError):
    """The subspace map changed a dimension; the oracle violates its hypotheses."""


class BranchAmbiguous(SpecshrinkError):
    """The probe line matches neither (or both) of the linear/conjugate-linear candidates."""


class ResidualTooLarge(SpecshrinkError):
    """Validation residual exceeds the declared tolerance.

    Carries the measured residual in :attr:`residual`.
    """

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class EigenvalueCollision(SpecshrinkError):
    """Eigenvalue matching stayed ambiguous after the retry budget."""
