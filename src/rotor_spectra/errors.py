"""Exception hierarchy.

Every library-raised error derives from :class:`RotorSpectraError`; the CLI
maps :class:`ConfigError` to exit code 2 and everything else to exit code 1.
"""


class RotorSpectraError(Exception):
    """Base class for all library errors."""


class ConfigError(RotorSpectraError):
    """Malformed run configuration (bad file, schema, or parameter range)."""


# --- model ---

class DuplicateSpeed(RotorSpectraError):
    """Two band speeds compare exactly equal."""


class EmptyBand(RotorSpectraError):
    """A band width is not a positive integer, a model has no band, or the
    widths are too large for numpy to lay the fibres out."""


class DimensionTooSmall(RotorSpectraError):
    """Generator stencil needs at least two fibres."""


class InvalidMatrix(RotorSpectraError, ValueError):
    """A generator or eigensolver matrix is not square, nonempty and finite."""


class InvalidSpeeds(RotorSpectraError, ValueError):
    """A band speed is not a finite real number, or a direction of speeds is not finite."""


class DimensionMismatch(RotorSpectraError, ValueError):
    """Sizes that must agree differ: speeds and widths, generator and model,
    direction, the two vectors of a distance; or a label is not an integer in
    [0, N)."""


class EpsOutOfRange(RotorSpectraError):
    """eps is not a finite nonnegative number, or Id + eps*Wdot leaves [0, 1] entrywise."""


# --- spectra ---

class NoConvergence(RotorSpectraError):
    """Eigensolver failed or residuals exceed tolerance.

    Carries whatever partial results exist in the ``partial`` attribute.
    """

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class AmbiguousLabelling(RotorSpectraError):
    """Assignment cost exceeds the Gershgorin radius with disjoint band disks.

    Only a generator outside validate's stochastic item (a zero diagonal, say)
    can raise it; see :func:`rotor_spectra.spectra.label_spectrum`.
    """


# --- zero_noise ---

class DegenerateBlock(RotorSpectraError):
    """The band blocks of the noise generator do not have simple spectra."""


class ZeroVector(RotorSpectraError):
    """The line through a zero vector is undefined, and so are its projective
    distance and projector gap."""


class GammaViolated(RotorSpectraError):
    """Band phases coincide at this Fourier index; the limit theory does not apply."""


# --- response ---

class EigsNotSimple(RotorSpectraError):
    """Eigenvalues are not pairwise distinct at the requested tolerance."""


class EpsZero(RotorSpectraError):
    """Speed response at eps = 0 is discontinuous and refused by design."""


class InvalidEpsGrid(RotorSpectraError, ValueError):
    """An order-check or convergence eps grid is too short, non-positive or above eps_max."""


# --- oracle ---

class NotLaplacian(RotorSpectraError):
    """Closed forms only exist for the central-difference Laplacian generator."""


class MismatchBeyondTolerance(RotorSpectraError):
    """Closed-form and numerical eigendata disagree beyond tolerance."""


# --- simulate ---

class InvalidSimulationInput(RotorSpectraError, ValueError):
    """Bins or top_m not an integer >= 2 or >= 1, counts not integers >= 0, a bad delta;
    a batch that ulam_empirical cannot count: fibres, positions or shapes
    out of range, or N^2 M step keys beyond int32; or an Ulam operator that is
    not one kind with its model's shapes."""


class InsufficientData(RotorSpectraError):
    """Too many empty rows in the empirical transition estimate."""


class NoComplexEigenvalues(RotorSpectraError):
    """Spectrum is numerically real; no cycle to report."""
