"""Exception hierarchy shared by all toricsegre modules.

Every error carries a stable ``code`` string so the CLI can map failures to
machine-readable diagnostics and exit codes.
"""


class ToricSegreError(Exception):
    code = "E_INTERNAL"

    def __init__(self, message="", **details):
        super().__init__(message or self.__doc__ or self.code)
        self.details = details


# --- polynomial ring -------------------------------------------------------

class NotHomogeneous(ToricSegreError):
    """A polynomial has terms of different multidegrees."""
    code = "E_NOT_HOMOGENEOUS"

    def __init__(self, message="", degree_a=None, degree_b=None):
        super().__init__(message, degree_a=degree_a, degree_b=degree_b)
        self.degree_a = degree_a
        self.degree_b = degree_b


class ZeroPolynomial(ToricSegreError):
    """The zero polynomial has no multidegree."""
    code = "E_ZERO_POLYNOMIAL"


class EmptyDegree(ToricSegreError):
    """No monomials exist in the requested multidegree."""
    code = "E_EMPTY_DEGREE"


# --- Groebner engine -------------------------------------------------------

class NotZeroDimensional(ToricSegreError):
    """The quotient ring is not finite-dimensional as a vector space."""
    code = "E_NOT_ZERO_DIMENSIONAL"


# --- fan -------------------------------------------------------------------

class NotSmooth(ToricSegreError):
    """A maximal cone is not unimodular."""
    code = "E_FAN_NOT_SMOOTH"


class NotComplete(ToricSegreError):
    """The fan does not cover the ambient space."""
    code = "E_FAN_NOT_COMPLETE"


class InvalidFan(ToricSegreError):
    """The fan data is malformed (non-primitive rays, bad cone indices...)."""
    code = "E_FAN_INVALID"


class InvalidGrading(ToricSegreError):
    """A user-supplied degree matrix is not a valid cokernel map."""
    code = "E_INVALID_GRADING"


# --- Chow ring -------------------------------------------------------------

class RankMismatch(ToricSegreError):
    """Computed graded ranks disagree with the combinatorial formula."""
    code = "E_CHOW_RANK_MISMATCH"


class NonIntegerCoefficient(ToricSegreError):
    """A normal form would need a non-integer coefficient: a lead
    coefficient does not divide the coefficient it has to cancel."""
    code = "E_CHOW_NON_INTEGER"


class NormalizationInconsistent(ToricSegreError):
    """A candidate Chow presentation has a non-monic lead, or two maximal
    cones disagree on the degree normalization."""
    code = "E_CHOW_NORMALIZATION"


class CodimOverflow(ToricSegreError):
    """A product landed in codimension above the ambient dimension."""
    code = "E_CODIM_OVERFLOW"


# --- cones -----------------------------------------------------------------

class NotProjective(ToricSegreError):
    """No ample class exists; the variety is not projective."""
    code = "E_NOT_PROJECTIVE"


# --- segre pipeline --------------------------------------------------------

class EmptySubscheme(ToricSegreError):
    """The ideal is the unit ideal on every affine chart: the subscheme is
    empty."""
    code = "E_EMPTY_SUBSCHEME"


class WholeSpace(ToricSegreError):
    """The ideal is zero or cuts out a subscheme of full dimension: the
    subscheme is all of X."""
    code = "E_WHOLE_SPACE"


class DimensionFailure(ToricSegreError):
    """A residual scheme has the wrong dimension (bad randomness draw)."""
    code = "E_DIMENSION_FAILURE"


class InconsistentSystem(ToricSegreError):
    """The overdetermined linear system for a residual class is inconsistent."""
    code = "E_INCONSISTENT_SYSTEM"


class NonIntegerSolution(ToricSegreError):
    """A residual class solved to non-integer coefficients."""
    code = "E_NON_INTEGER_SOLUTION"


class RetriesExhausted(ToricSegreError):
    """All resampling attempts failed."""
    code = "E_RETRIES_EXHAUSTED"


# --- CLI -------------------------------------------------------------------

class ParseError(ToricSegreError):
    """Syntax error in an input document or polynomial string."""
    code = "E_PARSE"

    def __init__(self, message="", offset=None):
        super().__init__(message, offset=offset)
        self.offset = offset


class InputError(ToricSegreError):
    """Structurally invalid input document."""
    code = "E_INPUT"


class TooLarge(ToricSegreError):
    """An input would build an object past a documented size limit."""
    code = "E_TOO_LARGE"
