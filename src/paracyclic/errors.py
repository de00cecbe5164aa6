"""Exception hierarchy shared by all modules.

Every domain error raised by this package derives from PackageError, so
callers (and the CLI) can distinguish modelling errors from genuine bugs.
"""


class PackageError(Exception):
    """Base class for all domain errors raised by this package."""


# -- extended reals ----------------------------------------------------------

class UndefinedExtOp(PackageError):
    """An excluded pair was fed to extended-real addition or subtraction."""


# -- categories and maps -----------------------------------------------------

class TypeMismatch(PackageError):
    """Source/target objects of two maps do not line up for composition."""


class NotMonotone(PackageError):
    """Raw map data fails weak monotonicity (or the period wrap constraint)."""


class NotEssentiallySurjective(PackageError):
    """A preorder map whose induced map on equivalence classes is not onto."""


class MalformedInput(PackageError, ValueError):
    """Text or JSON input that does not describe an object of the package."""


class ResourceBound(PackageError):
    """An enumeration would exceed the configured cap, or an input exceeds a
    bound under which the computation is exact."""


class BaseMismatch(PackageError):
    """Objects built over different bases were combined."""


# -- corner spaces -----------------------------------------------------------

class NoInfinityGap(PackageError):
    """A gap vector with no infinite gap in its period."""


class InfiniteGapInsideClass(PackageError):
    """An infinite gap between two elements of the same preorder class."""


class NotAnArrow(PackageError):
    """A cocycle was evaluated on a pair (i, j) with i not below j."""


class UndefinedAtFixedDiagonal(PackageError):
    """Translation distance asked for a fixed fiber point against itself."""


# -- sheaves and representations ---------------------------------------------

class DimensionMismatch(PackageError):
    """A matrix whose shape does not match the declared dimensions."""


class NotFunctorial(PackageError):
    """Structure maps that fail path independence or a composition law."""


class NotUpwardClosed(PackageError):
    """A stratum subset that is not upward closed in the stratifying poset."""


class TruncationExceeded(PackageError):
    """A representation was evaluated outside its truncation bound."""


class IncompleteSystem(PackageError):
    """A sheaf system, or a representation, missing data that is needed."""


# -- filtered complexes ------------------------------------------------------

class IndexOutOfRange(PackageError):
    """A face or degeneracy index outside 0..n."""


class NotAComplex(PackageError):
    """Differentials that do not square to zero."""
