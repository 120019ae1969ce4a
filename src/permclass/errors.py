"""Exception types raised across the package.

Everything derives from PermclassError so callers (notably the CLI) can
treat any domain failure uniformly.
"""


class PermclassError(ValueError):
    pass


class InvalidSequence(PermclassError):
    """Input sequence has repeated entries or is not a permutation of 1..n."""


class InvalidPointSet(PermclassError):
    """Position subset with out-of-range or repeated indices."""


class InvalidInflation(PermclassError):
    """Inflation with wrong arity or an empty part."""


class EmptyInput(PermclassError):
    """Operation undefined on the empty permutation."""


class InvalidIndex(PermclassError):
    """Family index outside its domain (e.g. even or too small)."""


class NotATree(PermclassError):
    """Graph passed to a tree algorithm is disconnected or has a cycle."""


class UseSegStatUnbounded(PermclassError):
    """k-decomposition requested with k < 2; s_1 is unbounded by definition."""


class NeedMoreTerms(PermclassError):
    """Recurrence fitting needs more sequence terms for the requested order."""


class NoRootAboveOne(PermclassError):
    """The polynomial has no real root in (1, B], B = 1 + max|c_i| (so none
    above 1): a Sturm count, not a search that found nothing."""


class Unsupported(PermclassError):
    """Operation restricted to integer-coefficient recurrences."""
