"""Exception types shared across the package.

Everything raised on purpose derives from :class:`SooboxError`, so callers
can catch one base class at a process boundary and map it to an exit code.
"""


class SooboxError(Exception):
    """Base class for all deliberate library errors."""


class InvalidBounds(SooboxError):
    """Search-space bounds are reversed, degenerate, or non-finite."""


class BudgetExhausted(SooboxError):
    """An evaluation was requested beyond the remaining evaluation budget."""


class OutOfBounds(SooboxError):
    """A point outside the objective's box was submitted for evaluation."""


class NotALeaf(SooboxError):
    """A split was requested on a cell that has already been split."""


class ObjectiveDegenerate(SooboxError):
    """Every evaluated point returned a non-finite value."""


class UnknownFunction(SooboxError, ValueError):
    """A benchmark function name is not part of the suite (a bad argument)."""


class BadDimension(SooboxError, ValueError):
    """The requested dimension is invalid for the chosen function (a bad argument)."""


class UnpulledArm(SooboxError):
    """An index policy was queried while some arm has no observations."""
