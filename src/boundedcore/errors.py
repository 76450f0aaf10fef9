"""Exception hierarchy.

Everything user input can trigger derives from :class:`ValidationError`
(CLI exit code 1).  :class:`InternalInconsistency` marks a disagreement
between two independent computation routes that should agree by theorem
(CLI exit code 2) and is never caught internally.
"""


class BoundedCoreError(Exception):
    pass


class ValidationError(BoundedCoreError):
    pass


class DocumentError(ValidationError):
    """Malformed input document (bad JSON shape, floats, bad keys)."""


class MissingEmptySet(ValidationError):
    pass


class MissingGrandCoalition(ValidationError):
    pass


class DuplicateSet(ValidationError):
    pass


class PlayerOutOfRange(ValidationError):
    pass


class UniverseTooLarge(ValidationError):
    pass


class NotAPartialOrder(ValidationError):
    pass


class NotClosed(ValidationError):
    pass


class HeightDeficient(ValidationError):
    """Closed system with fewer than n join-irreducible sets.

    Such systems make some players indistinguishable inside every feasible
    coalition; callers must regroup players themselves before retrying.
    """


class DimensionMismatch(ValidationError):
    pass


class NotRegular(ValidationError):
    pass


class NotWeaklyUnionClosed(ValidationError):
    pass


class SetNotFeasible(ValidationError):
    pass


class NoFeasibleLift(ValidationError):
    pass


class ChainNotRegularSteps(ValidationError):
    pass


class CollectionNotNested(ValidationError):
    pass


class NoRestrictedChain(ValidationError):
    pass


class WorkBudgetExceeded(ValidationError):
    """An enumeration whose output would exceed its work budget."""


class InternalInconsistency(BoundedCoreError):
    pass
