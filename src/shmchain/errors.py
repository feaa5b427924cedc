"""Exception types shared across the package."""


class ShmChainError(Exception):
    """Base class for all errors raised by this package."""


# -- frame pool --------------------------------------------------------------

class InvalidConfig(ShmChainError):
    pass


class DuplicatePrefix(ShmChainError):
    pass


class UnknownPrefix(ShmChainError):
    """Attach attempted with a prefix no pool was created under."""


class NotPoolOwner(ShmChainError):
    """Allocation attempted through a secondary (attached) handle."""


class StaleRef(ShmChainError):
    """The frame was reallocated or released since this ref was issued."""


class DoubleFree(ShmChainError):
    pass


class OutOfBounds(ShmChainError):
    pass


# -- transports ---------------------------------------------------------------

class InvalidCapacity(ShmChainError):
    pass


class DuplicateFunction(ShmChainError):
    pass


class UnknownDestination(ShmChainError):
    """Send target unregistered, deregistered, or denied by a filter rule."""


class InboxFull(ShmChainError):
    pass


class FillRingFull(ShmChainError):
    """Recycle attempted while the fill ring had no space."""


class EndpointClosed(ShmChainError):
    pass


# -- planes -------------------------------------------------------------------

class UnknownFunction(ShmChainError):
    pass


class CycleDetected(ShmChainError):
    pass


class PlaneFrozen(ShmChainError):
    """Topology mutation attempted after the plane started."""


class PlaneUnavailable(ShmChainError):
    pass


class NoBackends(ShmChainError):
    pass


# -- HTTP broker ----------------------------------------------------------------

class ParseError(ShmChainError):
    pass


# -- audit ----------------------------------------------------------------------

class UnknownModel(ShmChainError):
    pass


class IncompleteTrace(ShmChainError):
    pass


# -- classifier -------------------------------------------------------------------

class DuplicatePriority(ShmChainError):
    pass


# -- chain spec ---------------------------------------------------------------------

class SpecSyntaxError(ShmChainError):
    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}:{column}: {message}")
        self.line = line
        self.column = column


class UnresolvedReference(ShmChainError):
    pass


# -- bench ---------------------------------------------------------------------------

class InvalidTolerance(ShmChainError):
    pass


class NeverLossFree(ShmChainError):
    pass


class InvalidSampleCount(ShmChainError):
    pass


class UnsupportedPlatform(ShmChainError):
    pass
