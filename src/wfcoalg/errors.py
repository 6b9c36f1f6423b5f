"""Exception types shared across the package."""


class WfcoalgError(Exception):
    """Base class for all library errors."""


class CarrierMismatch(WfcoalgError):
    """An operation received objects over incompatible carriers."""


class FunctorMismatch(WfcoalgError):
    """An operation received objects over different functors."""


class MalformedValue(WfcoalgError):
    """A structured value does not match its functor shape or carrier; a
    reader's error is ``back`` tokens before the last one it took."""

    def __init__(self, message: str = "", back: int = 0):
        super().__init__(message)
        self.back = back


class CapExceeded(WfcoalgError):
    """An enumeration would exceed the configured size cap.

    Sizes are counted only up to the cap, so the message names the cap, not
    the size."""

    def __init__(self, what: str, cap: int):
        super().__init__(f"{what}: more than {cap}")
        self.what = what
        self.cap = cap


class NotAHomomorphism(WfcoalgError):
    """A map claimed to be a coalgebra homomorphism is not one."""


class NotWellFounded(WfcoalgError):
    """A well-foundedness certificate was required but does not hold."""


class IncompatibleQuotient(WfcoalgError):
    """A surjection's kernel is not a congruence; carries a witness pair."""

    def __init__(self, a, b):
        super().__init__(f"kernel pair ({a!r}, {b!r}) has unequal pushed structure")
        self.witness = (a, b)


class InternalConsistencyError(WfcoalgError):
    """Two independent computations of the same fact disagree."""
