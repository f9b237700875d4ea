"""Exception types shared across the package."""

from __future__ import annotations


class CombcertError(Exception):
    """Base class for all errors raised by this package."""


class UnknownVertexError(CombcertError):
    """A vertex label or id does not belong to the instance."""


class UnknownEdgeError(CombcertError):
    """An edge references vertices that are not joined in the instance."""


class EnumerationCapError(CombcertError):
    """An exhaustive enumeration was refused because it exceeds the cap."""

    def __init__(self, what: str, requested: int, cap: int):
        super().__init__(
            f"{what}: size {requested} exceeds the enumeration cap {cap}"
        )
        self.requested = requested
        self.cap = cap


class InvalidCombError(CombcertError):
    """A comb fails one or more structural rules."""

    def __init__(self, violations: tuple[str, ...]):
        super().__init__("; ".join(violations))
        self.violations = violations


class HypothesisNotMetError(CombcertError):
    """A certificate builder was asked to run outside its hypothesis class."""


class CertificateInvariantError(CombcertError):
    """An internal certificate invariant failed (supposedly unreachable)."""


class NoToursError(CombcertError):
    """The instance admits no Hamiltonian tour."""


class FormatError(CombcertError):
    """A JSON document is malformed, or a file cannot be read or written;
    `field` names the offending entry or option."""

    def __init__(self, field: str, reason: str):
        super().__init__(f"{field}: {reason}")
        self.field = field
        self.reason = reason
