"""Exception types shared across the package.

The CLI maps these to exit codes: validation errors exit 2, capacity
guards exit 3, axiom failures exit 4.
"""


class MarketError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(MarketError):
    """Malformed input or a violated operation precondition.

    ``code`` is a short machine-readable category such as ``"weight-sum"``
    or ``"not-stable"``; the message carries the human-readable detail.
    """

    def __init__(self, message: str, code: str = "invalid-input"):
        super().__init__(message)
        self.code = code


class CapacityError(MarketError):
    """The instance exceeds a size guard (enumeration or the exhaustive axiom
    checks) and will not be attempted."""


class AxiomError(MarketError):
    """A preference violates substitutability or the law of aggregated demand.

    ``agent`` identifies the offender and ``witness`` is the failing
    configuration reported by the corresponding checker.
    """

    def __init__(self, message: str, agent=None, witness=None):
        super().__init__(message)
        self.agent = agent
        self.witness = witness
