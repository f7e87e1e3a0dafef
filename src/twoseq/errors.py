"""Error types shared across the kernel."""


class TwoseqError(Exception):
    """Base class for all kernel errors."""


class ParseError(TwoseqError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.message = message
        self.line = line
        self.col = col


class RejectedProofError(TwoseqError):
    """An input proof the kernel rejects; carries its ``CheckReport``."""

    def __init__(self, message: str, report):
        super().__init__(message)
        self.report = report


class DegreeUndefinedError(TwoseqError):
    """Raised when the degree measure is asked of a temporal formula, or the
    proof degree of a proof whose cut formula is temporal or missing."""


class BridgeError(TwoseqError):
    """A structural bridge cannot be synthesized.

    Carries the first p-formula that would have to be deleted, which no
    chain of weakening/contraction/exchange can do.
    """

    def __init__(self, missing, side: str):
        super().__init__(f"cannot bridge: {side} side would need to drop {missing}")
        self.missing = missing
        self.side = side


class TransformError(TwoseqError):
    """A proof transformation was applied outside its contract."""


class MixHypothesisError(TwoseqError):
    """The position hypothesis of the restricted mix procedure failed.

    Reported rather than silently worked around; see the notes in cutelim.
    """


class UnsupportedSystemError(TwoseqError):
    """Cut elimination requested for a system it does not cover."""


class KernelInvariantError(TwoseqError):
    """A cut-elimination measure or a kernel invariant failed, such as a
    structural bridge missing its target (checked under -O too)."""
