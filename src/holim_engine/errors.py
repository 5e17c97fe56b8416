"""Exception hierarchy for the engine.

Every structural rejection gets its own class so callers (and the CLI)
can distinguish malformed input (exit 1) from a failed verification
verdict (exit 2, reported, never raised).
"""


class EngineError(Exception):
    """Base class for all engine errors."""


# --- fincat ---------------------------------------------------------------

class CategoryError(EngineError):
    pass


class IdentityViolation(CategoryError):
    pass


class AssociativityViolation(CategoryError):
    pass


class CompositionDomainError(CategoryError):
    pass


class UnknownObject(CategoryError):
    pass


class DuplicateLabel(CategoryError):
    pass


class FunctorError(EngineError):
    pass


# --- chaincx --------------------------------------------------------------

class ChainError(EngineError):
    pass


class DSquareNonzero(ChainError):
    def __init__(self, degree, message=None):
        self.degree = degree
        super().__init__(message or f"d o d != 0 at degree {degree}")


class ChainRuleViolation(ChainError):
    def __init__(self, degree, message=None):
        self.degree = degree
        super().__init__(message or f"map does not commute with d at degree {degree}")


class TotalDSquareNonzero(ChainError):
    pass


class ShapeMismatch(EngineError):
    pass


# --- ssets ----------------------------------------------------------------

class SimplicialError(EngineError):
    pass


class NotLoopFree(EngineError):
    pass


class EmptyComplex(SimplicialError):
    pass


# --- endkan ---------------------------------------------------------------

class DiagramError(EngineError):
    pass


# --- holim ----------------------------------------------------------------

class DepthExceeded(EngineError):
    pass


class WeightRejected(EngineError):
    pass


class NotComponentwiseWE(EngineError):
    pass


class TruncationTooShallow(EngineError):
    def __init__(self, degree, stable_from, message=None):
        self.degree = degree
        self.stable_from = stable_from
        super().__init__(
            message
            or f"degree {degree} below the truncation-stable range [{stable_from}, inf)"
        )


# --- dsl / cli ------------------------------------------------------------

class ParseError(EngineError):
    def __init__(self, message, line=None, col=None):
        self.line = line
        self.col = col
        loc = f" at line {line}" if line is not None else ""
        if col is not None:
            loc += f", column {col}"
        super().__init__(f"{message}{loc}")


class UnknownBinding(EngineError):
    pass


class TypeMismatch(EngineError):
    pass
