"""Exception hierarchy shared by every module."""

from __future__ import annotations


class LincycError(Exception):
    """Base class for all library errors."""


class NonUniformEdge(LincycError):
    def __init__(self, edge, r):
        super().__init__(f"edge {sorted(edge)} does not have exactly {r} distinct vertices")
        self.edge = tuple(edge)
        self.r = r


class VertexOutOfRange(LincycError):
    def __init__(self, vertex, n):
        super().__init__(f"vertex {vertex} outside 0..{n - 1}")
        self.vertex = vertex
        self.n = n


class DuplicatePair(LincycError):
    """Two edges share at least two vertices, breaking linearity."""

    def __init__(self, pair, first_edge_id, second_edge_id):
        super().__init__(
            f"pair {pair} appears in edges #{first_edge_id} and #{second_edge_id}"
        )
        self.pair = pair
        self.first_edge_id = first_edge_id
        self.second_edge_id = second_edge_id


class NotPartite(LincycError):
    def __init__(self, edge, detail=""):
        super().__init__(f"edge {sorted(edge)} violates the r-partition {detail}".rstrip())
        self.edge = tuple(edge)


class MalformedInput(LincycError):
    """Graph text or JSON that does not parse.  ``line`` is the 1-based number
    of the offending line, when the error has one."""

    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class InvalidWitness(LincycError):
    """A claimed path or cycle fails the intersection-pattern check.

    ``index_pair`` names the first offending pair of edge positions, when one exists.
    """

    def __init__(self, reason, index_pair=None):
        super().__init__(reason if index_pair is None else f"{reason} at positions {index_pair}")
        self.reason = reason
        self.index_pair = index_pair


class EmptyCore(LincycError):
    pass


class PreconditionFailed(LincycError):
    pass


class NotFound(LincycError):
    pass


class RetriesExhausted(LincycError):
    def __init__(self, message, attempts, best=None):
        super().__init__(f"{message} (after {attempts} attempts)")
        self.attempts = attempts
        self.best = best


class SingletonS(LincycError):
    pass


class Infeasible(LincycError):
    pass


class BudgetExceeded(LincycError):
    """Carries whatever partial result the search produced before running out."""

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class TooLarge(LincycError):
    pass


class InvariantViolation(LincycError):
    """An internal consistency check failed: a bug in lincyc, not bad input.
    Raised where an ``assert`` would be, so ``python -O`` keeps the check."""


class NotEnoughDensity(LincycError):
    """A cycle-assembly stage found fewer edges than its threshold demands."""

    def __init__(self, measured, threshold, where=""):
        super().__init__(
            f"{where or 'stage'}: {measured} edges, threshold {threshold:g}"
        )
        self.measured = measured
        self.threshold = threshold
        self.where = where


class TheoremContradictionTrace(LincycError):
    """In-regime run where no layer fired by the bounding index: this should
    be impossible, so the full growth ledger is attached as a bug signal."""

    def __init__(self, message, ledger):
        super().__init__(message)
        self.ledger = ledger
