"""Exception types shared across the toolkit."""


class InvalidInputError(ValueError):
    """Input violates a documented precondition or invariant."""


class SolverLimitError(RuntimeError):
    """The LP solver hit an iteration or numerical limit; result unusable."""


class UnboundedThroughputError(RuntimeError):
    """Throughput maximization is unbounded (degenerate all-zero demand)."""


class InfeasibleRoutingError(RuntimeError):
    """Demand cannot be routed over the given topology (throughput 0)."""


class InternalError(RuntimeError):
    """An internal invariant that should hold by construction was violated."""
