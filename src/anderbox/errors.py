"""Exception types shared across the package."""


class ContractError(ValueError):
    """An operation was called with arguments violating its contract
    (box/parity mismatch, rank-deficient subspace, subbox escaping its
    parent, ...)."""


class AliasingError(ContractError):
    """A grid is too coarse to represent the requested band limit."""


class CapacityError(ContractError):
    """A dense operator was requested above the dense size cap without
    explicit opt-in."""


class ConvergenceError(RuntimeError):
    """An iterative solver failed to converge; carries a residual report."""

    def __init__(self, message, residuals=None):
        super().__init__(message)
        self.residuals = residuals
