"""Exception types shared across the package."""


class InputError(ValueError):
    """Raised when caller-supplied data violates a documented precondition."""


class InfeasibleProgramError(InputError):
    """Raised when a certificate proves the semi-infinite program itself
    infeasible: no restriction, however small, leaves a feasible point."""


class ConfigError(ValueError):
    """Raised when an algorithm configuration is internally inconsistent."""


class CertificationError(RuntimeError):
    """Raised when a certified computation cannot reach its requested gap
    within its node budget (should not happen for declared-Lipschitz data)."""


class NumericalError(RuntimeError):
    """Raised when a numerical routine breaks down on valid input: a
    singular basis, an exhausted pivot or step budget, or a master problem
    whose rows admit no point within floating-point tolerance."""
