"""Exception types shared across the package."""


class DriftworldError(Exception):
    """Base class for all package errors."""


class ConfigError(DriftworldError):
    """A configuration value violates a documented invariant."""


class ContractViolation(DriftworldError):
    """A caller broke an operation's precondition."""


class ProtocolError(DriftworldError):
    """An agent sent a message that does not conform to the wire schema."""


class InsufficientDataError(DriftworldError):
    """Not enough samples to compute the requested statistic."""


class WorkerLost(DriftworldError):
    """A worker process ended before it returned its results."""
