"""Shared exception types."""
import numbers


class ConfigError(ValueError):
    """Invalid task or experiment configuration."""


class ShapeError(ValueError):
    """Operands with incompatible shapes."""


class ProtocolError(RuntimeError):
    """Caller violated a call-sequence contract (wrong ids, missing state)."""


class StateError(RuntimeError):
    """Component used before it was put into a usable state."""


class DataError(ValueError):
    """Input data that cannot be processed (empty batch, corrupt record)."""


def require_counts(section: str, **counts):
    """Raise ConfigError naming every count that is not an integer >= 1 (counts
    that divide, step a range or size a batch); bools are not counts."""
    bad = {name: value for name, value in counts.items()
           if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1}
    if bad:
        raise ConfigError(f"{section}: counts must be integers >= 1, got {bad}")
