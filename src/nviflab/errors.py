"""Shared exception types."""


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
    """Raise ConfigError naming every count below 1 (counts that divide,
    step a range or size a batch)."""
    bad = {name: value for name, value in counts.items() if value < 1}
    if bad:
        raise ConfigError(f"{section}: counts must be >= 1, got {bad}")
