"""Exception types, mapped to CLI exit codes by ``sda.cli``."""


class ConfigError(Exception):
    """Bad usage or configuration (exit code 1)."""


class DataError(Exception):
    """Malformed or inconsistent input data (exit code 2)."""


class NumericError(Exception):
    """Degenerate numerical input or failed convergence (exit code 3)."""
