"""Exception hierarchy shared by the library and the CLI.

Each error class carries a short category tag and the process exit code the
CLI maps it to. Library code raises these directly; the CLI formats them as
``error[<category>]: <message>`` on stderr.
"""

import numpy as np


class QmlpError(Exception):
    category = "error"
    exit_code = 1


class ConfigurationError(QmlpError):
    """Bad architecture id, activation name, hyperparameter, or split setup."""

    category = "config"
    exit_code = 2


class DataError(QmlpError):
    """Unparseable or non-finite input data (bad cell, unknown category)."""

    category = "data"
    exit_code = 3


class FormatError(QmlpError):
    """Malformed file: wrong magic, version, column count, or truncation."""

    category = "format"
    exit_code = 3

    def __init__(self, message, offset=None):
        if offset is not None:
            message = f"{message} (at byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class InvariantError(QmlpError):
    """Internal contract violated: shape/params mismatch between components."""

    category = "invariant"
    exit_code = 4


def _integer(value, lo, hi, what, error):
    """The integer rule: an exact int (so not a bool) or a numpy integer in [lo, hi] (``hi``
    None: unbounded), as an int; else ``error`` names ``what``. Type tests: ABCs cost 4x."""
    integer = type(value) is int or isinstance(value, np.integer)
    if integer and lo <= value and (hi is None or value <= hi):
        return int(value)
    bound = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
    raise error(f"{what} must be an integer {bound}, got {value!r}")
