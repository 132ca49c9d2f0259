"""Exception types shared across the package, its one check per quantity,
and its one config reader.

The checks decide what a valid level, positive real, real >= 1, squared
threshold, finite real, integer count or finite array is, for every
module.  Each scalar check compares first, so nan, an infinity and a
Python int beyond the float range all fail the comparison, and each
raises ParameterError naming the value, formatted only then.  A count
must pass operator.index and not be a bool, so 2.0 and True are not
counts.  The array checks test every element of a float array.  The
config reader reads a config object as the parameters of what it builds.
"""

import inspect
import math
import operator
import sys
from functools import cache

import numpy as np

__all__ = ["ParameterError", "LevelError", "ConfigError"]


class ParameterError(ValueError):
    """An argument is outside the admissible domain of an operation."""


class LevelError(ParameterError):
    """A requested error-rate level is not attainable.

    Carries the attainable supremum so callers that want to clamp can do so
    deliberately instead of guessing.
    """

    def __init__(self, message: str, supremum: float | None = None):
        super().__init__(message)
        self.supremum = supremum


class ConfigError(ParameterError):
    """Config-schema violation; message carries the offending field path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


_MAX = sys.float_info.max


def _level(value, name: str = "alpha") -> float:
    """value as a float, checked to lie in (0,1)."""
    if 0.0 < value < 1.0:
        return float(value)
    raise ParameterError(f"{name} must lie in (0,1), got {value!r}")


def _positive(value, name: str) -> float:
    """value as a float, checked to be a finite real > 0."""
    if 0.0 < value <= _MAX:
        return float(value)
    raise ParameterError(f"{name} must be a finite positive real, got {value!r}")


def _at_least_one(value, name: str = "m") -> float:
    """value as a float, checked to be a finite real >= 1."""
    if 1.0 <= value <= _MAX:
        return float(value)
    raise ParameterError(f"{name} must be >= 1, got {value!r}")


def _c_sq(value, name: str = "c_sq") -> float:
    """value as a float, checked to be a squared threshold: a real >= 0,
    or +inf for "reject nothing"."""
    if 0.0 <= value <= _MAX or value == math.inf:
        return float(value)
    raise ParameterError(f"{name} must be >= 0, got {value!r}")


def _c_sq_array(value) -> np.ndarray:
    """value as a float array of squared thresholds (+inf allowed)."""
    arr = np.asarray(value, dtype=float)
    if not np.all(arr >= 0.0):  # nan fails the comparison
        raise ParameterError("c_sq must be >= 0")
    return arr


def _finite(value, name: str) -> float:
    """value as a float, checked to be a finite real."""
    if -_MAX <= value <= _MAX:
        return float(value)
    raise ParameterError(f"{name} must be finite, got {value!r}")


def _finite_array(value, name: str) -> np.ndarray:
    """value as a float array, checked to hold only finite reals."""
    arr = np.asarray(value, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ParameterError(f"{name} must be finite")
    return arr


def _count(value, name: str, least: int = 0) -> int:
    """value as an int, checked to be a Python or numpy integer >= least."""
    if type(value) is not bool:  # bool cannot be subclassed
        try:
            count = operator.index(value)
        except TypeError:
            pass
        else:
            if count >= least:
                return count
    raise ParameterError(f"{name} must be an integer >= {least}, got {value!r}")


def _reject_unknown(cfg: dict, allowed, prefix: str = "") -> None:
    extra = sorted(cfg.keys() - allowed)
    if extra:
        raise ConfigError(f"{prefix}{extra[0]}", "unknown field")


# What a field of each type must be (bool is never a number), and its name.
_FIELD_TYPES = {
    float: ((int, float), "a number"),
    int: (int, "an integer"),
    str: (str, "a string"),
    dict: (dict, "an object"),
}


def _field(cfg: dict, key: str, kind: type, prefix: str = "", default=None):
    """cfg[key] checked to be of the given kind; absent or null gives default."""
    accepted, noun = _FIELD_TYPES[kind]
    value = cfg.get(key, None)
    if value is None:
        return default
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise ConfigError(f"{prefix}{key}", f"must be {noun}")
    try:
        return kind(value)
    except OverflowError:  # an integer beyond the float range
        raise ConfigError(f"{prefix}{key}", f"must be {noun} within the float range") from None


@cache  # inspect.signature costs tens of microseconds a call
def _parameters(fn) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The names of fn's parameters, and of those without a default."""
    params = inspect.signature(fn).parameters.values()
    return tuple(p.name for p in params), tuple(p.name for p in params if p.default is p.empty)


def call_with_fields(fn, obj: dict, prefix: str = ""):
    """fn(**obj), obj read as fn's keyword parameters, each a number.

    An unknown, missing required or non-number (bool included) field raises
    ConfigError naming prefix + field; a null field counts as absent.
    """
    names, required = _parameters(fn)
    _reject_unknown(obj, names, prefix)
    kwargs = {}
    for name in obj:
        value = _field(obj, name, float, prefix)
        if value is not None:
            kwargs[name] = value
    for name in required:
        if name not in kwargs:
            raise ConfigError(prefix + name, "required")
    return fn(**kwargs)


def call_by_tag(table: dict, obj: dict, tag: str, prefix: str = "", default=None):
    """call_with_fields on table[obj[tag]] with the other fields of obj."""
    name = _field(obj, tag, str, prefix, default)
    if name not in table:
        raise ConfigError(prefix + tag, f"must be one of {', '.join(map(repr, table))}")
    return call_with_fields(table[name], {k: v for k, v in obj.items() if k != tag}, prefix)
