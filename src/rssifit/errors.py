"""Exception hierarchy, and the field rules that raise its DataError.

Two branches matter for callers: :class:`DataError` covers bad inputs
(validation, parsing, missing datasets) and :class:`NumericalError` covers
failures of the math itself (singular systems, degenerate regressions).
The CLI maps them to exit codes 1 and 2 respectively.

Every public constructor and entry point checks its scalars with the field
rules below. Each returns the canonical ``float``, ``int``, ``bool``, ``str``
or tuple of str pairs, or raises :class:`DataError` naming the field. A
number is what ``float`` takes but text and bools: Python and numpy ints and
floats, 0-d arrays of them. Each range rule admits a closed interval of
floats and carries ``holds``, the same test on a float array: the survey
containers check their columns with it.
"""

import math
import operator
import sys


class RssifitError(Exception):
    """Base class for all errors raised by this package."""


class DataError(RssifitError, ValueError):
    """Invalid input data or parameters."""


class InsufficientDataError(DataError):
    """Too few rows, samples, or degrees of freedom for the operation."""


class DatasetNotFoundError(DataError):
    """Unknown embedded dataset name."""


class FormatError(DataError):
    """Malformed CSV or JSON document; message carries the location."""


class NumericalError(RssifitError, ArithmeticError):
    """The computation itself failed."""


class SingularMatrixError(NumericalError):
    """Zero pivot after row pivoting: the system is exactly singular."""


class DegenerateDataError(NumericalError):
    """Data admits no unique fit (constant abscissae, constant column)."""


def _refused(value: object) -> bool:
    """Bools, text, and numpy values of another kind or with dimensions."""
    if isinstance(value, (bool, str, bytes, bytearray)):
        return True
    kind = getattr(getattr(value, "dtype", None), "kind", "f")
    return kind not in "iuf" or getattr(value, "ndim", 0) != 0


def number(name: str, value: object) -> float:
    """``value`` as a float; nan and the infinities pass."""
    if value.__class__ is float:
        return value
    try:
        if _refused(value):
            raise TypeError
        return float(value)
    except (TypeError, ValueError):
        raise DataError(f"{name} must be a number, got {value!r}") from None
    except OverflowError:  # an int beyond the float range
        return math.inf if value > 0 else -math.inf


def _within(words: str, lo: float, hi: float):
    """A rule: the float if the number is in [lo, hi], else a refusal that the
    field must be ``words``. ``rule.holds(a)`` tests a float array's elements."""

    def rule(name: str, value: object) -> float:
        # Testing for a float here too spares the hot paths a call to number().
        x = value if value.__class__ is float else number(name, value)
        if not lo <= x <= hi:  # nan too
            raise DataError(f"{name} must be {words}, got {x!r}")
        return x

    rule.holds = lambda a: (lo <= a) & (a <= hi)
    return rule


# An open end is the nearest float inside it: "> 0" is ">= 5e-324".
real = _within("finite", -sys.float_info.max, sys.float_info.max)
positive = _within("finite and > 0", math.ulp(0.0), sys.float_info.max)
nonnegative = _within("finite and >= 0", 0.0, sys.float_info.max)
probability = _within("in (0, 1)", math.ulp(0.0), math.nextafter(1.0, 0.0))
percent = _within("in [0, 100] percent", 0.0, 100.0)


def integer(name: str, value: object, least: int | None = None) -> int:
    """An integer, at least ``least`` when that is given."""
    if value.__class__ is not int:
        try:
            if _refused(value):
                raise TypeError
            value = operator.index(value)
        except TypeError:
            raise DataError(f"{name} must be an integer, got {value!r}") from None
    if least is not None and value < least:
        raise DataError(f"{name} must be >= {least}, got {value!r}")
    return value


def flag(name: str, value: object) -> bool:
    """A bool: Python's, or numpy's with no dimensions."""
    if value.__class__ is bool:
        return value
    if getattr(getattr(value, "dtype", None), "kind", "") != "b" or value.ndim:
        raise DataError(f"{name} must be a bool, got {value!r}")
    return bool(value)


def text(name: str, value: object) -> str:
    """A non-empty string."""
    if not isinstance(value, str) or not value:
        raise DataError(f"{name} must be a non-empty string")
    return str(value)


def pairs(name: str, value: object) -> tuple[tuple[str, str], ...]:
    """A tuple or list of (str, str) pairs, as a tuple of tuples of str."""
    if isinstance(value, (tuple, list)) and all(
        isinstance(p, (tuple, list)) and len(p) == 2
        and all(isinstance(s, str) for s in p) for p in value
    ):
        return tuple((str(k), str(v)) for k, v in value)
    raise DataError(f"{name} must be (str, str) pairs, got {value!r}")


def one_of(name: str, value: object, choices: tuple[str, ...]) -> str:
    """One of the strings ``choices``."""
    if not isinstance(value, str) or value not in choices:
        raise DataError(f"{name} must be one of {choices}, got {value!r}")
    return str(value)


def settle(obj: object, rule, *names: str) -> None:
    """Store what ``rule`` returns in each named field of a frozen dataclass."""
    for name in names:
        value = getattr(obj, name)
        canonical = rule(name, value)
        if canonical is not value:
            object.__setattr__(obj, name, canonical)
