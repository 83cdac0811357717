"""The range rules of ``rssifit.errors``: each is a closed interval of floats
that decides a scalar and, through ``holds``, each element of an array."""

import math
import sys
from decimal import Decimal
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rssifit.errors import DataError, nonnegative, number, percent, positive
from rssifit.errors import probability, real


# The four hand-written rules the interval rules replaced, kept verbatim
# (but for their names) as the reference, and the prr check DistanceStats
# made before ``percent``, written as a rule.
def parent_real(name: str, value: object) -> float:
    """A finite number."""
    # Testing for a float here too spares the hot paths a call to number().
    x = value if value.__class__ is float else number(name, value)
    if x - x != 0.0:  # nan or infinite
        raise DataError(f"{name} must be finite, got {x!r}")
    return x


def parent_positive(name: str, value: object) -> float:
    """A finite number above 0."""
    x = value if value.__class__ is float else number(name, value)
    if not 0.0 < x < math.inf:
        raise DataError(f"{name} must be finite and > 0, got {x!r}")
    return x


def parent_nonnegative(name: str, value: object) -> float:
    """A finite number, at least 0."""
    x = value if value.__class__ is float else number(name, value)
    if not 0.0 <= x < math.inf:
        raise DataError(f"{name} must be finite and >= 0, got {x!r}")
    return x


def parent_probability(name: str, value: object) -> float:
    """A number strictly between 0 and 1."""
    p = value if value.__class__ is float else number(name, value)
    if not 0.0 < p < 1.0:
        raise DataError(f"{name} must be in (0, 1), got {p!r}")
    return p


def parent_percent(name: str, value: object) -> float:
    prr = number(name, value)
    if not 0.0 <= prr <= 100.0:  # nan too
        raise DataError(f"prr must be in [0, 100] percent, got {prr!r}")
    return prr


RULES = (
    (real, parent_real),
    (positive, parent_positive),
    (nonnegative, parent_nonnegative),
    (probability, parent_probability),
    (percent, parent_percent),
)

EDGES = (
    0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324,
    math.nextafter(1.0, 0.0), 1.0, math.nextafter(1.0, 2.0), 100.0,
    math.nextafter(100.0, math.inf), sys.float_info.max, -sys.float_info.max,
)
POOL = st.one_of(
    st.sampled_from(
        EDGES + (
            10**400, -(10**400), 0, 1, 100, 101, -1, 2**64,
            np.float64(0.5), np.float64("nan"), np.float32(100.0), np.float16(-0.0),
            np.int64(1), np.uint8(0), np.array(0.25), np.array(-0.0),
            np.array(math.inf), np.array(7), np.array(True), np.array([0.5]),
            True, False, np.True_, "0.5", "", b"1", None, 1j, Fraction(1, 2),
            Decimal("0.5"),
        )
    ),
    st.floats(),
    st.integers(),
)
ELEMENTS = st.sampled_from(EDGES) | st.floats()


def _outcome(rule, value):
    """What the rule returns, as its type and repr, or the error it raises."""
    try:
        x = rule("prr", value)
    except DataError as exc:
        return "refused", str(exc)
    return type(x), repr(x), x is value


@settings(max_examples=1000, deadline=None)
@given(rules=st.sampled_from(RULES), value=POOL)
def test_each_interval_rule_decides_as_the_rule_it_replaced(rules, value):
    rule, parent = rules
    assert _outcome(rule, value) == _outcome(parent, value)


@settings(max_examples=300, deadline=None)
@given(
    rules=st.sampled_from(RULES),
    a=arrays(np.float64, st.integers(0, 12), elements=ELEMENTS),
)
def test_holds_decides_each_element_as_the_scalar_rule(rules, a):
    rule, _ = rules
    held = rule.holds(a)
    assert held.dtype == np.bool_ and held.shape == a.shape
    assert held.tolist() == [_outcome(rule, x)[0] is float for x in a.tolist()]
