"""The package's exception and its one rule for input numbers.

`ValidationError` is what every bad input raises. The checks below are
the only place that says what a valid number is: an int or a float
(subclasses included), never a bool, which every range check would take
as 1 or 0. A node id is an int, never a bool, by `_check_id`.
`_check_real` adds a range, `_check_budget` is the range every
energy budget shares, and `_check_limit` is the rule for counts.
"""

import math
import sys

# An int beyond the largest float has no float, so it is refused as not finite.
_LARGEST = sys.float_info.max


class ValidationError(ValueError):
    """Bad input: malformed file, broken invariant, unknown node, out-of-range value.

    The CLI maps this to exit code 2; anything else that escapes is a
    runtime error (exit code 3).
    """


def _check_number(name: str, value: float) -> None:
    """Raise unless a real-valued input is an int or a float, not a bool."""
    if type(value) is bool or not isinstance(value, (int, float)):
        raise ValidationError(f"{name} {value!r} is not a number")


def _check_id(name: str, value: int) -> None:
    """Raise unless a node id is an int, not a bool."""
    if type(value) is bool or not isinstance(value, int):
        raise ValidationError(f"{name} {value!r} is not an integer")


def _check_real(name: str, value: float, low: float, high: float, above: bool = False) -> None:
    """Raise unless a real-valued input is a finite number in [low, high],
    or in (low, high] when `above`. An infinite `high` leaves the range
    open above, and the message then says "must be finite", "and >= low"
    or, when `above` (only ever with low 0), "and positive"."""
    _check_number(name, value)
    # Comparisons, not math.isfinite, which raises OverflowError on such an int.
    if -_LARGEST <= value <= _LARGEST and (low < value if above else low <= value) and value <= high:
        return
    if high < math.inf:
        raise ValidationError(f"{name} {value} outside {'(' if above else '['}{low}, {high}]")
    bound = "" if low == -math.inf else " and positive" if above else f" and >= {low}"
    raise ValidationError(f"{name} {value} must be finite{bound}")


def _check_budget(budget: float) -> None:
    """Raise unless the budget is a finite, positive number."""
    _check_real("budget", budget, 0, math.inf, above=True)


def _check_limit(name: str, value: int, least: int = 1) -> None:
    """Raise unless a count (limit, size, seeds, k) is a non-bool int >= least."""
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise ValidationError(f"{name} {value!r} must be an int >= {least}")
