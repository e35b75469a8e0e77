"""Exception types shared across the package, and its parameter checks.

A parameter dataclass derives from Checked, so it is checked once, when it
is built (dataclasses.replace included); entry points check only their own
scalar arguments. Both use the functions at the end, which take values as
keywords and raise ParameterError naming the first bad one: "dt must be
positive and finite, got nan". None, strings, NaN and +-inf fail finite,
positive ("positive and finite") and nonnegative ("nonnegative and
finite"); integer ("an integer >= lo", or "in [lo, hi]") takes ints and
numpy integers but never floats, so no count is truncated; within_cells
bounds a count by the cells an array may hold; holds checks any other rule,
given as a test, which a value whose type makes it raise TypeError fails.
Only math, operator and sys are imported, because `import fracvol` loads
this module.
"""
import math
import operator
import sys

# most cells an array may hold: numpy sizes an array in bytes within a signed
# machine word, and the largest temporaries (complex fGn spectra over twice
# the path) take 32 bytes a cell
MAX_CELLS = sys.maxsize // 32


class FracvolError(Exception):
    """Base class for all errors raised by fracvol."""


class ParameterError(FracvolError, ValueError):
    """A parameter is outside its admissible domain."""


class InsufficientDataError(FracvolError):
    """A series is too short (or a lag grid too sparse) for the requested estimate."""


class GenerationError(FracvolError):
    """Random-path generation failed; the message names the method that failed."""


class GridMismatchError(FracvolError):
    """The simulation step and the volatility observation scale do not align."""


class OutOfRegimeError(FracvolError):
    """An asymptotic formula was evaluated outside its validity regime."""


class NoSolutionError(FracvolError):
    """A root-finding problem has no solution in the admissible bracket."""


class IngestionError(FracvolError):
    """A data file failed validation.

    ``lines`` holds up to the first 10 offending (line_number, message) pairs.
    """

    def __init__(self, message, lines=None):
        super().__init__(message)
        self.lines = list(lines or [])


class Checked:
    """Base of the parameter dataclasses: each instance is checked when it is built."""

    def __post_init__(self) -> None:
        self.validate()


def _real_check(wording: str, compare, bound: float):
    """The check that each keyword's value is finite and compare(value, bound),
    built once per rule."""
    def check(**named) -> None:
        for name, value in named.items():
            try:
                ok = math.isfinite(value) and compare(value, bound)
            except (TypeError, OverflowError):
                ok = False
            if not ok:
                raise ParameterError(f"{name} must be {wording}, got {value!r}")
    return check


finite = _real_check("finite", operator.gt, -math.inf)
positive = _real_check("positive and finite", operator.gt, 0.0)
nonnegative = _real_check("nonnegative and finite", operator.ge, 0.0)


def integer(lo: int, hi: int | None = None, **named) -> None:
    """Each keyword's value is an integer in [lo, hi], unbounded above when
    hi is None; integral floats such as 4096.0 are rejected."""
    for name, value in named.items():
        try:
            ok = lo <= operator.index(value) <= (math.inf if hi is None else hi)
        except TypeError:
            ok = False
        if not ok:
            span = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
            raise ParameterError(f"{name} must be an integer {span}, got {value!r}")


def within_cells(**named) -> None:
    """Each keyword's value, an integer count of array cells, is at most MAX_CELLS."""
    for name, value in named.items():
        if value > MAX_CELLS:
            raise ParameterError(f"{name} must be at most {MAX_CELLS}, the cells an "
                                 f"array may hold, got {value!r}")


def holds(value, test, must: str) -> None:
    """test(value) is true; else ParameterError(f"{must}, got {value!r}"),
    also when test raises TypeError on a value of the wrong type."""
    try:
        ok = test(value)
    except TypeError:
        ok = False
    if not ok:
        raise ParameterError(f"{must}, got {value!r}")


def one_of(name: str, value, options: tuple) -> None:
    """value is one of options."""
    if value not in options:
        raise ParameterError(f"{name} must be one of {options}, got {value!r}")


def grid_ratio(num: float, den: float) -> int | None:
    """num/den as an integer >= 1 to within 1e-9 relative, else None, also
    when the ratio overflows; each caller raises its own GridMismatchError."""
    ratio = num / den
    r = round(ratio) if math.isfinite(ratio) else 0
    return r if r >= 1 and abs(ratio - r) <= 1e-9 * r else None
