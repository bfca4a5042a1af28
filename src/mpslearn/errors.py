"""Exception types raised across the package.

Every error that callers are expected to catch has a named class here, so
tests dispatch on type rather than on message text, and the CLI reads each
class's exit code and stderr prefix off the class itself (those of
:class:`MpslearnError` unless it overrides them).  Messages show argument
values through :func:`shown`.  The one guard of the float-valued schedule and
copy-count formulas, :func:`in_float_range`, lives here too.
"""
from __future__ import annotations

import functools
import math
import numbers


class MpslearnError(Exception):
    """Base of every error here: bad input, exit code 2, unless a class says otherwise."""

    exit_code, outcome = 2, "error"


class NonSquare(MpslearnError, ValueError):
    """A matrix argument is not square."""


class NonHermitian(MpslearnError, ValueError):
    """A matrix argument is not Hermitian within tolerance."""


class NoConvergence(MpslearnError, RuntimeError):
    """An iterative routine failed to converge."""

    exit_code, outcome = 1, "property failure"


class DimensionMismatch(MpslearnError, ValueError):
    """Array shapes are inconsistent with the stated qudit dimensions."""


class InvalidSpec(MpslearnError, ValueError):
    """A state specification is internally inconsistent."""


class TooLarge(MpslearnError, ValueError):
    """A requested dense object exceeds the desk-scale size cap."""

    exit_code, outcome = 4, "resource limit"


class BadCut(MpslearnError, ValueError):
    """A bipartition cut index is out of range."""


class BlockOutOfRange(MpslearnError, ValueError):
    """A site block refers to sites outside the register."""


class BadParameter(MpslearnError, ValueError):
    """A numeric parameter is outside its admissible range."""


class RankCapExceedsDim(MpslearnError, ValueError):
    """The requested kept rank does not fit into the kept subspace."""


class TooSmall(MpslearnError, ValueError):
    """The chain is too short for the requested block size."""

    exit_code, outcome = 3, "infeasible"


class NegativeArgument(MpslearnError, ValueError):
    """A function of a non-negative real received a negative argument."""


class BadEpsilon(MpslearnError, ValueError):
    """An accuracy parameter is outside (0, 1]."""


class BackendTooLarge(TooLarge):
    """A register cannot hold a state, or a block's window, of this size."""


class OracleFailure(MpslearnError, RuntimeError):
    """A tomography oracle could not produce an estimate."""

    exit_code, outcome = 1, "property failure"


class MalformedCircuit(MpslearnError, ValueError):
    """A serialized circuit description failed validation."""


class DegenerateD(MpslearnError, ValueError):
    """A cost formula was evaluated at a bond dimension below 2."""


def shown(value) -> str:
    """``repr(value)``, but an integer of over 64 bits by its size: Python caps the digits."""
    big = isinstance(value, numbers.Integral) and int(value).bit_length() > 64
    return f"an integer of {int(value).bit_length()} bits" if big else repr(value)


def in_float_range(formula):
    """``formula``, raising ``BadParameter`` where an argument, a step or a real result overflows."""

    @functools.wraps(formula)
    def checked(*args, **kwargs):
        try:
            value = formula(*args, **kwargs)
            if not isinstance(value, numbers.Real) or math.isfinite(value):
                return value
        except (OverflowError, ZeroDivisionError):  # the latter from a square underflowing to 0
            pass
        given = ", ".join([*map(shown, args), *(f"{k}={shown(v)}" for k, v in kwargs.items())])
        raise BadParameter(
            f"{formula.__name__}({given}): an argument or the value exceeds a float's range"
        ) from None

    return checked
