"""Exception types raised across the package.

Every error that callers are expected to catch has a named class here so that
CLI exit codes and tests can dispatch on type rather than on message text.
Their messages show argument values through :func:`shown`.  The one guard of
the float-valued schedule and copy-count formulas, :func:`in_float_range`,
lives here too.
"""
from __future__ import annotations

import functools
import math
import numbers


class NonSquare(ValueError):
    """A matrix argument is not square."""


class NonHermitian(ValueError):
    """A matrix argument is not Hermitian within tolerance."""


class NoConvergence(RuntimeError):
    """An iterative routine failed to converge."""


class DimensionMismatch(ValueError):
    """Array shapes are inconsistent with the stated qudit dimensions."""


class InvalidSpec(ValueError):
    """A state specification is internally inconsistent."""


class TooLarge(ValueError):
    """A requested dense object exceeds the desk-scale size cap."""


class BadCut(ValueError):
    """A bipartition cut index is out of range."""


class BlockOutOfRange(ValueError):
    """A site block refers to sites outside the register."""


class BadParameter(ValueError):
    """A numeric parameter is outside its admissible range."""


class RankCapExceedsDim(ValueError):
    """The requested kept rank does not fit into the kept subspace."""


class TooSmall(ValueError):
    """The chain is too short for the requested block size."""


class NegativeArgument(ValueError):
    """A function of a non-negative real received a negative argument."""


class BadEpsilon(ValueError):
    """An accuracy parameter is outside (0, 1]."""


class BackendTooLarge(TooLarge):
    """A register cannot hold a state, or a block's window, of this size."""


class OracleFailure(RuntimeError):
    """A tomography oracle could not produce an estimate."""


class MalformedCircuit(ValueError):
    """A serialized circuit description failed validation."""


class DegenerateD(ValueError):
    """A cost formula was evaluated at a bond dimension below 2."""


def shown(value) -> str:
    """``repr(value)``, but an integer of over 64 bits by its size: Python caps the digits."""
    big = isinstance(value, numbers.Integral) and int(value).bit_length() > 64
    return f"an integer of {int(value).bit_length()} bits" if big else repr(value)


def in_float_range(formula):
    """``formula``, raising ``BadParameter`` where an argument or its value overflows a float."""

    @functools.wraps(formula)
    def checked(*args, **kwargs):
        try:
            value = formula(*args, **kwargs)
            if math.isfinite(value):
                return value
        except (OverflowError, ZeroDivisionError):  # the latter from a square underflowing to 0
            pass
        given = ", ".join([*map(shown, args), *(f"{k}={shown(v)}" for k, v in kwargs.items())])
        raise BadParameter(
            f"{formula.__name__}({given}): an argument or the value exceeds a float's range"
        ) from None

    return checked
