"""Exception types raised across the package.

Every error that callers are expected to catch has a named class here so that
CLI exit codes and tests can dispatch on type rather than on message text.
"""
from __future__ import annotations


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


class BackendTooLarge(ValueError):
    """The dense state backend cannot hold a register of this size."""


class OracleFailure(RuntimeError):
    """A tomography oracle could not produce an estimate."""


class MalformedCircuit(ValueError):
    """A serialized circuit description failed validation."""


class AuditDisabled(RuntimeError):
    """A stepwise audit quantity was requested from a run without audit."""


class DegenerateD(ValueError):
    """A cost formula was evaluated at a bond dimension below 2."""
