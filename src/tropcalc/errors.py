"""Exception types shared across the package."""

from __future__ import annotations


class TropcalcError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(TropcalcError):
    """Vectors or matrices do not share the required dimensions."""


class AmbientMismatch(TropcalcError):
    """Objects live in ambient spaces of different ranks."""


class TypeMismatch(TropcalcError):
    """Operands have incompatible (p, q, l) types."""


class NotASublattice(TropcalcError):
    """A claimed sublattice has a basis vector outside the big lattice."""


class NotAFacet(TropcalcError):
    """The second polyhedron is not a codimension-one face of the first."""


class NotAComplex(TropcalcError):
    """Cells are not face-closed, or two of them meet outside a common face."""


class NotBalanced(TropcalcError):
    """The polyhedral form violates the balancing condition."""


class NotTransversal(TropcalcError):
    """Two cells meet without spanning the ambient space."""


class CellNotInjective(TropcalcError):
    """An affine map collapses a cell, so the cellwise push-forward is undefined."""

    def __init__(self, message: str, cells: list | None = None):
        super().__init__(message)
        self.cells = cells or []


class Unbounded(TropcalcError):
    """Integration was requested over an unbounded polyhedron."""


class DegreeMismatch(TropcalcError):
    """A form's bidegree does not match the dimension of the integration cell."""


class SlotOutOfRange(TropcalcError):
    """A contraction slot exceeds the form's bidegree."""


class InternalError(TropcalcError):
    """An invariant of the package's own computations failed (a bug)."""
