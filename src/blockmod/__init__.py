"""Exact verification toolkit for rank-1 polynomial modules over Block Lie algebras."""

from .blockalg import AlgebraContext, AlgebraElement, BasisL, D2
from .closure import ClosureResult, ClosureTag, SubspaceBasis
from .omega import ParamSet, WittParams
from .poly import IndexPair, Poly1, Poly2

__version__ = "0.1.0"

__all__ = [
    "AlgebraContext", "AlgebraElement", "BasisL", "D2",
    "ClosureResult", "ClosureTag", "SubspaceBasis",
    "ParamSet", "WittParams",
    "IndexPair", "Poly1", "Poly2",
    "__version__",
]
