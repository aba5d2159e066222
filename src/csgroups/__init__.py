"""
Crossed simplicial groups in code: the symmetric and braid families,
their action groupoids, the partial-composition operads on both, the
positive permutation lift, Kan horn lifting, and the cyclic bar
structure on finite monoids, all wired to exhaustive and randomized
law-checking suites.
"""

from .core import (
    BRAID,
    INSTANCES,
    SYMMETRIC,
    BraidCsg,
    CsgElement,
    CsgInstance,
    SymmetricCsg,
    Tally,
)

__all__ = [
    "BRAID",
    "INSTANCES",
    "SYMMETRIC",
    "BraidCsg",
    "CsgElement",
    "CsgInstance",
    "SymmetricCsg",
    "Tally",
]

__version__ = "0.1.0"
