"""Exact verification of derivation-algebra and holomorph constructions
on finite-dimensional Lie algebras over the rationals.

The package root exports nothing: import each name from its module, so a
process loads only the modules it reads."""

__version__ = "0.1.0"
