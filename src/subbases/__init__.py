"""Dyadic subbases made computational: bottomed-sequence codes of metric
spaces, grid-scale properness checks, and randomized cut construction.
Importing the package imports none of its modules; import them by name."""

__version__ = "0.1.0"
