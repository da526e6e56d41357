"""Exact computations in graph-defined Artin groups and their Coxeter quotients,
with a certification pipeline for centers driven by cone-point recursion."""

__version__ = "0.1.0"
