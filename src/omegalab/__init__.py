"""Bounded-universe engine for independent set families, a canonical
enumeration of finite partial functions, permutation extension, and
demand-driven generic constructions.  Each public name is imported from
its own module, e.g. ``from omegalab.finset import bit_family``."""

__version__ = "0.1.0"
