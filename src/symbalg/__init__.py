"""Exact arithmetic for quaternion and symbol algebras over Q, Q(sqrt d)
and the cube-root-of-unity field, with split/division classification of
degree-3 cyclic algebras at Eisenstein primes.

Import from the submodules (fields, eisenstein, quaternion, symbol, local,
linalg, intmath, cli); the package imports none of them itself, so each
process loads only what it uses."""

__version__ = "0.1.0"
