"""gdpakit: exact-arithmetic kernel for generalized divided power algebras.

Subpackages:

- :mod:`gdpakit.coeff_rings` -- exact coefficient rings and linear algebra (SNF).
- :mod:`gdpakit.pi_core` -- carries, pi-sequences and invariants.
- :mod:`gdpakit.gdpa` -- the algebra D(k, pi): arithmetic, regrading, recovery.
- :mod:`gdpakit.graded_modules` -- finitely presented graded modules, Tor, Hilbert.
- :mod:`gdpakit.resolutions_k` -- special modules/resolutions, H and L invariants.
- :mod:`gdpakit.coherence_lab` -- degree-bound experiments and the bivariate example.
- :mod:`gdpakit.cli` -- command line front end.
"""

__version__ = "0.1.0"
