"""Quantum relations and quantum G-graphs over finite-dimensional G-C*-algebras.

Systems are direct sums of matrix factors with a finite-group action and the
separable standard functional; CP morphisms are stored by Choi blocks; quantum
relations are families of projections on vectorized operator spaces.  The
subpackages follow the mathematical layering: linalg -> groups/systems ->
cpmaps -> relations -> graphs -> scc, with classical oracles, a JSON bundle
format and a CLI on top.
"""

__version__ = "0.1.0"
