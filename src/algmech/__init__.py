"""Hamiltonian mechanics on algebroids in local coordinates.

Structure functions of a (not necessarily skew or Jacobi) bracket with left
and right anchors induce dynamics on the dual-bundle chart; the same dynamics
is reconstructed independently through a lifted exact symplectic structure,
and the equivalence plus closedness claims are verified numerically.  The
top level re-exports the two routes' fields and the integrator; everything
else is imported from its module (``algmech.scenarios``, ...).
"""

from .hamiltonian import PhasePoint, ham_field, integrate
from .prolongation import lr_ham_field

__version__ = "0.1.0"
