"""Exact-arithmetic tools for twisted q-deformations of SU(n).

Submodules:
  scalars        - angles in Q/Z, Laurent polynomials in q^(1/2)
  smith          - exact linear algebra: integer Smith form, rational kernels
  lattice        - SU(n) weight lattice and the explicit 2-cochains c_tau
  cohomology     - cochains and low-degree cohomology of finite abelian groups
  classification - the isomorphism decision procedure for (n, q, tau, omega)
  presentation   - generators and relations of the twisted coordinate algebra
  spin           - half-spin representation checks for the even orthogonal case
  selftest       - the verification suite behind `sutwist selftest`
  cli            - command-line frontend
"""

from .classification import (
    IsoCase,
    ParamTuple,
    SkewBicharacter,
    canonical_form,
    central_invariant,
    is_isomorphic,
    isomorphism_matrix,
    mirror_invariant,
    pair_invariant,
    theta_transform,
)
from .lattice import TauVector, WeightVec, c_tau_eval, descend_c_tau, weight_norm
from .scalars import HalfLaurent, UnitAngle, quantum_integer

__all__ = [
    "IsoCase",
    "ParamTuple",
    "SkewBicharacter",
    "TauVector",
    "WeightVec",
    "HalfLaurent",
    "UnitAngle",
    "canonical_form",
    "central_invariant",
    "c_tau_eval",
    "descend_c_tau",
    "is_isomorphic",
    "isomorphism_matrix",
    "mirror_invariant",
    "pair_invariant",
    "quantum_integer",
    "theta_transform",
    "weight_norm",
]
