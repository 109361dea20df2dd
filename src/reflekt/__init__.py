"""Exact-arithmetic toolkit for integral quadratic lattices.

Core objects: Lattice / Sublattice (exact invariants and sublattice
algebra), BinaryForm (complete representation decisions for indefinite
binary forms, Pell units, continued fractions), root and reflectivity
predicates, and certificate-producing constructions of anisotropic binary
lattices avoiding prescribed negative values.
"""

from .arith import (crt, find_prime, gcd_ext, is_prime, jacobi,
                    nonresidue_prime)
from .binary import (BinaryForm, CFExpansion, PellSolution, binary_roots,
                     cf_sqrt, is_anisotropic, mu, pell_fundamental,
                     representation_witness, represents)
from .construct import (AvoidRootsCertificate, MjCertificate, avoid_roots,
                        mj_family, nv_complements, pell_family, select_pell_a)
from .errors import ToolkitError
from .lattice import DiscriminantData, Lattice, Sublattice
from .roots import (ReflectivityVerdict, find_roots_in_box, is_root, reflect,
                    reflectivity_indicator, root_norm_candidates)

__version__ = "0.1.0"

__all__ = [
    "AvoidRootsCertificate", "BinaryForm", "CFExpansion",
    "DiscriminantData", "Lattice", "MjCertificate", "PellSolution",
    "ReflectivityVerdict", "Sublattice", "ToolkitError",
    "avoid_roots", "binary_roots", "cf_sqrt", "crt", "find_prime", "find_roots_in_box",
    "gcd_ext", "is_anisotropic", "is_prime", "is_root",
    "jacobi", "mj_family", "mu", "nonresidue_prime", "nv_complements",
    "pell_family", "pell_fundamental", "reflect", "reflectivity_indicator",
    "representation_witness", "represents",
    "root_norm_candidates", "select_pell_a",
]
