"""Exact verification of derivation-algebra and holomorph constructions
on finite-dimensional Lie algebras over the rationals."""

from .linalg import Matrix, Subspace, nullspace, rank, rref, solve
from .algebra import (AntisymmetryConflict, CompletenessEvidence, DependentBasis,
                      DerivationAlgebra, IndexOutOfRange,
                      InternalConsistencyError, JacobiViolation, LieAlgebra,
                      LieError, MatrixSpan, NotClosed, Representation,
                      abelian, center, derivation_algebra, derived_subalgebra,
                      induced_lie_structure, inner_derivations, is_complete,
                      lie_algebra_from_table, make_lie_algebra, semidirect)
from .dtheory import (DCompletenessEvidence, DDerivationSpace, build_h,
                      d_bracket, d_center, d_derivations, der_action,
                      inner_d_derivation, is_d_complete)
from .fullgraph import (VerificationReport, build_full_graph, h_derivation,
                        verify)
from .catalog import (AlgebraFileError, CatalogEntry, CatalogError, lookup,
                      parse_algebra_file, serialize_algebra)

__version__ = "0.1.0"
