"""Exact-arithmetic certification of pseudo-Anosov mapping classes.

The library works with a compact, oriented genus-g surface with one
boundary component.  A mapping class is given either by its action on the
free fundamental group (generator images) or by homology-level data; the
package computes its depth in the filtration by nilpotent-quotient kernels,
the associated cochain into the free Lie algebra, the contracted invariant
matrix, and a sufficient certificate for the class being pseudo-Anosov from
the exact factor structure of the characteristic polynomial.
"""

from .contract import ContractionSpec, phi_contract, psi_matrix
from .errors import DepthError, FixtureError, GenusMismatchError, JobError
from .fixtures import verify_fixtures
from .homology import HVector, IntMatrix, conjugate, pairing, sp_check
from .jobs import CertificationReport, Job, load_job, parse_job, run_job, run_tau
from .johnson import (DepthResult, JohnsonCochain, bp_tau, cochain_from_wedge3,
                      derivation_apply, filtration_depth, tau_on_H, tau_squared)
from .polylab import (CriterionReport, Factorization, IntPolynomial, charpoly, criterion,
                      factor_z, irreducible_mod_p)
from .tensors import TruncatedTensor, dynkin_is_lie, lie_bracket, magnus_expand
from .words import (FreeEndomorphism, GroupWord, apply_endo, commutator, compose_endos,
                    inner_automorphism, parse_word, reduce_word, sep_twist)

__version__ = "0.1.0"
