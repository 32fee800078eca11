"""Equivariant contractions of tensor slots and assembly of the invariant matrix.

A ContractionSpec pairs up all but one slot of an odd-degree tensor and
returns the remaining slot scaled by the product of slotwise intersection
numbers; the default spec pairs consecutive slots (1,2),(3,4),... and
outputs the last, which on degree k+1 is the map used at even levels k.
At odd levels the cochain is first squared through the derivation, then
contracted in degree 2k+1.
"""
from __future__ import annotations

from dataclasses import dataclass

from .homology import HVector, IntMatrix, symbol_intersection
from .johnson import JohnsonCochain, tau_squared
from .tensors import TruncatedTensor


@dataclass(frozen=True)
class ContractionSpec:
    """Slot-pairing datum: 1-indexed pairs plus the output slot, partitioning 1..2n+1."""

    pairs: tuple[tuple[int, int], ...]
    output: int

    def __post_init__(self):
        slots = [s for p in self.pairs for s in p] + [self.output]
        if sorted(slots) != list(range(1, len(slots) + 1)):
            raise ValueError("pairs and output must partition slots 1..2n+1")

    @property
    def arity(self) -> int:
        return 2 * len(self.pairs) + 1

    @staticmethod
    def default(arity: int) -> "ContractionSpec":
        if arity < 1 or arity % 2 == 0:
            raise ValueError("arity must be odd and positive")
        pairs = tuple((2 * j + 1, 2 * j + 2) for j in range(arity // 2))
        return ContractionSpec(pairs, arity)


def phi_contract(t: TruncatedTensor, spec: ContractionSpec) -> HVector:
    """Contract a homogeneous tensor of degree = spec.arity down to H."""
    m = spec.arity
    coords = [0] * (2 * t.genus)
    for word, coeff in t.terms.items():
        if len(word) != m:
            raise ValueError(f"tensor degree {len(word)} does not match contraction arity {m}")
        sign = 1
        for p, q in spec.pairs:
            sign *= symbol_intersection(word[p - 1], word[q - 1])
            if sign == 0:
                break
        if sign:
            coords[word[spec.output - 1] - 1] += coeff * sign
    return HVector(t.genus, tuple(coords))


def psi_matrix(c: JohnsonCochain, k: int, spec: ContractionSpec | None = None) -> IntMatrix:
    """The level-k invariant matrix of a cochain of weight k+1.

    Even k contracts the cochain directly in degree k+1; odd k first squares
    it through the derivation and contracts in degree 2k+1.  Columns are the
    images of the ordered basis vectors.
    """
    if k < 1:
        raise ValueError("level k must be at least 1")
    if c.weight != k + 1:
        raise ValueError(f"cochain weight {c.weight} does not match level {k} (need {k + 1})")
    target = c if k % 2 == 0 else tau_squared(c)
    arity = k + 1 if k % 2 == 0 else 2 * k + 1
    if spec is None:
        spec = ContractionSpec.default(arity)
    if spec.arity != arity:
        raise ValueError(f"contraction spec arity {spec.arity} does not match degree {arity}")
    cols = [phi_contract(img, spec).coords for img in target.images]
    return IntMatrix.from_columns(cols)
