"""Filtration depth and the Johnson-type invariants of free-group endomorphisms.

For an endomorphism f acting trivially on the first k nilpotent quotients,
the map x -> f(x) x^{-1} induces a homomorphism from H to the degree-(k+1)
layer of the free Lie algebra; computationally, the image of a basis vector
is the degree-(k+1) graded part of the Magnus expansion of f(x) x^{-1}.
The cochain extends uniquely to a derivation of the tensor algebra, which
is how the squared invariant (needed at odd levels) is computed.

Weight-2 cochains can also be built directly from trivector data: the class
u ^ v ^ w acts by x -> <u,x>[v,w] + <v,x>[w,u] + <w,x>[u,v], extended
linearly (the sign and scale of this identification are pinned by the
bundled worked examples).
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import DepthError, GenusMismatchError, TruncationError, _same_genus
from .homology import HVector, intersection
from .tensors import (TruncatedTensor, _sum_terms, dynkin_is_lie, graded_part, lie_bracket,
                      magnus_expand)
from .words import FreeEndomorphism, generator


@dataclass(frozen=True)
class JohnsonCochain:
    """A linear map H -> H^{(weight)}, one homogeneous image per basis vector."""

    genus: int
    weight: int
    images: tuple[TruncatedTensor, ...]

    def __post_init__(self):
        if self.weight < 1:
            raise ValueError("weight must be positive")
        if len(self.images) != 2 * self.genus:
            raise ValueError("need one image per basis vector")
        for img in self.images:
            if img.genus != self.genus:
                raise GenusMismatchError("image tensor has wrong genus")
            if img.truncation != self.weight:
                raise ValueError("images must be carried at truncation = weight")
            if not img.is_homogeneous(self.weight):
                raise ValueError(f"image not homogeneous of degree {self.weight}")
            if not dynkin_is_lie(img):
                raise ValueError("image fails the Lie-membership check")

    @staticmethod
    def zero(genus: int, weight: int) -> "JohnsonCochain":
        z = TruncatedTensor.zero(genus, weight)
        return JohnsonCochain(genus, weight, (z,) * (2 * genus))

    def __add__(self, other: "JohnsonCochain") -> "JohnsonCochain":
        _same_genus(self, other)
        if self.weight != other.weight:
            raise ValueError(f"weight {self.weight} vs {other.weight}")
        return JohnsonCochain(self.genus, self.weight,
                              tuple(a + b for a, b in zip(self.images, other.images)))

    def __sub__(self, other: "JohnsonCochain") -> "JohnsonCochain":
        return self + other.scale(-1)

    def scale(self, k: int) -> "JohnsonCochain":
        return JohnsonCochain(self.genus, self.weight, tuple(img.scale(k) for img in self.images))

    def is_zero(self) -> bool:
        return all(img.is_zero() for img in self.images)

    def to_json_obj(self) -> dict:
        return {"weight": self.weight,
                "images": [img.to_json_obj() for img in self.images]}


@dataclass(frozen=True)
class DepthResult:
    """Filtration depth: `value` exactly if `exact`, otherwise depth >= value."""

    value: int
    exact: bool

    def to_json_obj(self) -> dict:
        return {"value": self.value, "exact": self.exact}

    def __str__(self) -> str:
        return str(self.value) if self.exact else f">= {self.value}"


def _expansion(f: FreeEndomorphism, i: int, truncation: int) -> TruncatedTensor:
    """M(f(x) x^{-1}) - 1 at `truncation` for the generator x of basis index i (from 0)."""
    e = magnus_expand(f.images[i] * generator(f.genus, i + 1, -1), truncation)
    # an expansion's empty-word coefficient is always 1
    return TruncatedTensor(f.genus, truncation, {w: c for w, c in e.terms.items() if w})


def _depth(expansions: list[TruncatedTensor], max_k: int) -> DepthResult:
    """Depth read off expansions whose lowest nonzero degrees are exact up to max_k + 1."""
    degrees = [d for e in expansions if (d := e.min_degree()) is not None]
    if not degrees:
        return DepthResult(max_k, exact=False)
    return DepthResult(min(degrees) - 1, exact=True)


def filtration_depth(f: FreeEndomorphism, max_k: int) -> DepthResult:
    """Largest k <= max_k with all Magnus terms of f(x)x^{-1} - 1 vanishing in degrees 1..k.

    Expands to degree max_k + 1, so a first nonzero term there still yields
    an exact answer; otherwise the result is the lower bound max_k.
    """
    if max_k < 0:
        raise ValueError("max_k must be nonnegative")
    return _depth([_expansion(f, i, max_k + 1) for i in range(len(f.images))], max_k)


def tau_on_H(f: FreeEndomorphism, k: int) -> JohnsonCochain:
    """Johnson cochain of f at level k; requires depth(f) >= k.

    The image of basis vector x is the degree-(k+1) part of the Magnus
    expansion of f(x) x^{-1}; lower positive degrees must vanish, else
    DepthError is raised.
    """
    if k < 1:
        raise ValueError("level k must be at least 1")
    return depth_and_tau(f, k, k + 1)[1]


def depth_and_tau(f: FreeEndomorphism, k: int, truncation: int) -> tuple[DepthResult, JohnsonCochain]:
    """filtration_depth(f, truncation - 1) and tau_on_H(f, k), from one expansion per generator.

    Needs truncation >= k + 1, where the degree-(k+1) parts are already
    exact.  Raises DepthError when the depth is below k.

    The generators are expanded in order of increasing image length, at
    `truncation` until one expansion has a nonzero term of degree <= k+1,
    and at k+1 after that.  The lowest nonzero degree of an expansion is
    exact at any truncation at or above it, so the depth is unchanged; only
    when no expansion has such a term does the depth need `truncation`,
    and then every generator was expanded at it.
    """
    if truncation < k + 1:
        raise ValueError(f"truncation must be at least k+1 = {k + 1}")
    expansions = [None] * len(f.images)
    next_truncation = truncation
    for i in sorted(range(len(f.images)), key=lambda j: len(f.images[j].letters)):
        e = expansions[i] = _expansion(f, i, next_truncation)
        low = e.min_degree()
        if low is not None and low <= k + 1:
            next_truncation = k + 1
    depth = _depth(expansions, truncation - 1)
    if depth.value < k:
        raise DepthError(
            f"element has filtration depth {depth} < k = {k}; the level-{k} "
            "invariant is undefined")
    return depth, JohnsonCochain(f.genus, k + 1, tuple(graded_part(e, k + 1) for e in expansions))


def derivation_apply(c: JohnsonCochain, t: TruncatedTensor) -> TruncatedTensor:
    """Leibniz extension of the cochain applied to a tensor.

    Each slot of each basis word is replaced in turn by its image under c,
    raising the degree by weight - 1 per replacement; the input truncation
    must accommodate that.
    """
    _same_genus(c, t)
    lift = c.weight - 1
    if t.max_degree() + lift > t.truncation:
        raise TruncationError(
            f"derivation raises degree to {t.max_degree() + lift} beyond truncation {t.truncation}")
    def replaced():
        for word, coeff in t.terms.items():
            for j, s in enumerate(word):
                head, tail = word[:j], word[j + 1:]
                for cw, cc in c.images[s - 1].terms.items():
                    yield head + cw + tail, coeff * cc
    return TruncatedTensor(t.genus, t.truncation, _sum_terms(replaced()))


def tau_squared(c: JohnsonCochain) -> JohnsonCochain:
    """The derivation applied to the cochain's own images: weight k+1 -> 2k+1."""
    new_weight = 2 * c.weight - 1
    images = []
    for img in c.images:
        lifted = img.with_truncation(new_weight)
        images.append(derivation_apply(c, lifted))
    return JohnsonCochain(c.genus, new_weight, tuple(images))


WedgeTerm = tuple[int, tuple[HVector, HVector, HVector]]


def cochain_from_wedge3(genus: int, terms) -> JohnsonCochain:
    """Weight-2 cochain of a sum of coefficient-weighted wedge triples."""
    # (vector, coefficient, bracket): the image of x sums coef * <vector, x> * bracket
    parts = []
    for coeff, (u, v, w) in terms:
        for vec in (u, v, w):
            if vec.genus != genus:
                raise GenusMismatchError("wedge vector has wrong genus")
        tu, tv, tw = (TruncatedTensor.from_hvector(vec, 2) for vec in (u, v, w))
        parts += [(u, coeff, lie_bracket(tv, tw)), (v, coeff, lie_bracket(tw, tu)),
                  (w, coeff, lie_bracket(tu, tv))]
    images = []
    for p in range(2 * genus):
        x = HVector.basis(genus, p)
        scaled = ((coeff * intersection(vec, x), bracket) for vec, coeff, bracket in parts)
        images.append(TruncatedTensor(genus, 2, _sum_terms(
            (w, k * c) for k, bracket in scaled if k for w, c in bracket.terms.items())))
    return JohnsonCochain(genus, 2, tuple(images))


def bp_tau(genus: int, index: int) -> JohnsonCochain:
    """Johnson cochain of the standard bounding-pair map: (sum_{j<i} a_j^b_j)^b_i.

    index = 1 gives the empty sum, hence the zero cochain; indices outside
    1..genus are errors.
    """
    if not 1 <= index <= genus:
        raise ValueError(f"bounding-pair index must be in 1..genus, got {index}")
    b_i = HVector.basis(genus, 2 * (index - 1) + 1)
    terms = []
    for j in range(1, index):
        a_j = HVector.basis(genus, 2 * (j - 1))
        b_j = HVector.basis(genus, 2 * (j - 1) + 1)
        terms.append((1, (a_j, b_j, b_i)))
    return cochain_from_wedge3(genus, terms)
