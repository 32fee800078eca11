"""Filtration depth and the Johnson-type invariants of free-group endomorphisms.

For an endomorphism f acting trivially on the first k nilpotent quotients,
the map x -> f(x) x^{-1} induces a homomorphism from H to the degree-(k+1)
layer of the free Lie algebra; computationally, the image of a basis vector
is the degree-(k+1) graded part of the Magnus expansion of f(x) x^{-1}.
The cochain extends uniquely to a derivation of the tensor algebra, which
is how the squared invariant (needed at odd levels) is computed.  Only
`magnus_expand` bounds degrees, at the truncation its caller passes: k+1
for a cochain, the job truncation for a depth read, k for a DepthError's.

On J(k), the endomorphisms of depth at least k, the cochain is additive
(Johnson 1980; Morita 1993).  `additive_tau` sums it over the factors of a
composite, each expanded once per generator at degree k+1, and returns None
at the first term of lower degree.  A nonzero sum fixes the depth at k, a
vanishing one at truncation k+1 bounds it below by k, and only otherwise is
the composite built and expanded at the truncation (`depth_of_sum`).
`depth_and_tau` is this rule over one endomorphism.

A cochain's 2g images mostly share their words, so the two steps that run
once per image run once per pack of consecutive nonzero images instead
(`tensors.pack`, at most PACK_BITS bits per coefficient).  The cochain's
constructor runs the Dynkin test on each pack, with slots for (2^(m-1) + m)
times the largest l1 norm of an image of weight m, which bounds every
coefficient of D(t) - m t.  `tau_squared` applies the derivation to each
pack, and a squared image is checked where it is made: the Dynkin test runs
on each derived pack before it is unpacked, and the result is built without
the constructor's own Lie check, which would pack the same images again.
One slot width serves both steps: the derivation of an image x has l1 norm
at most weight * |c(x)|_1 * max_s |c(s)|_1 <= weight * l1^2, for l1 the
largest l1 norm of an image of c, so (2^(m-1) + m) * weight * l1^2 bounds
every coefficient of the derived image and of its D(t) - m t, where
m = 2 weight - 1.  So no slot overflows, a packed coefficient is zero
exactly when each image's is, and every image is still checked once.

Weight-2 cochains can also be built directly from trivector data: the class
u ^ v ^ w acts by x -> <u,x>[v,w] + <v,x>[w,u] + <w,x>[u,v], extended
linearly (the sign and scale of this identification are pinned by the
bundled worked examples).
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import DepthError, GenusMismatchError, _same_genus
from .homology import HVector, pairing
from .tensors import (PACK_BITS, TruncatedTensor, _bracket_terms, _sum_terms, dynkin_is_lie,
                      lie_bracket, magnus_expand, pack, slot_width, unpack)
from .words import FreeEndomorphism, check_sep_index, generator


@dataclass(frozen=True)
class JohnsonCochain:
    """A linear map H -> H^{(weight)}, one homogeneous image per basis vector."""

    genus: int
    weight: int
    images: tuple[TruncatedTensor, ...]

    def __post_init__(self):
        self._check_shape()
        # each coefficient of D(t) - m t is at most (2^(m-1) + m) |t|_1
        m = self.weight
        width = slot_width((2 ** (m - 1) + m) * _max_l1(self.images))
        for _, packed in _packs(self.images, width):
            _check_lie(packed)

    @classmethod
    def _lie_checked(cls, genus: int, weight: int, images: tuple) -> "JohnsonCochain":
        """The cochain of images whose caller has just run the Lie check on
        them: every other check of the constructor runs."""
        self = object.__new__(cls)
        for name, value in (("genus", genus), ("weight", weight), ("images", images)):
            object.__setattr__(self, name, value)
        self._check_shape()
        return self

    def _check_shape(self):
        if self.weight < 1:
            raise ValueError("weight must be positive")
        if len(self.images) != 2 * self.genus:
            raise ValueError("need one image per basis vector")
        for img in self.images:
            if img.genus != self.genus:
                raise GenusMismatchError("image tensor has wrong genus")
            if not img.is_homogeneous(self.weight):
                raise ValueError(f"image not homogeneous of degree {self.weight}")

    def is_zero(self) -> bool:
        return all(img.is_zero() for img in self.images)

    def to_json_obj(self) -> dict:
        return {"weight": self.weight,
                "images": [img.to_json_obj() for img in self.images]}


def _max_l1(images) -> int:
    """The largest l1 norm (sum of absolute coefficients) of the images."""
    return max((sum(map(abs, img.terms.values())) for img in images), default=0)


def _check_lie(packed: TruncatedTensor):
    if not dynkin_is_lie(packed):
        raise ValueError("image fails the Lie-membership check")


def _packs(images, width: int):
    """(indices, pack) for each run of consecutive nonzero images, as many per
    run as PACK_BITS holds at this slot width, and at least one."""
    nonzero = [i for i, img in enumerate(images) if img.terms]
    per = max(1, PACK_BITS // width)
    for start in range(0, len(nonzero), per):
        run = nonzero[start:start + per]
        yield run, pack([images[i] for i in run], width)


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
    """M(f(x) x^{-1}) at `truncation` for the generator x of basis index i (from 0);
    its empty-word coefficient is always 1."""
    return magnus_expand(f.images[i] * generator(f.genus, i + 1, -1), truncation)


def _depth(expansions: list[TruncatedTensor], max_k: int) -> DepthResult:
    """Depth read off expansions whose lowest positive degrees are exact up to max_k + 1."""
    low = min((len(w) for e in expansions for w in e.terms if w), default=None)
    if low is None:
        return DepthResult(max_k, exact=False)
    return DepthResult(low - 1, exact=True)


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


def additive_tau(counts: dict, k: int) -> JohnsonCochain | None:
    """The level-k cochain of a composite, summed over `counts`, each factor's multiplicity.

    The generators are expanded shortest image first, and None is returned
    at the first whose expansion has a nonzero term of degree at most k.
    """
    weight, summands = k + 1, []
    for f, times in counts.items():
        images = [None] * len(f.images)
        for i in sorted(range(len(f.images)), key=lambda i: len(f.images[i])):
            terms = _expansion(f, i, weight).terms
            if min(map(len, filter(None, terms)), default=weight) <= k:
                return None
            images[i] = terms
        summands.append((times, images))
    genus = next(iter(counts)).genus
    return JohnsonCochain(genus, weight, tuple(
        TruncatedTensor(genus, _sum_terms(
            (w, times * c) for times, images in summands for w, c in images[i].items() if w))
        for i in range(2 * genus)))


def depth_of_sum(tau: JohnsonCochain, k: int, truncation: int, build) -> DepthResult:
    """Depth of the element build() returns, whose level-k cochain additive_tau summed to `tau`."""
    if not tau.is_zero():
        return DepthResult(k, exact=True)
    if truncation == k + 1:
        return DepthResult(k, exact=False)
    return filtration_depth(build(), truncation - 1)


def _raise_shallow(depth: int, k: int):
    raise DepthError(f"element has filtration depth {depth} < k = {k}; the level-{k} "
                     "invariant is undefined")


def depth_and_tau(f: FreeEndomorphism, k: int, truncation: int) -> tuple[DepthResult, JohnsonCochain]:
    """filtration_depth(f, truncation - 1) and tau_on_H(f, k): additive_tau over f alone.

    DepthError if the depth is below k, with the exact value filtration_depth
    reads at truncation k, whose expansions hold every term of degree <= k.
    """
    if truncation < k + 1:
        raise ValueError(f"truncation must be at least k+1 = {k + 1}")
    tau = additive_tau({f: 1}, k)
    if tau is None:
        _raise_shallow(filtration_depth(f, k - 1).value, k)
    return depth_of_sum(tau, k, truncation, lambda: f), tau


def derivation_apply(c: JohnsonCochain, t: TruncatedTensor) -> TruncatedTensor:
    """Leibniz extension of the cochain applied to a tensor.

    Each slot of each basis word is replaced in turn by its image under c,
    raising the degree by weight - 1 per replacement.
    """
    _same_genus(c, t)
    images, out = [img.terms.items() for img in c.images], {}
    for word, coeff in t.terms.items():
        for j, s in enumerate(word):
            head, tail = word[:j], word[j + 1:]
            for cw, cc in images[s - 1]:
                w = head + cw + tail
                out[w] = out.get(w, 0) + coeff * cc
    return TruncatedTensor(t.genus, {w: v for w, v in out.items() if v})


def tau_squared(c: JohnsonCochain) -> JohnsonCochain:
    """The derivation applied to the cochain's own images: weight k+1 -> 2k+1.

    The derivation runs once per pack of nonzero images, with one slot
    width for it and for the Lie check of its result: a derived image, of
    weight m = 2 weight - 1, has l1 norm at most weight * l1^2, for l1 the
    largest l1 norm of an image of c, and each coefficient of its D(t) - m t
    is at most (2^(m-1) + m) times that.  Each derived pack is Lie-checked before it is unpacked, so a
    squared image is checked where it is made, once, and the result skips
    the constructor's own check.
    """
    m, l1 = 2 * c.weight - 1, _max_l1(c.images)
    width = slot_width((2 ** (m - 1) + m) * c.weight * l1 * l1)
    images = list(c.images)  # a zero image stays zero
    for run, packed in _packs(c.images, width):
        derived = derivation_apply(c, packed)
        _check_lie(derived)
        for i, img in zip(run, unpack(derived, len(run), width)):
            images[i] = img
    return JohnsonCochain._lie_checked(c.genus, m, tuple(images))


WedgeTerm = tuple[int, tuple[HVector, HVector, HVector]]


def cochain_from_wedge3(genus: int, terms) -> JohnsonCochain:
    """Weight-2 cochain of a sum of coefficient-weighted wedge triples."""
    # the image of e_p sums coef * <vector, e_p> * bracket over the nonzero pairings
    sums = [{} for _ in range(2 * genus)]
    for coeff, (u, v, w) in terms:
        for vec in (u, v, w):
            if vec.genus != genus:
                raise GenusMismatchError("wedge vector has wrong genus")
        tu, tv, tw = ({(p + 1,): c for p, c in enumerate(vec.coords) if c} for vec in (u, v, w))
        brackets = (_bracket_terms(tv, tw), _bracket_terms(tw, tu), _bracket_terms(tu, tv))
        for vec, bracket in zip((u, v, w), brackets):
            for p, r in enumerate(pairing(vec)):
                if r:
                    out, k = sums[p], coeff * r
                    for word, c in bracket.items():
                        out[word] = out.get(word, 0) + k * c
    return JohnsonCochain(genus, 2, tuple(
        TruncatedTensor(genus, {w: c for w, c in out.items() if c}) for out in sums))


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


def sep_twist_tau(genus: int, index: int, k: int) -> JohnsonCochain:
    """tau_on_H(sep_twist(genus, index), k), read off its closed form.

    The twist maps a generator x of the first `index` handles to gamma x
    gamma^-1, where gamma = [a_1,b_1]...[a_index,b_index] expands to
    1 + omega + (degree >= 3) with omega = sum_{j <= index} [A_j, B_j], and
    fixes the rest.  So f(x) x^-1 = [gamma, x] has depth exactly 2: the
    cochain is zero at k = 1 and x -> [omega, X] at k = 2 (Johnson 1980;
    Morita 1993), and k >= 3 raises DepthError.  No word is built or expanded.
    """
    check_sep_index(genus, index)
    if k < 1:
        raise ValueError("level k must be at least 1")
    if k > 2:
        _raise_shallow(2, k)
    zero = TruncatedTensor(genus, {})
    if k == 1:
        return JohnsonCochain(genus, 2, (zero,) * (2 * genus))
    omega = TruncatedTensor(genus, {w: c for j in range(1, 2 * index, 2)
                                    for w, c in (((j, j + 1), 1), ((j + 1, j), -1))})
    return JohnsonCochain(genus, 3, tuple(
        lie_bracket(omega, TruncatedTensor(genus, {(x,): 1})) if x <= 2 * index else zero
        for x in range(1, 2 * genus + 1)))
