"""Filtration depth and the Johnson-type invariants of free-group endomorphisms.

For an endomorphism f acting trivially on the first k nilpotent quotients,
the map x -> f(x) x^{-1} induces a homomorphism from H to the degree-(k+1)
layer of the free Lie algebra; computationally, the image of a basis vector
is the degree-(k+1) graded part of the Magnus expansion of f(x) x^{-1}.
The cochain extends uniquely to a derivation of the tensor algebra, which
is how the squared invariant (needed at odd levels) is computed.

On J(k), the endomorphisms of depth at least k, the cochain is additive
(Johnson 1980; Morita 1993).  `depth_and_tau` is the one depth rule:
`additive_tau` sums the cochain over the factors of a composite, each
generator expanded once at truncation k+1, and stops at the first generator
with a term of degree d <= k.  A nonzero sum fixes the depth at k, and a
vanishing one bounds it below by k at truncation k+1; only otherwise is the
composite built and its depth read at the job truncation.  A sum that stops
is taken again over the built composite, whose exact depth then comes from
the generators it has not expanded, at truncation d - 1.

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


def _expansion(f: FreeEndomorphism, i: int, truncation: int) -> tuple[dict, int]:
    """The terms of M(f(x) x^{-1}) at `truncation` for the generator x of basis index i
    (from 0), and their lowest positive degree, truncation + 1 if there is none."""
    terms = magnus_expand(f.images[i] * generator(f.genus, i + 1, -1), truncation).terms
    return terms, min(map(len, filter(None, terms)), default=truncation + 1)


def filtration_depth(f: FreeEndomorphism, max_k: int) -> DepthResult:
    """Largest k <= max_k with all Magnus terms of f(x)x^{-1} - 1 vanishing in degrees 1..k.

    Expands to degree max_k + 1, so a first nonzero term there still yields
    an exact answer; otherwise the result is the lower bound max_k.
    """
    if max_k < 0:
        raise ValueError("max_k must be nonnegative")
    low = min(_expansion(f, i, max_k + 1)[1] for i in range(len(f.images)))
    return DepthResult(min(low, max_k + 1) - 1, exact=low <= max_k + 1)


def tau_on_H(f: FreeEndomorphism, k: int) -> JohnsonCochain:
    """Johnson cochain of f at level k; requires depth(f) >= k.

    The image of basis vector x is the degree-(k+1) part of the Magnus
    expansion of f(x) x^{-1}; lower positive degrees must vanish, else
    DepthError is raised.
    """
    if k < 1:
        raise ValueError("level k must be at least 1")
    return depth_and_tau({f: 1}, k, k + 1, lambda: f)[1]


def additive_tau(counts: dict, k: int) -> JohnsonCochain | tuple:
    """The level-k cochain of a composite, summed over `counts`, each factor's multiplicity.

    The generators are expanded shortest image first.  At the first whose
    expansion has a nonzero term of degree d <= k, the sum stops, and
    (that factor, the basis indices of its generators not yet expanded, d)
    is returned instead.
    """
    weight, summands = k + 1, []
    for f, times in counts.items():
        images = [None] * len(f.images)
        for i in sorted(range(len(f.images)), key=lambda i: len(f.images[i])):
            images[i], low = _expansion(f, i, weight)
            if low <= k:
                return f, [j for j, terms in enumerate(images) if terms is None], low
        summands.append((times, images))
    genus = next(iter(counts)).genus
    return JohnsonCochain(genus, weight, tuple(
        TruncatedTensor(genus, _sum_terms(
            (w, times * c) for times, images in summands for w, c in images[i].items() if w))
        for i in range(2 * genus)))


def _raise_shallow(depth: int, k: int):
    raise DepthError(f"element has filtration depth {depth} < k = {k}; the level-{k} "
                     "invariant is undefined")


def depth_and_tau(counts: dict, k: int, truncation: int,
                  build) -> tuple[DepthResult, JohnsonCochain]:
    """filtration_depth(f, truncation - 1) and tau_on_H(f, k) for f = build(), the
    composite of the factors `counts` counts, by the rule of the module docstring.

    DepthError if the depth is below k, with its exact value: the generator
    that stopped the sum has lowest degree d, those before it none below k+1,
    so the expansions of the rest at truncation d - 1 read it.
    """
    if truncation < k + 1:
        raise ValueError(f"truncation must be at least k+1 = {k + 1}")
    tau = additive_tau(counts, k)
    if isinstance(tau, tuple) and list(counts.values()) != [1]:
        f = build()
        build, tau = (lambda: f), additive_tau({f: 1}, k)
    if isinstance(tau, tuple):  # a term of degree below d shows at truncation d - 1
        f, rest, d = tau
        _raise_shallow(min([d] + [_expansion(f, i, d - 1)[1] for i in rest if d > 1]) - 1, k)
    if not tau.is_zero():
        return DepthResult(k, exact=True), tau
    if truncation == k + 1:
        return DepthResult(k, exact=False), tau
    return filtration_depth(build(), truncation - 1), tau


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
