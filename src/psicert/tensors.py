"""Truncated tensor algebra over H with exact integer coefficients.

A basis word of H^{(d)} is a tuple of d symbol indices in 1..2g (same
indexing as group generators: 2j-1 is a_j, 2j is b_j).  A TruncatedTensor
stores a sparse map from basis words to nonzero integers together with an
explicit truncation degree; products silently discard degrees beyond the
truncation, and mixing two truncations takes the minimum.  Asking for a
graded part beyond the truncation is an error, never a silent zero.

The Magnus expansion sends a generator x to 1 + X and its inverse to the
truncated geometric series 1 - X + X^2 - ...; for a word in the m-th lower
central subgroup the expansion minus 1 starts in degree m, and that leading
part is the word's class in the degree-m layer of the free Lie algebra,
embedded in the tensor algebra by iterated brackets [x, y] = xy - yx.
Membership of a homogeneous tensor in that embedded layer is certified by
the Dynkin map, D(x) = x and D(u s) = [D(u), s] for a word u and a letter s,
which multiplies a degree-m Lie element by m.  Term dicts are built by
`_sum_terms`, which drops the cancelled words once, at the end.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import TruncationError, _same_genus
from .homology import HVector
from .words import GroupWord, letter_name

BasisWord = tuple[int, ...]


@dataclass(frozen=True)
class TruncatedTensor:
    """Sparse integer element of the tensor algebra truncated at `truncation`."""

    genus: int
    truncation: int
    terms: dict  # BasisWord -> nonzero int; treated as immutable

    def __post_init__(self):
        if self.genus < 1:
            raise ValueError("genus must be positive")
        if self.truncation < 0:
            raise ValueError("truncation must be nonnegative")
        n = 2 * self.genus
        for word, coeff in self.terms.items():
            if coeff == 0:
                raise ValueError("stored zero coefficient")
            if len(word) > self.truncation:
                raise ValueError("stored word beyond truncation")
            if any(not 1 <= s <= n for s in word):
                raise ValueError("symbol index out of range")

    # ---- constructors -------------------------------------------------
    @staticmethod
    def zero(genus: int, truncation: int) -> "TruncatedTensor":
        return TruncatedTensor(genus, truncation, {})

    @staticmethod
    def unit(genus: int, truncation: int) -> "TruncatedTensor":
        return TruncatedTensor(genus, truncation, {(): 1})

    @staticmethod
    def symbol(genus: int, index: int, truncation: int) -> "TruncatedTensor":
        return TruncatedTensor(genus, truncation, {(index,): 1})

    @staticmethod
    def from_hvector(v: HVector, truncation: int) -> "TruncatedTensor":
        terms = {(p + 1,): c for p, c in enumerate(v.coords) if c}
        return TruncatedTensor(v.genus, truncation, terms)

    # ---- linear structure ---------------------------------------------
    def __add__(self, other: "TruncatedTensor") -> "TruncatedTensor":
        _same_genus(self, other)
        d = min(self.truncation, other.truncation)
        return TruncatedTensor(self.genus, d, _sum_terms(
            (w, c) for t in (self, other) for w, c in t.terms.items() if len(w) <= d))

    def __sub__(self, other: "TruncatedTensor") -> "TruncatedTensor":
        return self + other.scale(-1)

    def __neg__(self) -> "TruncatedTensor":
        return self.scale(-1)

    def scale(self, k: int) -> "TruncatedTensor":
        if k == 0:
            return TruncatedTensor.zero(self.genus, self.truncation)
        return TruncatedTensor(self.genus, self.truncation, {w: k * c for w, c in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    # ---- grading -------------------------------------------------------
    def max_degree(self) -> int:
        return max((len(w) for w in self.terms), default=0)

    def min_degree(self) -> int | None:
        """Lowest degree with a nonzero term, None for the zero tensor."""
        return min((len(w) for w in self.terms), default=None)

    def is_homogeneous(self, degree: int) -> bool:
        return all(len(w) == degree for w in self.terms)

    def with_truncation(self, truncation: int) -> "TruncatedTensor":
        """Same element viewed at a higher truncation (raising only)."""
        if truncation < self.truncation:
            raise TruncationError("use graded parts to lower a truncation explicitly")
        return TruncatedTensor(self.genus, truncation, dict(self.terms))

    def __mul__(self, other):
        if isinstance(other, TruncatedTensor):
            return tensor_mul(self, other)
        if isinstance(other, int):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        return NotImplemented

    # ---- serialization ---------------------------------------------------
    def to_json_obj(self) -> list:
        """Canonical list form: sorted by (degree, word), coefficients as strings."""
        items = sorted(self.terms.items(), key=lambda kv: (len(kv[0]), kv[0]))
        return [{"word": [letter_name(s) for s in w], "coeff": str(c)} for w, c in items]


def _sum_terms(pairs) -> dict[BasisWord, int]:
    """Sum (word, coefficient) pairs into a term dict, dropping zero sums once."""
    out: dict[BasisWord, int] = {}
    for w, c in pairs:
        out[w] = out.get(w, 0) + c
    return {w: c for w, c in out.items() if c}


def tensor_mul(s: TruncatedTensor, t: TruncatedTensor) -> TruncatedTensor:
    """Concatenation product, truncated at min(truncations)."""
    _same_genus(s, t)
    d = min(s.truncation, t.truncation)
    return TruncatedTensor(s.genus, d, _sum_terms(
        (w1 + w2, c1 * c2) for w1, c1 in s.terms.items()
        for w2, c2 in t.terms.items() if len(w1) + len(w2) <= d))


def lie_bracket(s: TruncatedTensor, t: TruncatedTensor) -> TruncatedTensor:
    """[s, t] = s t - t s in the tensor algebra."""
    return tensor_mul(s, t) - tensor_mul(t, s)


def graded_part(t: TruncatedTensor, degree: int) -> TruncatedTensor:
    """Homogeneous degree-d component; degrees beyond the truncation are an error."""
    if degree > t.truncation:
        raise TruncationError(
            f"degree {degree} exceeds truncation {t.truncation}; recompute upstream with a larger truncation")
    return TruncatedTensor(t.genus, degree, {w: c for w, c in t.terms.items() if len(w) == degree})


def magnus_expand(w: GroupWord, truncation: int) -> TruncatedTensor:
    """Magnus expansion of a word, multiplicative and truncated.

    Generator letters map to 1 + X and inverse letters to the truncated
    geometric series 1 - X + X^2 - ...; the factors multiply left to right,
    so each letter keeps every term and adds its shift by X, or by X^d with
    sign (-1)^d for every d that fits for an inverse letter.
    """
    if truncation < 1:
        raise ValueError("truncation must be at least 1")
    acc = {(): 1}
    for idx, sign in w.letters:
        reach = 1 if sign == 1 else truncation
        out = dict(acc)
        for word, c in acc.items():
            for _ in range(min(reach, truncation - len(word))):
                word += (idx,)
                c *= sign
                out[word] = out.get(word, 0) + c
        acc = {word: c for word, c in out.items() if c}
    return TruncatedTensor(w.genus, truncation, acc)


def _dynkin_pairs(terms: dict[BasisWord, int]):
    # letters map to themselves; the words u s ending in s give [D(sum of u), s]
    prefixes: dict[int, dict[BasisWord, int]] = {}
    for word, c in terms.items():
        if len(word) == 1:
            yield word, c
        else:
            prefixes.setdefault(word[-1], {})[word[:-1]] = c
    for s, u in prefixes.items():
        for w, c in _sum_terms(_dynkin_pairs(u)).items():
            yield w + (s,), c
            yield (s,) + w, -c


def dynkin_image(t: TruncatedTensor) -> TruncatedTensor:
    """The Dynkin map, linear with D(x) = x on letters and D(u s) = [D(u), s].

    Words of degree >= 2 are grouped by their last letter s, and D of each
    group's sum of prefixes is computed once, recursively, then bracketed
    with s: no word is expanded into its own 2^(m-1) terms.
    """
    if () in t.terms:
        raise ValueError("Dynkin map is undefined in degree 0")
    return TruncatedTensor(t.genus, t.truncation, _sum_terms(_dynkin_pairs(t.terms)))


def dynkin_is_lie(t: TruncatedTensor) -> bool:
    """True iff a homogeneous degree-m tensor satisfies dynkin(t) = m*t.

    This certifies membership in the embedded degree-m layer of the free
    Lie algebra (valid over the rationals, hence for exact integer input).
    Zero tensors pass; non-homogeneous input is an error.
    """
    if t.is_zero():
        return True
    m = t.max_degree()
    if m < 1 or not t.is_homogeneous(m):
        raise ValueError("input must be homogeneous of degree >= 1")
    return dynkin_image(t).terms == {w: m * c for w, c in t.terms.items()}
