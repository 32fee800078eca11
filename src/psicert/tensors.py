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
the Dynkin idempotent: left-to-right bracketing multiplies a degree-m Lie
element by m.
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
        out = {w: c for w, c in self.terms.items() if len(w) <= d}
        for w, c in other.terms.items():
            if len(w) > d:
                continue
            s = out.get(w, 0) + c
            if s:
                out[w] = s
            else:
                out.pop(w, None)
        return TruncatedTensor(self.genus, d, out)

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


def tensor_mul(s: TruncatedTensor, t: TruncatedTensor) -> TruncatedTensor:
    """Concatenation product, truncated at min(truncations)."""
    _same_genus(s, t)
    d = min(s.truncation, t.truncation)
    out: dict[BasisWord, int] = {}
    for w1, c1 in s.terms.items():
        if len(w1) > d:
            continue
        room = d - len(w1)
        for w2, c2 in t.terms.items():
            if len(w2) > room:
                continue
            w = w1 + w2
            v = out.get(w, 0) + c1 * c2
            if v:
                out[w] = v
            else:
                out.pop(w, None)
    return TruncatedTensor(s.genus, d, out)


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


def _left_bracketing(word: BasisWord) -> dict[BasisWord, int]:
    # [[...[x1,x2],...],xm] expanded in the tensor algebra
    acc = {word[:1]: 1}
    for s in word[1:]:
        out: dict[BasisWord, int] = {}
        for w, c in acc.items():
            for key, v in ((w + (s,), c), ((s,) + w, -c)):
                t = out.get(key, 0) + v
                if t:
                    out[key] = t
                else:
                    out.pop(key, None)
        acc = out
    return acc


def dynkin_image(t: TruncatedTensor) -> TruncatedTensor:
    """Left-to-right bracketing applied termwise (the Dynkin map)."""
    out: dict[BasisWord, int] = {}
    for word, coeff in t.terms.items():
        if not word:
            raise ValueError("Dynkin map is undefined in degree 0")
        for w, c in _left_bracketing(word).items():
            v = out.get(w, 0) + coeff * c
            if v:
                out[w] = v
            else:
                out.pop(w, None)
    return TruncatedTensor(t.genus, t.truncation, out)


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
