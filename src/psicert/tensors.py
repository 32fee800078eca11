"""Truncated tensor algebra over H with exact integer coefficients.

A basis word of H^{(d)} is a tuple of d symbol indices in 1..2g (same
indexing as group generators: 2j-1 is a_j, 2j is b_j).  A TruncatedTensor
is a genus and a sparse map from basis words to nonzero integers; it carries
no degree bound of its own.  Degrees are bounded in one place, the
`truncation` argument of `magnus_expand`, which its caller chooses; every
other operation here is exact.  Construction validates the terms with
C-speed scans (a stored zero, the smallest and largest symbol) and walks
the terms one by one only to name the first fault.

The Magnus expansion sends a generator x to 1 + X and its inverse to the
truncated geometric series 1 - X + X^2 - ...; for a word in the m-th lower
central subgroup the expansion minus 1 starts in degree m, and that leading
part is the word's class in the degree-m layer of the free Lie algebra,
embedded in the tensor algebra by iterated brackets [x, y] = xy - yx.
Membership of a homogeneous tensor t in that embedded layer is certified by
the Dynkin map, D(x) = x and D(u s) = [D(u), s] for a word u and a letter s,
which multiplies a degree-m Lie element by m.  `dynkin_is_lie` adds D(t)
into the residual -m*t, one last-letter group at a time (depth first), and
tests that nothing is left; it builds no tensor for D(t).  Term dicts are
built by `_sum_terms`, which drops the cancelled words once, at the end.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import _same_genus
from .words import GroupWord, letter_name

BasisWord = tuple[int, ...]


@dataclass(frozen=True)
class TruncatedTensor:
    """Sparse integer element of the tensor algebra: a finite sum of basis words."""

    genus: int
    terms: dict  # BasisWord -> nonzero int; treated as immutable

    def __post_init__(self):
        if self.genus < 1:
            raise ValueError("genus must be positive")
        terms, n = self.terms, 2 * self.genus
        symbols = set().union(*terms)
        if 0 in terms.values() or symbols and (min(symbols) < 1 or max(symbols) > n):
            for word, coeff in terms.items():  # name the first fault, in term order
                if coeff == 0:
                    raise ValueError("stored zero coefficient")
                if any(not 1 <= s <= n for s in word):
                    raise ValueError("symbol index out of range")

    def is_zero(self) -> bool:
        return not self.terms

    def max_degree(self) -> int:
        return max(map(len, self.terms), default=0)

    def is_homogeneous(self, degree: int) -> bool:
        return set(map(len, self.terms)) <= {degree}

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


def lie_bracket(s: TruncatedTensor, t: TruncatedTensor) -> TruncatedTensor:
    """[s, t] = s t - t s in the tensor algebra."""
    _same_genus(s, t)
    return TruncatedTensor(s.genus, _sum_terms(
        pair for w1, c1 in s.terms.items() for w2, c2 in t.terms.items()
        for pair in ((w1 + w2, c1 * c2), (w2 + w1, -c1 * c2))))


def magnus_expand(w: GroupWord, truncation: int) -> TruncatedTensor:
    """Magnus expansion of a word through degree `truncation`, multiplicative.

    Generator letters map to 1 + X and inverse letters to the truncated
    geometric series 1 - X + X^2 - ...; the factors multiply left to right,
    so each letter keeps every term and adds its shift by X, or by X^d with
    sign (-1)^d for every d that fits for an inverse letter.  The bound is
    the caller's: the returned tensor holds every term of degree at most
    `truncation` and carries no bound of its own.
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
    return TruncatedTensor(w.genus, acc)


def _add_dynkin(out: dict[BasisWord, int], terms: dict[BasisWord, int]) -> dict[BasisWord, int]:
    """Add D of `terms`, nonempty and homogeneous of degree >= 2, into `out`.

    The words are grouped by their last letter s; D of each group's sum of
    prefixes is computed, recursively, before the next group's and then
    bracketed with s, so no word is expanded into its own 2^(m-1) terms.
    The returned dict may hold zeros.
    """
    groups: dict[int, dict[BasisWord, int]] = {}
    for word, c in terms.items():
        groups.setdefault(word[-1], {})[word[:-1]] = c
    for s, prefixes in groups.items():
        # letters map to themselves
        inner = prefixes if len(next(iter(prefixes))) == 1 else _add_dynkin({}, prefixes)
        for w, c in inner.items():
            if c:
                ws, sw = w + (s,), (s,) + w
                out[ws] = out.get(ws, 0) + c
                out[sw] = out.get(sw, 0) - c
    return out


def dynkin_is_lie(t: TruncatedTensor) -> bool:
    """True iff a homogeneous degree-m tensor satisfies D(t) = m*t.

    This certifies membership in the embedded degree-m layer of the free
    Lie algebra (valid over the rationals, hence for exact integer input).
    D(t) is added, one last-letter group at a time, into the residual
    -m*t, which must vanish; no tensor is built for D(t).  Zero tensors
    pass and so does every tensor of degree 1; non-homogeneous input and
    degree 0 are errors.
    """
    if t.is_zero():
        return True
    m = t.max_degree()
    if m < 1 or not t.is_homogeneous(m):
        raise ValueError("input must be homogeneous of degree >= 1")
    if m == 1:
        return True
    return not any(_add_dynkin({w: -m * c for w, c in t.terms.items()}, t.terms).values())
