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
tests that nothing is left; it builds no tensor for D(t).  `_sum_terms`
builds the term dicts of `_bracket_terms` and `johnson.additive_tau`, and
drops cancelled words once, at the end; `magnus_expand`, `pack`, `unpack`,
`_add_dynkin` and `johnson.derivation_apply` build their own.

Linear maps such as D and a derivation can run on several tensors at once
by Kronecker substitution: `pack` joins tensors t_0, t_1, ... into one whose
coefficient on a word is the sum of t_x's coefficients times 2^(x*b), and
`unpack` reads the slots back as balanced base-2^b digits.  When every slot
of the packed result is below 2^(b-1) in absolute value (`slot_width` gives
b for a bound), the packed coefficient is zero exactly when every slot is,
and each slot is the result of the map on its own tensor.
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


def _bracket_terms(s: dict[BasisWord, int], t: dict[BasisWord, int]) -> dict[BasisWord, int]:
    """The terms of [s, t] = s t - t s for term dicts s and t."""
    return _sum_terms(pair for w1, c1 in s.items() for w2, c2 in t.items()
                      for pair in ((w1 + w2, c1 * c2), (w2 + w1, -c1 * c2)))


def lie_bracket(s: TruncatedTensor, t: TruncatedTensor) -> TruncatedTensor:
    """[s, t] = s t - t s in the tensor algebra."""
    _same_genus(s, t)
    return TruncatedTensor(s.genus, _bracket_terms(s.terms, t.terms))


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


# A pack holds at most this many bits per coefficient (but always one
# image).  Wider packs share more words between images, but a pack's Lie
# check holds the words of all its images at once, and many wide slots cost
# more in big-integer arithmetic than sharing saves (the genus-36 job below).
# Measured in process on a 2-core x86 VM, seed 1, best of 3 passes (runs
# varied by up to 30%), at 64 / 128 / 256 / 1,024 bits / one pack per
# cochain: an odd-level pass took 0.76 / 0.67 / 0.65 / 0.62 / 0.62 s, against
# 0.98 s for the one-image-at-a-time check this replaced, and the largest
# traced allocation peak of a case was 4.6 / 4.3 / 5.3 / 5.3 / 5.3 MiB,
# against 6.0 MiB.  A genus-36 wedge3 job of 64 terms with 63-bit
# coefficients, whose slots exceed 64 bits, took 16 / 14 / 16 / 20 / 20 s,
# against 15 s.  128 bits is the width with the lowest peak and no loss on
# that job.
PACK_BITS = 128


def slot_width(bound: int) -> int:
    """The slot width b in bits that holds every integer of absolute value at
    most `bound` as a balanced digit, in [-2^(b-1), 2^(b-1))."""
    return bound.bit_length() + 1


def pack(tensors: list[TruncatedTensor], width: int) -> TruncatedTensor:
    """One tensor holding tensors[x] in bits [x*width, (x+1)*width) of each
    coefficient; a single tensor is returned as it is.  Each coefficient must
    be below 2^(width-1) in absolute value, so no packed one is zero."""
    if len(tensors) == 1:
        return tensors[0]
    out = dict(tensors[0].terms)
    for x, t in enumerate(tensors[1:], 1):
        shift = x * width
        for w, c in t.terms.items():
            out[w] = out.get(w, 0) + (c << shift)
    return TruncatedTensor(tensors[0].genus, out)


def unpack(t: TruncatedTensor, count: int, width: int) -> list[TruncatedTensor]:
    """The `count` tensors packed into t by `pack` with this width."""
    if count == 1:
        return [t]
    half, mask = 1 << (width - 1), (1 << width) - 1
    slots: list[dict[BasisWord, int]] = [{} for _ in range(count)]
    for w, c in t.terms.items():
        x = 0
        while c:  # until every later slot is zero
            # a slot is zero exactly when its bits are, so skip to the lowest set bit's
            skip = ((c & -c).bit_length() - 1) // width
            c >>= skip * width
            digit = ((c + half) & mask) - half
            slots[x + skip][w] = digit
            c = (c - digit) >> width
            x += skip + 1
    return [TruncatedTensor(t.genus, terms) for terms in slots]


def _add_dynkin(out: dict[int, int], terms: dict[int, int], degree: int) -> dict[int, int]:
    """Add D of `terms`, nonempty and homogeneous of `degree` >= 2, into `out`.

    A word is coded as an int, one byte per letter with the last letter
    lowest, so a word's last letter is its low byte and its prefix the rest.
    At degree 2, D(u s) = us - su is added directly, and the returned dict
    may hold zeros.  Above it, the words are grouped by their last letter s
    and the groups are taken one at a time: D of a group's sum of prefixes
    is computed, recursively, bracketed with s and added into `out`, and the
    group is dropped, so no word is expanded into its own 2^(m-1) terms.  A
    word whose coefficient in `out` cancels there is dropped from it.
    """
    if degree == 2:
        for us, c in terms.items():
            su = (us & 255) << 8 | us >> 8
            out[us] = out.get(us, 0) + c
            out[su] = out.get(su, 0) - c
        return out
    groups: dict[int, dict[int, int]] = {}
    for word, c in terms.items():
        groups.setdefault(word & 255, {})[word >> 8] = c
    del terms  # the groups hold every term; a temporary argument can go
    shift = 8 * (degree - 1)
    while groups:
        s, prefixes = groups.popitem()
        high = s << shift
        for w, c in _add_dynkin({}, prefixes, degree - 1).items():
            if c:
                ws, sw = w << 8 | s, high | w
                v = out.get(ws, 0) + c
                if v:
                    out[ws] = v
                else:
                    del out[ws]
                v = out.get(sw, 0) - c
                if v:
                    out[sw] = v
                else:
                    del out[sw]
    return out


def dynkin_is_lie(t: TruncatedTensor) -> bool:
    """True iff a homogeneous degree-m tensor satisfies D(t) = m*t.

    This certifies membership in the embedded degree-m layer of the free
    Lie algebra (valid over the rationals, hence for exact integer input).
    D(t) is added, one last-letter group at a time, into the residual
    -m*t, which must vanish; no tensor is built for D(t).  Zero tensors
    pass and so does every tensor of degree 1; non-homogeneous input and
    degree 0 are errors.  Words are coded one byte per letter, so the genus
    is at most 127 (jobs stop at 36).
    """
    if t.is_zero():
        return True
    m = t.max_degree()
    if m < 1 or not t.is_homogeneous(m):
        raise ValueError("input must be homogeneous of degree >= 1")
    if m == 1:
        return True
    if t.genus > 127:
        raise ValueError("the Lie check codes a letter in one byte: genus must be at most 127")
    residual = {int.from_bytes(bytes(w), "big"): -m * c for w, c in t.terms.items()}
    return not any(_add_dynkin(residual, dict(zip(residual, t.terms.values())), m).values())
