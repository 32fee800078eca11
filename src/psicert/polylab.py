"""Exact integer polynomials: characteristic polynomials, factorization over Z,
and the factor-structure certification criterion.

Representation: over Z, `IntPolynomial`, an ascending coefficient tuple
with a nonzero leading coefficient (the zero polynomial is the empty
tuple).  Modulo m (a prime, or a prime power in Hensel lifting and
recombination), products and remainders go through the `_gf_*` kernel on
trimmed ascending lists of ints in [0, m).  The kernel reduces lazily: a
product sums the plain products and reduces once per output coefficient,
and a division (by a divisor whose leading coefficient is a unit) reduces
only the coefficient each quotient step reads, then the remainder once.
The powers modulo one fixed monic f of degree n that the distinct-degree
and Cantor-Zassenhaus loops take, x^p and h^((p^d-1)/2), run on packed
ints instead (`_gf_pow_mod`): a polynomial is one int with a slot of 64-bit
words per coefficient, wide enough for n^2(p-1)^3 (Kronecker substitution),
so a square is one big-int product in C; its remainder is Barrett's, from
x^(2n-2) div f, the reversed inverse of rev(f) mod x^(n-1) (von zur Gathen
and Gerhard, *Modern Computer Algebra*, sections 8.4 and 9.1), taken by the
same schoolbook division `_gf_divmod` as every other remainder.  That
quotient is set up once per modulus: once for f and again after each
product the distinct-degree loop divides out, and once per call of the
equal-degree split.  Euclid's remainder sequences, the resultants of the
certificate scan and the squarefree tests and the gcds of the
distinct-degree and Cantor-Zassenhaus loops, run on packed ints too, in one
routine (`_gf_resultant`): a slot of 64-bit words per coefficient, sized
from p alone (one word for every default scan prime), holds a lazy value
below 2p when a step starts; a quotient step adds (p - q) x^s times the
divisor, and one slotwise Barrett reduction per step brings every slot back
below 2p.  Hensel lifting and recombination modulo p^a keep the list kernel.

Factorization pipeline (all exact, no rationals):
  1. content/primitive split and squarefree decomposition: a factor x^v
     with v >= 2 is read off the low coefficients and joins the part of
     multiplicity v of the rest, so x^(2g), the characteristic polynomial of
     a nilpotent psi, needs no gcd; a primitive part (or rest) squarefree
     modulo an odd prime up to 13 not dividing its leading coefficient is
     squarefree over Z and is kept whole; otherwise Yun's algorithm splits
     it;
  2. each squarefree part is factored: Cantor-Zassenhaus factorization
     modulo the first odd prime with good reduction (for a part kept
     whole, the one step 1 found), quadratic multifactor Hensel lifting
     along a balanced factor tree to above the Mignotte bound, and
     exhaustive subset recombination: subsets in increasing size, filtered
     first by the trace test (the x^(d-1) coefficient of a candidate,
     lc * sum(subleading coefficients) mod p^a, lies within deg f * |f|_2 of
     0 for a true factor), found by a meet-in-the-middle search over the
     sorted subset sums of two halves of the factors, and then by the
     constant-term test (lc * prod(constant terms) mod p^a must divide the
     constant term of lc * f); at the middle size only the subsets holding
     the first factor are tried, since a subset and its complement give the
     same split; only a subset that passes both gets its product mod p^a and
     one exact trial division;
  3. then `find_certificate` scans each irreducible factor once for a
     certificate, a prime modulo which it stays irreducible, under one rule:
     the first listed prime that certifies it; when no primes are listed,
     the first default small prime, and failing that the working prime if
     the factor is irreducible modulo it.  A part that splits is never
     scanned whole, since it splits modulo every prime not dividing its
     leading coefficient.  An odd prime whose discriminant has the wrong
     parity for an irreducible polynomial is rejected before the
     distinct-degree loop.
The recombination is exhaustive over subsets, so the returned factors are
irreducible by construction even when no modular certificate exists, and
`criterion` only reads the certificates that `factor_z` records.
Both the certificate test and the modular factorization run on one lazy
distinct-degree loop; the squarefree test modulo a prime and the
discriminant each take one packed resultant Euclid, `_gf_resultant`.

The verdict reads only the multiset of factor degrees, through the one
predicate `even_degree_split`.  Verdicts are only ever
CERTIFIED_PSEUDO_ANOSOV or INCONCLUSIVE: the factor criterion is
sufficient, never necessary.
"""
from __future__ import annotations

import bisect
import itertools
import math
import random
import sys
from array import array
from dataclasses import dataclass

from .homology import IntMatrix, char_coeffs

CERTIFIED = "CERTIFIED_PSEUDO_ANOSOV"
INCONCLUSIVE = "INCONCLUSIVE"

CERTIFICATE_METHOD = "distinct-degree-gcd"

# array("Q") holds words in native order; packed ints are read little-endian
_BIG_ENDIAN = sys.byteorder == "big"


_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Miller-Rabin with the prime bases 2..37: exact for every n < 2^64
    (indeed below 3.3e24), a strong probable-prime test above.  Below 41^2
    trial division by the bases decides alone."""
    if n < 2:
        return False
    for p in _MILLER_RABIN_BASES:
        if n % p == 0:
            return n == p
    if n < 41 * 41:  # a composite with no prime factor up to 37 is at least 41^2
        return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MILLER_RABIN_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


DEFAULT_CERT_PRIMES = tuple(p for p in range(2, 100) if _is_prime(p))


@dataclass(frozen=True)
class IntPolynomial:
    """Integer polynomial, ascending coefficients, trimmed."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        if self.coeffs and self.coeffs[-1] == 0:
            raise ValueError("leading coefficient must be nonzero (use of_coeffs to trim)")

    @staticmethod
    def of_coeffs(coeffs) -> "IntPolynomial":
        cs = [int(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        return IntPolynomial(tuple(cs))

    @staticmethod
    def zero() -> "IntPolynomial":
        return IntPolynomial(())

    @staticmethod
    def constant(c: int) -> "IntPolynomial":
        return IntPolynomial.of_coeffs([c])

    # ---- basics ---------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def leading(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPolynomial.of_coeffs(out)

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        return self + other.scale(-1)

    def scale(self, k: int) -> "IntPolynomial":
        if k == 0:
            return IntPolynomial.zero()
        return IntPolynomial(tuple(k * c for c in self.coeffs))

    def derivative(self) -> "IntPolynomial":
        return IntPolynomial.of_coeffs([i * c for i, c in enumerate(self.coeffs)][1:])

    def content(self) -> int:
        """gcd of coefficients with the sign of the leading coefficient; 0 for zero."""
        if not self.coeffs:
            return 0
        g = 0
        for c in self.coeffs:
            g = math.gcd(g, c)
        return g if self.leading > 0 else -g

    def primitive_part(self) -> "IntPolynomial":
        c = self.content()
        if c == 0:
            return self
        return IntPolynomial(tuple(x // c for x in self.coeffs))

    def divmod_exact(self, divisor: "IntPolynomial"):
        """Integer long division; returns (q, r) or None when a step is non-divisible."""
        if divisor.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        rem = list(self.coeffs)
        dl = divisor.degree
        lead = divisor.leading
        if len(rem) - 1 < dl:
            return IntPolynomial.zero(), self
        q = [0] * (len(rem) - dl)
        for i in range(len(rem) - 1, dl - 1, -1):
            c = rem[i]
            if c == 0:
                continue
            step, r = divmod(c, lead)
            if r:
                return None
            q[i - dl] = step
            for j, d in enumerate(divisor.coeffs):
                rem[i - dl + j] -= step * d
        return IntPolynomial.of_coeffs(q), IntPolynomial.of_coeffs(rem)

    # ---- serialization ---------------------------------------------------
    def to_json_obj(self) -> list[str]:
        return [str(c) for c in self.coeffs]


def charpoly(m: IntMatrix) -> IntPolynomial:
    """det(xI - m), monic, exactly: `homology.char_coeffs` reduces m to Hessenberg
    form modulo proven primes and joins the residues by CRT."""
    return IntPolynomial.of_coeffs(char_coeffs(m))


# ---------------------------------------------------------------------------
# gcd and squarefree decomposition over Z
# ---------------------------------------------------------------------------

def _pseudo_rem(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    # a scaled by a power of lc(b), reduced below deg b; exact integer steps
    lead, n = b.leading, b.degree
    r = list(a.coeffs)
    while len(r) > n:
        c, shift = r[-1], len(r) - 1 - n
        r = [lead * x for x in r]
        for j, d in enumerate(b.coeffs):
            r[shift + j] -= c * d
        while r and r[-1] == 0:
            r.pop()
    return IntPolynomial(tuple(r))


def gcd_z(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    """Primitive gcd over Z with positive leading coefficient (primitive PRS);
    coprime inputs give the gcd of their contents."""
    if a.is_zero() and b.is_zero():
        return IntPolynomial.zero()
    p, q = a.primitive_part(), b.primitive_part()
    if p.degree < q.degree:
        p, q = q, p
    while not q.is_zero():
        p, q = q, _pseudo_rem(p, q).primitive_part()
    return p if p.degree > 0 else IntPolynomial.constant(math.gcd(a.content(), b.content()))


def squarefree_decomposition(p: IntPolynomial) -> list[tuple[IntPolynomial, int, int | None]]:
    """Squarefree decomposition of the primitive part, as (factor,
    multiplicity, prime) triples.

    When x^v divides the primitive part with v >= 2, the rest is decomposed
    alone and x joins its part of multiplicity v, or is that part; the
    grouping is Yun's on the whole.  A primitive part (or rest) that is
    squarefree modulo an odd prime up to 13 not dividing its leading
    coefficient is squarefree over Z (its discriminant is nonzero modulo
    that prime), and is returned whole with that prime; otherwise Yun's
    algorithm splits it, and its parts carry None.  Parts come in ascending
    multiplicity.  Factors are primitive with positive leading coefficient;
    content and sign are NOT included (callers track them separately).
    """
    if p.is_zero():
        raise ValueError("zero polynomial")
    work = p.primitive_part()
    v = next(i for i, c in enumerate(work.coeffs) if c)
    if v < 2:
        return _squarefree_parts(work)
    # x^v is read off the low coefficients: the rest is split alone, and x
    # joins its part of multiplicity v (multiplicities are distinct)
    rest = IntPolynomial(work.coeffs[v:])
    parts = {mult: (q, prime)
             for q, mult, prime in (_squarefree_parts(rest) if rest.degree > 0 else ())}
    q = parts.get(v, (IntPolynomial((1,)), None))[0]
    parts[v] = (IntPolynomial((0,) + q.coeffs), None)
    return [(q, mult, prime) for mult, (q, prime) in sorted(parts.items())]


def _squarefree_parts(work: IntPolynomial) -> list[tuple[IntPolynomial, int, int | None]]:
    """`squarefree_decomposition` of a primitive `work`, with no read-off of x^v."""
    prime = _good_reduction_prime(work, 13)
    if prime:
        return [(work, 1, prime)]
    g = gcd_z(work, work.derivative())
    c = work.divmod_exact(g)[0]
    d = work.derivative().divmod_exact(g)[0] - c.derivative()
    out, i = [], 1
    while c.degree > 0:
        p_i = gcd_z(c, d)
        c = c.divmod_exact(p_i)[0]
        d = d.divmod_exact(p_i)[0] - c.derivative()
        if p_i.degree > 0:
            out.append((p_i, i, None))
        i += 1
    return out


# ---------------------------------------------------------------------------
# polynomials over GF(p): dense lists of ints in [0, p)
# ---------------------------------------------------------------------------

def _gf_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _gf_from_int_poly(f: IntPolynomial, p: int) -> list[int]:
    return _gf_trim([c % p for c in f.coeffs])


def _gf_sub(a, b, p):
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] = c
    for i, c in enumerate(b):
        out[i] = (out[i] - c) % p
    return _gf_trim(out)


def _gf_mul(a, b, p):
    # plain products summed per output coefficient, reduced once at the end
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        if not c:
            continue
        for j, d in enumerate(b, i):
            out[j] += c * d
    return _gf_trim([c % p for c in out])


def _gf_divmod(a, b, m):
    """Quotient and remainder of a by b modulo m (b nonzero, its leading
    coefficient a unit modulo m).

    The inputs must be reduced to [0, m).  Each quotient step reduces only
    the coefficient it reads; the leading position is skipped (it cancels),
    and the remainder is reduced once at the end.  Python ints keep the
    unreduced values exact.
    """
    if not b:
        raise ZeroDivisionError
    a = a[:]
    n = len(b) - 1
    low = b[:n]
    inv = None if b[-1] == 1 else pow(b[-1], -1, m)
    q = [0] * max(0, len(a) - n)
    for i in range(len(a) - 1, n - 1, -1):
        step = a[i] % m
        if not step:
            continue
        if inv is not None:
            step = step * inv % m
        q[i - n] = step
        for j, d in enumerate(low, i - n):
            a[j] -= step * d
    return _gf_trim(q), _gf_trim([c % m for c in a[:n]])


def _gf_monic(a, p):
    if not a or a[-1] == 1:
        return a[:]
    inv = pow(a[-1], p - 2, p)
    return [c * inv % p for c in a]


def _gf_pack(a, words):
    """One int holding the coefficients of a, each in [0, 2^64), in slots of
    `words` 64-bit words, lowest degree in the lowest slot."""
    slots = array("Q", a)
    if words > 1:
        wide = array("Q", bytes(8 * words * len(a)))
        wide[::words] = slots
        slots = wide
    if _BIG_ENDIAN:
        slots.byteswap()
    return int.from_bytes(slots, "little")


def _gf_unpack(x, count, words):
    """The first `count` slot values of a packed x (every slot nonnegative)."""
    data = (x & ((1 << 64 * words * count) - 1)).to_bytes(8 * words * count, "little")
    if words > 1:
        size = 8 * words
        return [int.from_bytes(data[i:i + size], "little") for i in range(0, len(data), size)]
    slots = array("Q", data)
    if _BIG_ENDIAN:
        slots.byteswap()
    return slots.tolist()


class _Barrett:
    """What `_gf_pow_mod` reduces by, set up once per modulus: the monic f of
    degree n >= 1 over GF(p), its low part f - x^n, and x^(2n-2) div f (the
    reversal of rev(f)^-1 mod x^(n-1), von zur Gathen and Gerhard, *Modern
    Computer Algebra*, section 9.1), taken by `_gf_divmod`; all three packed.

    A slot is `words` 64-bit words, sized from n^2(p-1)^3: a product of two
    reduced polynomials has coefficients at most n(p-1)^2, and its top n-1
    coefficients times the inverse at most n(n-1)(p-1)^3.  `offset` holds in
    each of n slots a multiple of p no smaller than the (n-1)(p-1)^2 that a
    quotient times f's low part reaches, so the remainder's slots stay
    nonnegative and at most (2n-1)(p-1)^2 + p - 1, inside the bound for n >= 2.
    """

    __slots__ = ("f", "p", "n", "words", "inverse", "low", "offset")

    def __init__(self, f, p):
        n = len(f) - 1
        self.f, self.p, self.n = f, p, n
        self.words = words = max(1, -(-(n * n * (p - 1) ** 3).bit_length() // 64))
        self.inverse = _gf_pack(_gf_divmod([0] * (2 * n - 2) + [1], f, p)[0], words)
        self.low = _gf_pack(f[:n], words)
        slot = -(-(n - 1) * (p - 1) ** 2 // p) * p
        self.offset = int.from_bytes(slot.to_bytes(8 * words, "little") * n, "little")


def _gf_pow_mod(base, e, modulus: _Barrett):
    """base^e mod f over GF(p) for the f and p of `modulus` (base reduced
    mod p, of any degree), by left-to-right square and multiply on packed ints.

    Each square or product is one big-int product (Kronecker substitution,
    von zur Gathen and Gerhard, section 8.4), and its remainder two more
    (Barrett): the top n-1 coefficients times the inverse give the quotient
    q, and the low n minus q times f's low part the remainder.
    """
    if e == 0:
        return [1]
    f, p, n, words = modulus.f, modulus.p, modulus.n, modulus.words
    inverse, low, offset = modulus.inverse, modulus.low, modulus.offset
    width = 64 * words
    cut, shift, mask = n * width, (n - 2) * width, (1 << n * width) - 1

    def reduce(c):
        high = c >> cut
        if high:
            q = [v % p for v in _gf_unpack((high * inverse) >> shift, n - 1, words)]
            c = (c & mask) + offset - ((_gf_pack(q, words) * low) & mask)
        return _gf_pack([v % p for v in _gf_unpack(c, n, words)], words)

    packed = _gf_pack(_gf_divmod(base, f, p)[1] if len(base) > n else base, words)
    result = packed
    for bit in bin(e)[3:]:
        result = reduce(result * result)
        if bit == "1":
            result = reduce(result * packed)
    return _gf_trim(_gf_unpack(result, n, words))


def _gf_derivative(a, p):
    return _gf_trim([i * c % p for i, c in enumerate(a)][1:])


# per prime p: (degree, words, width, shift, mu, ones, inverses); see
# `_gf_euclid_layout`
_EUCLID_LAYOUTS: dict[int, tuple] = {}


def _gf_euclid_layout(p, degree):
    """The packed layout of `_gf_resultant` modulo p for inputs up to
    `degree`, set up once per prime (and again when a larger degree comes).

    A slot is `words` 64-bit words, `width` bits, and a slot value v below
    2^shift, with shift = floor((width + bitlen(p) - 1) / 2), is reduced by
    Barrett's method: with mu = floor(2^shift / p), q = floor(v mu / 2^shift)
    is floor(v / p) or one less, so v - p q lies in [0, 2p).  Since
    v mu < 2^(2 shift) / p <= 2^width, the slots of (packed * mu) do not
    overlap; shifted right by `shift`, each slot holds its q in its low
    width - shift bits and the low bits of the next slot's product above them,
    which the repunit `ones` (width - shift one bits per slot) drops.  The
    words are the fewest that keep (degree + 2) 2p^2, the slot bound of a
    Euclid step, below 2^shift.  Below 256, `inverses` lists the inverses
    mod p (None above).  The cache forgets every prime after 256 of them.
    """
    bound = ((degree + 2) * 2 * p * p).bit_length()
    words = -(-(2 * bound - p.bit_length() + 1) // 64)
    width = 64 * words
    shift = (width + p.bit_length() - 1) // 2
    ones = ((1 << width - shift) - 1).to_bytes(8 * words, "little") * (degree + 1)
    inverses = [0] + [pow(c, -1, p) for c in range(1, p)] if p < 256 else None
    if len(_EUCLID_LAYOUTS) >= 256:
        _EUCLID_LAYOUTS.clear()
    layout = _EUCLID_LAYOUTS[p] = (degree, words, width, shift, (1 << shift) // p,
                                   int.from_bytes(ones, "little"), inverses)
    return layout


def _gf_resultant(a, b, p, gcd=False):
    """Res(a, b) over GF(p) (a and b reduced lists), taken at their actual
    degrees; 0 when either is zero or they share a factor.  With `gcd`, the
    monic gcd of a and b instead (the empty list when both are zero), read
    off the same remainder sequence.

    One Euclid: each step uses Res(a, b) = (-1)^(deg a deg b)
    lc(b)^(deg a - deg r) Res(b, r) for r = a mod b, down to Res(a, c) =
    c^(deg a) for a constant c.  It runs on packed ints: each polynomial is
    one int with a slot of `_gf_euclid_layout` per coefficient, and every
    slot lies in [0, 2p) when a step starts.  A quotient step reads the top
    slot of the dividend mod p (every slot above it is 0 mod p, so the
    shifted int is congruent to it; the first step's is the leading
    coefficient, already known) and adds (p - q) x^s times the divisor,
    which keeps every slot nonnegative and makes the top slot 0 mod p; a
    step adds at most deg a + 1 such multiples to a slot, so every slot
    stays below (deg a + 2) 2p^2.  The remainder's degree and leading
    coefficient are read the same way from its top down; it is cut to its
    degree and brought back below 2p by one slotwise Barrett reduction.  The
    resultant reads only degrees and leading coefficients; the gcd unpacks
    only its last remainder.
    """
    if not a or not b:
        return _gf_monic(a or b, p) if gcd else 0
    m, n, res = len(a) - 1, len(b) - 1, 1
    if not n:  # Res(a, c) = c^(deg a) for a constant c
        return [1] if gcd else pow(b[0], m, p)
    if not m:
        return [1] if gcd else pow(a[0], n, p)
    if m < n:  # Res(a, b) = (-1)^(deg a deg b) Res(b, a)
        a, b, m, n = b, a, n, m
        if m & n & 1:
            res = -1
    layout = _EUCLID_LAYOUTS.get(p)
    if layout is None or layout[0] < m + n:
        layout = _gf_euclid_layout(p, 2 * (m + n))
    _, words, width, shift, mu, ones, inverses = layout
    cut = width * (m + 1)
    packed = _gf_pack(a + b, words)
    small = packed >> cut
    big = packed - (small << cut)
    above, lead = a[-1], b[-1]
    while True:
        inv = inverses[lead] if inverses else pow(lead, -1, p)
        low, top = width * n, width * m
        q = above * inv % p
        while True:
            big += (p - q) * small << top - low
            top -= width
            if top < low:
                break
            q = (big >> top) % p * inv % p
        r = n - 1
        while r >= 0:
            c = (big >> top) % p
            if c:
                break
            r, top = r - 1, top - width
        if gcd:
            if r == 0:
                return [1]
            if r < 0:
                return _gf_mul(_gf_unpack(small, n + 1, words), [inv], p)
        else:
            if r < 0:
                return 0
            if m & n & 1:
                res = -res
            res = res * pow(lead, m - r, p) % p
            if r == 0:
                return res * pow(c, n, p) % p
        big &= (1 << top + width) - 1
        big -= p * ((big * mu >> shift) & ones)
        big, small, m, n, above, lead = small, big, n, r, lead, c


def _gf_gcd(a, b, p):
    """Monic gcd of a and b over GF(p), by `_gf_resultant`'s remainder sequence."""
    return _gf_resultant(a, b, p, True)


def irreducible_mod_p(f: IntPolynomial, prime: int) -> bool:
    """Distinct-degree irreducibility test for f modulo a prime.

    Requires the prime not to divide the leading coefficient.  True means
    f mod prime is irreducible over GF(prime); for monic f that certifies
    irreducibility over Z.

    For an odd prime and degree n >= 2, the discriminant of f mod prime is
    read first, as (-1)^(n(n-1)/2) Res(f, f') of the monic reduction with one
    Euclid (f monic, so the degree of f', lower when the prime divides n,
    does not change it).  By Stickelberger's theorem (Swan, Pacific J. Math.
    12, 1962) a squarefree f with r irreducible factors modulo an odd prime
    has a square discriminant exactly when n - r is even, so an irreducible f
    has a nonzero square discriminant at odd n and a nonsquare one at even n.
    A zero discriminant (f is not squarefree) or one of the wrong parity
    rejects the prime without the distinct-degree loop.
    """
    if not _is_prime(prime):
        raise ValueError(f"{prime} is not prime")
    if f.is_zero() or f.leading % prime == 0:
        raise ValueError("prime divides the leading coefficient")
    fbar = _gf_monic(_gf_from_int_poly(f, prime), prime)
    n = len(fbar) - 1
    if n <= 0:
        raise ValueError("polynomial is constant modulo the prime")
    if prime != 2 and n >= 2:
        disc = _gf_resultant(fbar, _gf_derivative(fbar, prime), prime)
        if n * (n - 1) // 2 % 2:
            disc = -disc % prime
        if not disc or pow(disc, (prime - 1) // 2, prime) != (1 if n % 2 else prime - 1):
            return False
    return next(_distinct_degree(fbar, prime))[1] == n


def _gf_squarefree(fbar, p):
    # over a field Res(f, f') != 0 exactly when gcd(f, f') = 1
    return _gf_resultant(fbar, _gf_derivative(fbar, p), p) != 0


def _good_reduction_prime(f: IntPolynomial, bound: int | None = None) -> int | None:
    """First odd prime, up to `bound` when one is given, that does not divide
    lc(f) and modulo which f is squarefree; None when there is none up to it."""
    p = 3
    while bound is None or p <= bound:
        if _is_prime(p) and f.leading % p and _gf_squarefree(_gf_from_int_poly(f, p), p):
            return p
        p += 2
    return None


def _distinct_degree(fbar, p):
    """Yield (product of the irreducible factors of degree d, d) for monic fbar,
    in increasing d.

    For squarefree fbar the products multiply back to fbar.  For any fbar the
    first d yielded is the smallest degree of an irreducible factor, so it
    equals deg fbar exactly when fbar is irreducible.  The powers x^(p^d)
    reduce by one `_Barrett` set-up for fbar, and one more for each quotient
    left by a divided product that the loop goes on with.
    """
    x = [0, 1]
    power = x
    f = fbar
    modulus = None
    d = 0
    while len(f) > 1:
        d += 1
        if 2 * d > len(f) - 1:
            yield f, len(f) - 1
            return
        if modulus is None:
            modulus = _Barrett(f, p)
        power = _gf_pow_mod(power, p, modulus)
        g = _gf_gcd(_gf_sub(power, x, p), f, p)
        if len(g) > 1:
            yield g, d
            f = _gf_divmod(f, g, p)[0]
            modulus = None


def _equal_degree(fbar, d, p, rng):
    """Cantor-Zassenhaus split of a monic squarefree product of degree-d
    irreducibles (p odd); each call that splits sets up `_Barrett` once."""
    n = len(fbar) - 1
    if n == d:
        return [fbar]
    exponent = (p ** d - 1) // 2
    modulus = _Barrett(fbar, p)
    while True:
        h = [rng.randrange(p) for _ in range(n)]
        h = _gf_trim(h)
        if len(h) - 1 < 1:
            continue
        g = _gf_gcd(h, fbar, p)
        if len(g) - 1 >= 1:
            split = g
        else:
            t = _gf_sub(_gf_pow_mod(h, exponent, modulus), [1], p)
            split = _gf_gcd(t, fbar, p)
        if 1 <= len(split) - 1 < n:
            rest = _gf_divmod(fbar, split, p)[0]
            return _equal_degree(split, d, p, rng) + _equal_degree(rest, d, p, rng)


def _factor_mod_p(fbar, p, rng):
    """Monic irreducible factors of a monic squarefree fbar over GF(p), p odd."""
    out = []
    for prod, d in _distinct_degree(fbar, p):
        out.extend(_equal_degree(prod, d, p, rng))
    out.sort(key=lambda g: (len(g), g))
    return out


# ---------------------------------------------------------------------------
# Hensel lifting and recombination
# ---------------------------------------------------------------------------

def _mignotte_exponent(f: IntPolynomial, p: int) -> int:
    """Smallest a with p^a > 2 * (factor coefficient bound) * |lc(f)|."""
    norm_sq = sum(c * c for c in f.coeffs)
    bound = (math.isqrt(norm_sq) + 1) * (1 << f.degree) * abs(f.leading)
    target = 2 * bound + 1
    a, power = 1, p
    while power < target:
        power *= p
        a += 1
    return a


def _hensel_lift(f: IntPolynomial, p: int, factors: list[list[int]], exponent: int):
    """Lift f = lc * prod(factors) from mod p to mod p^exponent.

    `factors` are monic and pairwise coprime mod p, and exponent >= 1;
    returns their monic lifts mod p^exponent, in the same order, with
    f = lc * prod(lifts) mod p^exponent, and the modulus.  Such lifts are
    unique.

    Quadratic multifactor lifting (von zur Gathen and Gerhard, *Modern
    Computer Algebra*, ch. 15): `_factor_tree` splits the factors into
    halves, recursively, and `_hensel_step` lifts the monic F = f / lc down
    the tree along the exponents 1 -> ... -> ceil(a/2) -> a, so each step at
    most doubles the exponent and the last lands on a.  Each step but the
    last lifts the inverses of the tree along with the factors.
    """
    exponents = [exponent]
    while exponents[-1] > 1:
        exponents.append((exponents[-1] + 1) // 2)
    exponents.reverse()
    modulus = p ** exponent
    inverse = pow(f.leading, -1, modulus)
    monic = [c * inverse % modulus for c in f.coeffs]
    leaves = [[g[:]] for g in factors]
    tree = _factor_tree(leaves, p)
    for low, high in zip(exponents, exponents[1:]):
        new = p ** high
        _hensel_step(tree, [c % new for c in monic], p ** low, new, high == exponent)
    return [leaf[0] for leaf in leaves], modulus


def _factor_tree(nodes, p):
    """The tree over the leaves [g] in `nodes`: an inner node is
    [product, left, right, s], with s * L = 1 mod (R, p) for the products L
    and R of its two halves.  The left half is the longest run of leaves of
    at most half the degree."""
    if len(nodes) == 1:
        return nodes[0]
    degrees = list(itertools.accumulate(len(node[0]) - 1 for node in nodes))
    half = min(max(1, sum(2 * d <= degrees[-1] for d in degrees)), len(nodes) - 1)
    left, right = _factor_tree(nodes[:half], p), _factor_tree(nodes[half:], p)
    return [_gf_mul(left[0], right[0], p), left, right, _gf_inverse_mod(left[0], right[0], p)]


def _hensel_step(node, target, m, new, last):
    """Set the node to the monic `target` mod `new` and lift its halves L and
    R from mod m to a factorization of it (m | new | m^2); lift the node's
    inverse s of L mod R too unless this is the `last` step.

    With e = (target - L * R) / m, R moves by m * (s * e rem R) and L becomes
    target / R; s moves by -m * (s * u rem R), with u = (s * L - 1) / m
    taken mod R (Newton iteration for the inverse).  Each correction is
    computed mod new / m.
    """
    node[0] = target
    if len(node) == 1:
        return
    _, left, right, s = node
    low, high = left[0], right[0]
    d = new // m
    err = _gf_sub(target, _gf_mul(low, high, new), new)
    assert all(c % m == 0 for c in err), "lift invariant broken"
    s_d = _gf_trim([c % d for c in s])
    r = _gf_divmod(_gf_mul(s_d, [c // m for c in err], d), [c % d for c in high], d)[1]
    high = [c + m * x for c, x in itertools.zip_longest(high, r, fillvalue=0)]
    low = _gf_divmod(target, high, new)[0]
    if not last:
        u = _gf_sub(_gf_divmod(_gf_mul(s, low, new), high, new)[1], [1], new)
        r = _gf_divmod(_gf_mul(s_d, [c // m for c in u], d), [c % d for c in high], d)[1]
        node[3] = _gf_sub(s, [m * c for c in r], new)
    _hensel_step(left, low, m, new, last)
    _hensel_step(right, high, m, new, last)


def _gf_inverse_mod(a, mod, p):
    # extended Euclid over GF(p)[x]
    r0, r1 = mod[:], _gf_divmod(a, mod, p)[1]
    t0, t1 = [], [1]
    while r1:
        q, r = _gf_divmod(r0, r1, p)
        r0, r1 = r1, r
        t0, t1 = t1, _gf_sub(t0, _gf_mul(q, t1, p), p)
    if len(r0) - 1 != 0:
        raise ValueError("not invertible")
    inv = pow(r0[0], p - 2, p)
    return _gf_trim([c * inv % p for c in t0])


def _symmetric(c: int, modulus: int) -> int:
    c %= modulus
    if 2 * c > modulus:
        c -= modulus
    return c


def _zassenhaus_squarefree(f: IntPolynomial, rng: random.Random, primes, p: int | None = None):
    """Irreducible factors of a primitive squarefree f (deg >= 1, lc > 0),
    each paired with its certificate prime or None.

    Reducibility is decided first: f is factored modulo its good-reduction
    prime, lifted and recombined, and only then is each irreducible factor
    scanned, once, by `find_certificate(q, primes)`: a primitive f that
    splits over Z splits modulo every prime not dividing its leading
    coefficient, so no scan of f itself could succeed.  When no primes are
    listed, an f irreducible modulo the working prime falls back to that
    prime if the default scan finds none.  The working prime is `p` when the
    caller already found it, and otherwise the first odd prime with good
    reduction.
    """
    if f.degree == 1:
        return [(f, find_certificate(f, primes))]
    p = p or _good_reduction_prime(f)
    fbar = _gf_monic(_gf_from_int_poly(f, p), p)
    modular = _factor_mod_p(fbar, p, rng)
    if len(modular) == 1:
        fallback = p if primes is None else None
        return [(f, find_certificate(f, primes) or fallback)]
    exponent = _mignotte_exponent(f, p)
    lifted, modulus = _hensel_lift(f, p, modular, exponent)
    return [(q, find_certificate(q, primes)) for q in _recombine(f, lifted, modulus)]


def _recombine(f: IntPolynomial, lifted: list[list[int]], modulus: int) -> list[IntPolynomial]:
    """Irreducible factors of a primitive squarefree f (lc > 0) from the monic
    lifts of its modular factors mod `modulus`, which is above twice the
    Mignotte bound times lc(f).

    Subsets in increasing size: a candidate lc * prod(subset) mod p^a is a
    true factor (times a divisor of lc) exactly when it divides lc * current,
    and every smaller subset has been rejected by then, so it is irreducible.
    A subset and its complement give the same split, so at the middle size
    only the subsets holding the first remaining factor are tried.  Only the
    subsets that `_trace_passes` lets through, by the trace and constant-term
    tests, get their product mod p^a and one exact trial division.

    The trace bound: a true factor G of current, with current = G * H, makes
    the candidate lc(H) * G, whose x^(d-1) coefficient is at most
    d * |lc(H)| * M(G) <= deg f * M(f) <= deg f * |f|_2 in absolute value
    (Mignotte, through the Mahler measure M), so below `bound`;
    `_mignotte_exponent` puts p^a above twice it.
    """
    bound = f.degree * (math.isqrt(sum(c * c for c in f.coeffs)) + 1)
    assert modulus > 2 * bound, "p^a must exceed twice the trace bound"
    factors = []
    remaining = list(range(len(lifted)))
    current = f
    size = 1
    while 2 * size <= len(remaining):
        lc = current.leading
        target = current.scale(lc)
        traces = [lifted[i][-2] for i in remaining]
        constants = [lifted[i][0] for i in remaining]
        for combo in _trace_passes(traces, constants, size, lc, target.coeffs[0], modulus,
                                   bound, 2 * size == len(remaining)):
            combo = [remaining[i] for i in combo]
            product = [1]
            for i in combo:
                product = _gf_mul(product, lifted[i], modulus)
            g = IntPolynomial.of_coeffs([_symmetric(lc * c, modulus) for c in product])
            division = target.divmod_exact(g)
            if division is not None and division[1].is_zero():
                factors.append(g.primitive_part())
                current = division[0].primitive_part()
                remaining = [i for i in remaining if i not in combo]
                break
        else:
            size += 1
    factors.append(current)
    return factors


def _trace_passes(traces, constants, size, lc, t0, modulus, bound, first):
    """The `size`-subsets of positions, in `itertools.combinations` order
    (with `first`, only those holding position 0), whose candidate passes the
    trace test and then the constant-term test.

    The candidate lc * prod(g_i) mod p^a of monic g_i has the x^(d-1)
    coefficient lc * sum(t_i), for the subleading coefficients t_i in
    `traces`; the trace test asks that it lie in [-bound, bound] mod p^a
    (Abbott, Shoup and Zimmermann, ISSAC 2000).  The sum is additive, so the
    search meets in the middle: a subset is a part of the left half of the
    positions and a part of the right half, and for each left part of sum v
    the right parts whose sums lie in the cyclic window [-bound - v,
    bound - v] mod p^a are found by bisection among the sorted sums of the
    right parts of the remaining size.  A left part's hits are contiguous in
    combinations order, and the left parts come in that order too.  The
    constant-term test then asks that the symmetric residue of
    lc * prod(constant terms) mod p^a divide the target's, t0.
    """
    n = len(traces)
    half = (n + 1) // 2
    values = [lc * t % modulus for t in traces]
    left_sizes = range(max(0, size - (n - half)), min(size, half) + 1)
    right = {}
    for k in left_sizes:
        parts = sorted((sum(values[i] for i in part) % modulus, part)
                       for part in itertools.combinations(range(half, n), size - k))
        right[size - k] = ([v for v, _ in parts], [part for _, part in parts])
    # a left part followed by any right part sorts as the left part with
    # `half`, above every left position, appended
    lefts = sorted((part for k in left_sizes for part in itertools.combinations(range(half), k)
                    if not first or (part and part[0] == 0)), key=lambda part: part + (half,))
    for left in lefts:
        sums, parts = right[size - len(left)]
        v = sum(values[i] for i in left)
        lo, hi = (-bound - v) % modulus, (bound - v) % modulus
        start, stop = bisect.bisect_left(sums, lo), bisect.bisect_right(sums, hi)
        hits = parts[start:stop] if lo <= hi else parts[start:] + parts[:stop]
        if not hits:
            continue
        base = lc
        for i in left:
            base = base * constants[i] % modulus
        for part in sorted(hits):
            g0 = base
            for i in part:
                g0 = g0 * constants[i] % modulus
            if 2 * g0 > modulus:
                g0 -= modulus
            if not ((t0 % g0) if g0 else t0):
                yield list(left + part)


@dataclass(frozen=True)
class Factorization:
    """constant * prod(factor^multiplicity) reconstructs the input exactly;
    `certificates` maps each factor that has a certificate to its prime."""

    constant: int
    factors: tuple[tuple[IntPolynomial, int], ...]
    certificates: dict  # IntPolynomial -> prime


def factor_z(p: IntPolynomial, primes=None) -> Factorization:
    """Complete irreducible factorization over Z.

    Factors are primitive with positive leading coefficient, sorted by
    (degree, coefficients); the integer constant carries content and sign.
    A factor's certificate is a prime, not dividing its leading coefficient,
    modulo which it is irreducible: the first of `primes` when they are
    listed, and otherwise the first default small prime or the working
    prime (see `_zassenhaus_squarefree`).
    """
    constant = p.content()
    rng = random.Random(repr(p.coeffs))
    collected: dict[IntPolynomial, int] = {}
    certificates: dict[IntPolynomial, int] = {}
    for sqfree, mult, prime in squarefree_decomposition(p):
        for q, cert in _zassenhaus_squarefree(sqfree, rng, primes, prime):
            collected[q] = mult  # the squarefree parts are coprime
            if cert is not None:
                certificates[q] = cert
    factors = tuple(sorted(collected.items(), key=lambda kv: (kv[0].degree, kv[0].coeffs)))
    return Factorization(constant, factors, certificates)


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------

def find_certificate(q: IntPolynomial, primes=None) -> int | None:
    """First distinct prime of `primes` (default DEFAULT_CERT_PRIMES), not
    dividing the leading coefficient, modulo which q is irreducible."""
    if q.degree < 1:
        return None
    for prime in dict.fromkeys(DEFAULT_CERT_PRIMES if primes is None else primes):
        if q.leading % prime == 0:
            continue
        if irreducible_mod_p(q, prime):
            return prime
    return None


def even_degree_split(degrees: list[int]) -> bool:
    """True iff the degree multiset splits into two nonempty parts with even sums.

    Parts of an odd total cannot both be even.  With an even total, one even
    degree is a part on its own, and with none, two of the four or more odd
    degrees are; only a pair of odd degrees has no such split.
    """
    return sum(degrees) % 2 == 0 and len(degrees) >= 2 and not (
        len(degrees) == 2 and degrees[0] % 2)


# the benchmark's own test suite calls the predicate by its former name
has_even_even_split = even_degree_split


@dataclass(frozen=True)
class CriterionReport:
    charpoly: IntPolynomial
    factors: tuple[tuple[IntPolynomial, int], ...]
    verdict: str
    reasons: dict
    certificates: tuple  # certificate prime or None, aligned with factors

    def to_json_obj(self) -> dict:
        return {
            "charpoly": self.charpoly.to_json_obj(),
            "factors": [{"poly": q.to_json_obj(), "multiplicity": m,
                         "certificate": None if c is None
                         else {"prime": c, "method": CERTIFICATE_METHOD}}
                        for (q, m), c in zip(self.factors, self.certificates)],
            "verdict": self.verdict,
            "reasons": self.reasons,
        }


def criterion(p: IntPolynomial, primes=None) -> CriterionReport:
    """Factor-structure verdict for a monic polynomial.

    CERTIFIED iff no irreducible factor is linear and the factor multiset
    admits no split into two nonempty parts of even total degree ("nontrivial"
    reads as a proper two-part factorization; the polynomial never counts as
    its own even factor).  The certificates are those `factor_z` found.
    """
    if not p.is_monic():
        raise ValueError("criterion expects a monic polynomial")
    fz = factor_z(p, primes)
    degrees = [q.degree for q, m in fz.factors for _ in range(m)]
    linear = any(d == 1 for d in degrees)
    split = even_degree_split(degrees)
    irreducible = len(degrees) == 1
    two_odd = len(degrees) == 2 and all(d % 2 == 1 and d > 1 for d in degrees)
    verdict = CERTIFIED if (not linear and not split) else INCONCLUSIVE
    reasons = {
        "irreducible": irreducible,
        "degree_one_factor": linear,
        "even_degree_split": split,
        "two_odd_irreducible_factors": two_odd,
        "nontrivial_reading": "proper two-part factorizations only",
    }
    certs = tuple(fz.certificates.get(q) for q, _ in fz.factors)
    return CriterionReport(p, fz.factors, verdict, reasons, certs)
