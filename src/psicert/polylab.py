"""Exact integer polynomials: characteristic polynomials, factorization over Z,
and the factor-structure certification criterion.

Representation: over Z, `IntPolynomial`, an ascending coefficient tuple
with a nonzero leading coefficient (the zero polynomial is the empty
tuple).  Modulo m (a prime, or a prime power in Hensel lifting and
recombination), every product and remainder goes through the `_gf_*`
kernel on trimmed ascending lists of ints in [0, m).

Factorization pipeline (all exact, no rationals):
  1. content/primitive split and squarefree decomposition: a primitive part
     squarefree modulo an odd prime up to 13 not dividing its leading
     coefficient is squarefree over Z and is kept whole; otherwise Yun's
     algorithm splits it;
  2. for each squarefree part, the certificate scan `find_certificate` looks
     for a prime modulo which the part is irreducible, trying the job's
     primes in order and then the default small primes; one found ends the
     work and, if it may be reported, is the part's certificate;
  3. otherwise: Cantor-Zassenhaus factorization modulo a small odd prime
     with good reduction, linear Hensel lifting to above the Mignotte
     bound, and exhaustive subset recombination: subsets in increasing
     size, each tested first on its constant term, lc * prod(constant
     terms) mod p^a, which must divide that of lc * f; only a subset that
     passes gets its product mod p^a and one exact trial division.
The recombination is exhaustive over subsets, so the returned factors are
irreducible by construction even when no modular certificate exists; each
proper factor it splits off gets one scan for its own certificate, and
`criterion` only reads the certificates that `factor_z` records.
Both the certificate test and the modular factorization run on one lazy
distinct-degree loop.

The verdict reads only the multiset of factor degrees, through the one
predicate `even_degree_split`.  Verdicts are only ever
CERTIFIED_PSEUDO_ANOSOV or INCONCLUSIVE: the factor criterion is
sufficient, never necessary.
"""
from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import ClassVar

from .homology import IntMatrix, char_coeffs

CERTIFIED = "CERTIFIED_PSEUDO_ANOSOV"
INCONCLUSIVE = "INCONCLUSIVE"

CERTIFICATE_METHOD = "distinct-degree-gcd"


_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Miller-Rabin with the prime bases 2..37: exact for every n < 2^64
    (indeed below 3.3e24), a strong probable-prime test above."""
    if n < 2:
        return False
    for p in _MILLER_RABIN_BASES:
        if n % p == 0:
            return n == p
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
    def one() -> "IntPolynomial":
        return IntPolynomial((1,))

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

    def __neg__(self) -> "IntPolynomial":
        return self.scale(-1)

    def scale(self, k: int) -> "IntPolynomial":
        if k == 0:
            return IntPolynomial.zero()
        return IntPolynomial(tuple(k * c for c in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return IntPolynomial.zero()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return IntPolynomial(tuple(out))

    def __rmul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, n: int) -> "IntPolynomial":
        out = IntPolynomial.one()
        for _ in range(n):
            out = out * self
        return out

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

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if not c:
                continue
            if i == 0:
                term = str(abs(c))
            else:
                mag = "" if abs(c) == 1 else str(abs(c))
                term = f"{mag}x" if i == 1 else f"{mag}x^{i}"
            if not parts:
                parts.append(("-" if c < 0 else "") + term)
            else:
                parts.append(("- " if c < 0 else "+ ") + term)
        return " ".join(parts)


def charpoly(m: IntMatrix) -> IntPolynomial:
    """det(xI - m), monic, by the division-free scheme."""
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


def squarefree_decomposition(p: IntPolynomial) -> list[tuple[IntPolynomial, int]]:
    """Squarefree decomposition of the primitive part; returns (factor,
    multiplicity) pairs.

    A primitive part that is squarefree modulo an odd prime up to 13 not
    dividing its leading coefficient is squarefree over Z (its discriminant
    is nonzero modulo that prime), and is returned as it is; otherwise Yun's
    algorithm runs.  Factors are primitive with positive leading coefficient;
    content and sign are NOT included (callers track them separately).
    """
    if p.is_zero():
        raise ValueError("zero polynomial")
    work = p.primitive_part()
    if _good_reduction_prime(work, 13):
        return [(work, 1)]
    g = gcd_z(work, work.derivative())
    c = work.divmod_exact(g)[0]
    d = work.derivative().divmod_exact(g)[0] - c.derivative()
    out, i = [], 1
    while c.degree > 0:
        p_i = gcd_z(c, d)
        c = c.divmod_exact(p_i)[0]
        d = d.divmod_exact(p_i)[0] - c.derivative()
        if p_i.degree > 0:
            out.append((p_i, i))
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
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        if not c:
            continue
        for j, d in enumerate(b):
            out[i + j] = (out[i + j] + c * d) % p
    return _gf_trim(out)


def _gf_divmod(a, b, p):
    if not b:
        raise ZeroDivisionError
    a = a[:]
    inv = pow(b[-1], p - 2, p)
    q = [0] * max(0, len(a) - len(b) + 1)
    for i in range(len(a) - 1, len(b) - 2, -1):
        c = a[i]
        if not c:
            continue
        step = c * inv % p
        q[i - (len(b) - 1)] = step
        for j, d in enumerate(b):
            a[i - (len(b) - 1) + j] = (a[i - (len(b) - 1) + j] - step * d) % p
    return _gf_trim(q), _gf_trim(a)


def _gf_rem(a, b, p):
    return _gf_divmod(a, b, p)[1]


def _gf_monic(a, p):
    if not a or a[-1] == 1:
        return a[:]
    inv = pow(a[-1], p - 2, p)
    return [c * inv % p for c in a]


def _gf_gcd(a, b, p):
    while b:
        a, b = b, _gf_rem(a, b, p)
    return _gf_monic(a, p)


def _gf_pow_mod(base, e, mod, p):
    result = [1]
    base = _gf_rem(base, mod, p)
    while e:
        if e & 1:
            result = _gf_rem(_gf_mul(result, base, p), mod, p)
        base = _gf_rem(_gf_mul(base, base, p), mod, p)
        e >>= 1
    return result


def irreducible_mod_p(f: IntPolynomial, prime: int) -> bool:
    """Distinct-degree irreducibility test for f modulo a prime.

    Requires the prime not to divide the leading coefficient.  True means
    f mod prime is irreducible over GF(prime); for monic f that certifies
    irreducibility over Z.
    """
    if not _is_prime(prime):
        raise ValueError(f"{prime} is not prime")
    if f.is_zero() or f.leading % prime == 0:
        raise ValueError("prime divides the leading coefficient")
    fbar = _gf_monic(_gf_from_int_poly(f, prime), prime)
    n = len(fbar) - 1
    if n <= 0:
        raise ValueError("polynomial is constant modulo the prime")
    return next(_distinct_degree(fbar, prime))[1] == n


def _gf_squarefree(fbar, p):
    d = _gf_trim([(i * c) % p for i, c in enumerate(fbar)][1:])
    if not d:
        return False
    return len(_gf_gcd(fbar, d, p)) == 1


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
    equals deg fbar exactly when fbar is irreducible.
    """
    x = [0, 1]
    power = x
    f = fbar
    d = 0
    while len(f) > 1:
        d += 1
        if 2 * d > len(f) - 1:
            yield f, len(f) - 1
            return
        power = _gf_pow_mod(power, p, f, p)
        g = _gf_gcd(_gf_sub(power, x, p), f, p)
        if len(g) > 1:
            yield g, d
            f = _gf_divmod(f, g, p)[0]
            power = _gf_rem(power, f, p)


def _equal_degree(fbar, d, p, rng):
    """Cantor-Zassenhaus split of a monic squarefree product of degree-d irreducibles (p odd)."""
    n = len(fbar) - 1
    if n == d:
        return [fbar]
    exponent = (p ** d - 1) // 2
    while True:
        h = [rng.randrange(p) for _ in range(n)]
        h = _gf_trim(h)
        if len(h) - 1 < 1:
            continue
        g = _gf_gcd(h, fbar, p)
        if len(g) - 1 >= 1:
            split = g
        else:
            t = _gf_sub(_gf_pow_mod(h, exponent, fbar, p), [1], p)
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
    """Lift f = lc * prod(factors) from mod p to mod p^exponent (linear lifting).

    `factors` are monic and pairwise coprime mod p; returns monic lifts
    mod p^exponent with f = lc * prod(lifts) mod p^exponent.
    """
    lc = f.leading
    # CRT basis: sigma_i = (f / g_i)^-1 mod g_i, for f mod p = lc * prod(g_j)
    fbar = _gf_from_int_poly(f, p)
    sigmas = [_gf_inverse_mod(_gf_divmod(fbar, g, p)[0], g, p) for g in factors]
    lifted = [g[:] for g in factors]
    modulus = p
    for _ in range(exponent - 1):
        # error E = f - lc * prod(lifted) reduced mod p * modulus: a multiple of modulus
        next_modulus = modulus * p
        prod = [lc % next_modulus]
        for g in lifted:
            prod = _gf_mul(prod, g, next_modulus)
        err = _gf_sub(_gf_from_int_poly(f, next_modulus), prod, next_modulus)
        assert all(c % modulus == 0 for c in err), "lift invariant broken"
        ebar = [c // modulus for c in err]
        # delta_i = E / modulus * sigma_i mod g_i has degree < deg g_i
        for g, sigma, orig in zip(lifted, sigmas, factors):
            for i, c in enumerate(_gf_rem(_gf_mul(ebar, sigma, p), orig, p)):
                g[i] += modulus * c
        modulus = next_modulus
    return lifted, modulus


def _gf_inverse_mod(a, mod, p):
    # extended Euclid over GF(p)[x]
    r0, r1 = mod[:], _gf_rem(a, mod, p)
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


def _zassenhaus_squarefree(f: IntPolynomial, rng: random.Random, primes):
    """Irreducible factors of a primitive squarefree f (deg >= 1, lc > 0),
    each paired with the Certificate it found for it or None."""
    if f.degree == 1:
        return [(f, find_certificate(f, primes))]
    # fast path: f irreducible modulo a small prime is irreducible over Z
    cert = find_certificate(f, (*(primes or ()), *DEFAULT_CERT_PRIMES))
    if cert is not None:
        return [(f, cert)]
    p = _good_reduction_prime(f)
    fbar = _gf_monic(_gf_from_int_poly(f, p), p)
    modular = _factor_mod_p(fbar, p, rng)
    if len(modular) == 1:
        return [(f, Certificate(p))]
    exponent = _mignotte_exponent(f, p)
    lifted, modulus = _hensel_lift(f, p, modular, exponent)

    # Subsets in increasing size: a candidate lc * prod(subset) mod p^a is a
    # true factor (times a divisor of lc) exactly when it divides lc * current,
    # and every smaller subset has been rejected by then, so it is irreducible.
    factors = []
    remaining = list(range(len(lifted)))
    current = f
    size = 1
    while 2 * size <= len(remaining):
        lc = current.leading
        target = current.scale(lc)
        t0 = target.coeffs[0]
        for combo in itertools.combinations(remaining, size):
            # a factor's constant term divides the target's; the candidate's is
            # lc * prod(constant terms) mod p^a, so test it before the product
            g0 = lc
            for i in combo:
                g0 = g0 * lifted[i][0] % modulus
            g0 = _symmetric(g0, modulus)
            if (t0 % g0) if g0 else t0:
                continue
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
    if not factors:
        return [(f, None)]  # the fast path has tested f modulo every listed prime
    factors.append(current)
    return [(q, find_certificate(q, primes)) for q in factors]


@dataclass(frozen=True)
class Factorization:
    """constant * prod(factor^multiplicity) reconstructs the input exactly;
    `certificates` maps each factor that has a certificate to its prime."""

    constant: int
    factors: tuple[tuple[IntPolynomial, int], ...]
    certificates: dict  # IntPolynomial -> prime

    def expand(self) -> IntPolynomial:
        out = IntPolynomial.constant(self.constant)
        for q, m in self.factors:
            out = out * q ** m
        return out


def factor_z(p: IntPolynomial, primes=None) -> Factorization:
    """Complete irreducible factorization over Z.

    Factors are primitive with positive leading coefficient, sorted by
    (degree, coefficients); the integer constant carries content and sign.
    A factor's certificate is a prime, not dividing its leading coefficient,
    modulo which it is irreducible; when `primes` are listed, only a listed
    prime is reported.
    """
    if p.is_zero():
        raise ValueError("zero polynomial")
    constant = p.content()
    primitive = p.primitive_part()
    rng = random.Random(repr(p.coeffs))
    collected: dict[IntPolynomial, int] = {}
    certificates: dict[IntPolynomial, int] = {}
    for sqfree, mult in squarefree_decomposition(primitive):
        for q, cert in _zassenhaus_squarefree(sqfree, rng, primes):
            collected[q] = mult  # the squarefree parts are coprime
            # the one rule for reporting a prime: any when none are listed
            if cert and (primes is None or cert.prime in primes):
                certificates[q] = cert.prime
    factors = tuple(sorted(collected.items(), key=lambda kv: (kv[0].degree, kv[0].coeffs)))
    return Factorization(constant, factors, certificates)


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Certificate:
    prime: int
    method: ClassVar[str] = CERTIFICATE_METHOD

    def to_json_obj(self) -> dict:
        return {"prime": self.prime, "method": self.method}


def find_certificate(q: IntPolynomial, primes=None) -> Certificate | None:
    """First distinct prime of `primes` (default DEFAULT_CERT_PRIMES), not
    dividing the leading coefficient, modulo which q is irreducible."""
    if q.degree < 1:
        return None
    for prime in dict.fromkeys(DEFAULT_CERT_PRIMES if primes is None else primes):
        if q.leading % prime == 0:
            continue
        if irreducible_mod_p(q, prime):
            return Certificate(prime)
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
    certificates: tuple  # Certificate | None, aligned with factors

    def to_json_obj(self) -> dict:
        return {
            "charpoly": self.charpoly.to_json_obj(),
            "factors": [{"poly": q.to_json_obj(), "multiplicity": m,
                         "certificate": (c.to_json_obj() if c else None)}
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
    certs = tuple(Certificate(fz.certificates[q]) if q in fz.certificates else None
                  for q, _ in fz.factors)
    return CriterionReport(p, fz.factors, verdict, reasons, certs)
