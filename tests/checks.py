"""Shared randomized property checks, each with a fixed seed.

These run both from the per-module test files and from the acceptance
gate, so the counts quoted there live here.  The module also holds the
oracles that no pipeline stage uses: the identity endomorphism, the
determinant, the word-by-word Dynkin map, the tensor pairing, theta,
omega0, the diagonal action, cyclotomic and Swinnerton-Dyer polynomials and
the literal verdict definition.
"""
from __future__ import annotations

import random

from psicert.contract import psi_matrix
from psicert.homology import IntMatrix, char_coeffs
from psicert.johnson import derivation_apply, tau_on_H
from psicert.polylab import IntPolynomial, charpoly, even_degree_split, factor_z
from psicert.tensors import TruncatedTensor, dynkin_is_lie, magnus_expand, tensor_mul
from psicert.words import (FreeEndomorphism, GroupWord, compose_endos, generator,
                           inner_automorphism, reduce_word, sep_twist)


def identity_endo(genus: int) -> FreeEndomorphism:
    return FreeEndomorphism(genus, tuple(generator(genus, i) for i in range(1, 2 * genus + 1)))


def determinant(m: IntMatrix) -> int:
    return (-1) ** m.dimension * char_coeffs(m)[0]


def swinnerton_dyer(primes) -> IntPolynomial:
    """prod (x - sum(+-sqrt(p))) over all sign choices: irreducible over Z, yet
    a product of factors of degree at most 2 modulo every prime."""
    x = IntPolynomial.of_coeffs([0, 1])
    f = x
    for p in primes:
        # f(x + s) = a + s b with s^2 = p by Horner, and f(x + s) f(x - s) = a^2 - p b^2
        a = b = IntPolynomial.zero()
        for c in reversed(f.coeffs):
            a, b = a * x + b.scale(p) + IntPolynomial.constant(c), a + b * x
        f = a * a - (b * b).scale(p)
    return f


def random_word(rng: random.Random, genus: int, max_len: int) -> GroupWord:
    letters = [(rng.randrange(1, 2 * genus + 1), rng.choice((1, -1)))
               for _ in range(rng.randrange(0, max_len + 1))]
    return reduce_word(genus, letters)


def random_tensor(rng: random.Random, genus: int, degree: int, truncation: int,
                  terms: int = 4, coeff_bound: int = 5) -> TruncatedTensor:
    out = TruncatedTensor.zero(genus, truncation)
    for _ in range(terms):
        word = tuple(rng.randrange(1, 2 * genus + 1) for _ in range(degree))
        t = TruncatedTensor(genus, truncation, {word: rng.randrange(-coeff_bound, coeff_bound + 1) or 1})
        out = out + t
    return out


def check_magnus_multiplicativity(pairs: int = 200) -> None:
    """Expansion is multiplicative and inverts inverses, up to truncation."""
    rng = random.Random(0x4D41474E)
    for _ in range(pairs):
        genus = rng.randrange(1, 4)
        trunc = rng.randrange(2, 7)
        u = random_word(rng, genus, 8)
        v = random_word(rng, genus, 8)
        eu, ev = magnus_expand(u, trunc), magnus_expand(v, trunc)
        assert magnus_expand(u * v, trunc) == tensor_mul(eu, ev)
        unit = TruncatedTensor.unit(genus, trunc)
        assert tensor_mul(magnus_expand(u.inverse(), trunc), eu) == unit


def check_tau_additivity(pairs: int = 50) -> None:
    """Level-2 cochains add under composition of twist products."""
    rng = random.Random(0x54415521)
    for _ in range(pairs):
        genus = rng.randrange(2, 5)
        def twist_product():
            f = sep_twist(genus, rng.randrange(1, genus))
            for _ in range(rng.randrange(0, 2)):
                f = compose_endos(f, sep_twist(genus, rng.randrange(1, genus)))
            return f
        f, g = twist_product(), twist_product()
        assert tau_on_H(compose_endos(f, g), 2) == tau_on_H(f, 2) + tau_on_H(g, 2)


def check_tau_images_are_lie() -> None:
    """Every cochain image extracted from twist data passes the Dynkin test."""
    rng = random.Random(0x4C494521)
    for _ in range(25):
        genus = rng.randrange(2, 5)
        f = sep_twist(genus, rng.randrange(1, genus))
        if rng.random() < 0.5:
            f = compose_endos(f, sep_twist(genus, rng.randrange(1, genus)))
        for img in tau_on_H(f, 2).images:
            assert dynkin_is_lie(img)


def check_derivation_leibniz(cases: int = 100) -> None:
    """The cochain extension satisfies D(st) = D(s)t + sD(t) exactly."""
    rng = random.Random(0x4C454942)
    for _ in range(cases):
        genus = rng.randrange(2, 4)
        c = tau_on_H(sep_twist(genus, rng.randrange(1, genus)), 2)
        lift = c.weight - 1
        ds, dt = rng.randrange(1, 3), rng.randrange(1, 3)
        trunc = ds + dt + lift
        s = random_tensor(rng, genus, ds, trunc, terms=3)
        t = random_tensor(rng, genus, dt, trunc, terms=3)
        st = tensor_mul(s, t)
        lhs = derivation_apply(c, st)
        rhs = tensor_mul(derivation_apply(c, s), t) + tensor_mul(s, derivation_apply(c, t))
        assert lhs == rhs


# ---- tensor helpers used only as test oracles --------------------------

def omega0(genus: int) -> TruncatedTensor:
    """The symplectic form as a degree-2 tensor: sum_i (a_i b_i - b_i a_i)."""
    terms = {}
    for j in range(genus):
        a, b = 2 * j + 1, 2 * j + 2
        terms[(a, b)] = 1
        terms[(b, a)] = -1
    return TruncatedTensor(genus, 2, terms)


def left_normed_dynkin(t: TruncatedTensor) -> TruncatedTensor:
    """The Dynkin map one word at a time: x1 x2 ... xm -> [[...[x1, x2], ...], xm],
    expanded into its 2^(m-1) signed words (reference for `dynkin_image`)."""
    out: dict[tuple[int, ...], int] = {}
    for word, coeff in t.terms.items():
        if not word:
            raise ValueError("Dynkin map is undefined in degree 0")
        acc = {word[:1]: coeff}
        for s in word[1:]:
            bracketed: dict[tuple[int, ...], int] = {}
            for w, c in acc.items():
                for key, v in ((w + (s,), c), ((s,) + w, -c)):
                    bracketed[key] = bracketed.get(key, 0) + v
            acc = bracketed
        for w, c in acc.items():
            out[w] = out.get(w, 0) + c
    return TruncatedTensor(t.genus, t.truncation, {w: c for w, c in out.items() if c})


def theta(t: TruncatedTensor) -> TruncatedTensor:
    """Slotwise involution a_i -> b_i, b_i -> -a_i, extended multiplicatively."""
    out: dict[tuple[int, ...], int] = {}
    for word, coeff in t.terms.items():
        sign = 1
        new = []
        for s in word:
            if s % 2 == 1:
                new.append(s + 1)
            else:
                new.append(s - 1)
                sign = -sign
        key = tuple(new)
        v = out.get(key, 0) + coeff * sign
        if v:
            out[key] = v
        else:
            out.pop(key, None)
    return TruncatedTensor(t.genus, t.truncation, out)


def tensor_pairing(s: TruncatedTensor, t: TruncatedTensor) -> int:
    """Slotwise intersection pairing of two homogeneous tensors of equal degree."""
    ds = s.max_degree() if not s.is_zero() else None
    dt = t.max_degree() if not t.is_zero() else None
    if s.is_zero() or t.is_zero():
        return 0
    if not s.is_homogeneous(ds) or not t.is_homogeneous(dt) or ds != dt:
        raise ValueError("operands must be homogeneous of equal degree")
    total = 0
    for word, coeff in s.terms.items():
        # the only basis word pairing nontrivially with `word` is its slotwise partner
        partner = tuple(p + 1 if p % 2 == 1 else p - 1 for p in word)
        other = t.terms.get(partner)
        if other is None:
            continue
        sign = 1
        for p in word:
            if p % 2 == 0:
                sign = -sign
        total += coeff * other * sign
    return total


def diagonal_action(m: IntMatrix, t: TruncatedTensor) -> TruncatedTensor:
    """Apply a matrix on H to every slot of a tensor (the diagonal action)."""
    n = 2 * t.genus
    if m.dimension != n:
        raise ValueError("matrix dimension must be 2*genus")
    acc: dict[tuple[int, ...], int] = {}
    for word, coeff in t.terms.items():
        partial = {(): coeff}
        for s in word:
            col = m.column(s - 1)
            new: dict[tuple[int, ...], int] = {}
            for w, c in partial.items():
                for p, entry in enumerate(col):
                    if not entry:
                        continue
                    key = w + (p + 1,)
                    v = new.get(key, 0) + c * entry
                    if v:
                        new[key] = v
                    else:
                        new.pop(key, None)
            partial = new
        for w, c in partial.items():
            v = acc.get(w, 0) + c
            if v:
                acc[w] = v
            else:
                acc.pop(w, None)
    return TruncatedTensor(t.genus, t.truncation, acc)


def check_pairing_positivity(cases: int = 100) -> None:
    """<P, theta(P)> > 0 for nonzero homogeneous integer tensors."""
    rng = random.Random(0x504F5321)
    done = 0
    while done < cases:
        genus = rng.randrange(1, 4)
        degree = rng.randrange(1, 5)
        p = random_tensor(rng, genus, degree, degree, terms=rng.randrange(1, 6))
        if p.is_zero():
            continue
        assert tensor_pairing(p, theta(p)) > 0
        done += 1


def naive_charpoly(m: IntMatrix) -> IntPolynomial:
    """Cofactor-expansion det(xI - m) over polynomial entries (test oracle)."""
    n = m.dimension
    entries = [[IntPolynomial.of_coeffs([-m.rows[i][j]] if i != j else [-m.rows[i][j], 1])
                for j in range(n)] for i in range(n)]

    def det(rows, cols):
        if len(rows) == 1:
            return entries[rows[0]][cols[0]]
        total = IntPolynomial.zero()
        r = rows[0]
        for pos, c in enumerate(cols):
            minor = det(rows[1:], cols[:pos] + cols[pos + 1:])
            term = entries[r][c] * minor
            total = total + (term if pos % 2 == 0 else -term)
        return total

    return det(tuple(range(n)), tuple(range(n)))


def cyclotomic(d: int) -> IntPolynomial:
    """The d-th cyclotomic polynomial via exact division of x^d - 1 (test oracle)."""
    if d < 1:
        raise ValueError("d must be positive")
    num = IntPolynomial.of_coeffs([-1] + [0] * (d - 1) + [1])
    for e in range(1, d):
        if d % e == 0:
            num = num.divmod_exact(cyclotomic(e))[0]
    return num


def check_charpoly_oracle(cases: int = 200) -> None:
    """Division-free characteristic polynomial equals the cofactor oracle."""
    rng = random.Random(0x43504F4C)
    for _ in range(cases):
        n = rng.randrange(1, 6)
        m = IntMatrix.from_rows([[rng.randrange(-9, 10) for _ in range(n)] for _ in range(n)])
        assert charpoly(m) == naive_charpoly(m)


def _has_rational_root(p: IntPolynomial) -> bool:
    def divisors(n):
        n = abs(n)
        return [d for d in range(1, n + 1) if n % d == 0] or [1]
    if p.coeffs[0] == 0:
        return True
    for num in divisors(p.coeffs[0]):
        for den in divisors(p.leading):
            for s in (1, -1):
                # p(s*num/den) = 0 iff sum c_i (s*num)^i den^(n-i) = 0
                n = p.degree
                if sum(c * (s * num) ** i * den ** (n - i) for i, c in enumerate(p.coeffs)) == 0:
                    return True
    return False


def brute_irreducible_low_degree(p: IntPolynomial) -> bool:
    """Independent irreducibility for primitive degree <= 3: no rational roots
    (degree 2 and 3) and, in degree 1, always true."""
    assert 1 <= p.degree <= 3
    if p.degree == 1:
        return True
    return not _has_rational_root(p)


def check_factor_roundtrip(cases: int = 60) -> None:
    """factor_z reconstructs its input exactly and low-degree factors are
    irreducible by the rational-root oracle."""
    rng = random.Random(0x5A415353)
    for _ in range(cases):
        parts = []
        for _ in range(rng.randrange(1, 4)):
            deg = rng.randrange(1, 4)
            coeffs = [rng.randrange(-6, 7) for _ in range(deg)] + [rng.choice((1, 1, 2, 3, -1))]
            parts.append(IntPolynomial.of_coeffs(coeffs))
        p = IntPolynomial.constant(rng.choice((1, -1, 2, 6)))
        for q in parts:
            p = p * q ** rng.randrange(1, 3)
        if p.degree < 1:
            continue
        fz = factor_z(p)
        assert fz.expand() == p
        for q, _mult in fz.factors:
            assert q.leading > 0 and q.content() == 1
            if q.degree <= 3:
                assert brute_irreducible_low_degree(q)


def multiset_verdict_oracle(degrees: tuple[int, ...]) -> bool:
    """Literal sub-multiset-sum definition of the verdict on a degree multiset."""
    if any(d == 1 for d in degrees):
        return False
    n = len(degrees)
    for mask in range(1, 2 ** n - 1):
        s = sum(degrees[i] for i in range(n) if mask >> i & 1)
        if s % 2 == 0 and (sum(degrees) - s) % 2 == 0:
            return False
    return True


def all_multisets_with_sum(total: int):
    def rec(remaining, minimum):
        if remaining == 0:
            yield ()
            return
        for first in range(minimum, remaining + 1):
            for rest in rec(remaining - first, first):
                yield (first,) + rest
    yield from rec(total, 1)


def check_criterion_closed_form(max_total: int = 12) -> None:
    """The library verdict rule == sub-multiset-sum definition, for every
    degree multiset of total 1..bound (odd totals included)."""
    for total in range(1, max_total + 1):
        for degrees in all_multisets_with_sum(total):
            linear = any(d == 1 for d in degrees)
            assert (not linear and not even_degree_split(degrees)) == \
                multiset_verdict_oracle(degrees), degrees


def check_inner_conjugation_invariance(cases: int = 20) -> None:
    """Conjugating by an inner automorphism leaves the level-2 matrix unchanged."""
    rng = random.Random(0x494E4E45)
    for _ in range(cases):
        genus = rng.randrange(2, 4)
        f = sep_twist(genus, rng.randrange(1, genus))
        w = random_word(rng, genus, 6)
        conj = compose_endos(inner_automorphism(w),
                             compose_endos(f, inner_automorphism(w.inverse())))
        lhs = psi_matrix(tau_on_H(conj, 2), 2)
        rhs = psi_matrix(tau_on_H(f, 2), 2)
        assert lhs == rhs
