"""Shared randomized property checks, each with a fixed seed.

These run both from the per-module test files and from the acceptance
gate, so the counts quoted there live here.  The module also holds the
oracles that no pipeline stage uses: the text form of a word, the tensor
product, linear combinations of tensors and of cochains, graded parts, the
integer-polynomial product and power, the identity endomorphism, the
letter-by-letter image of a word and power of an endomorphism, the
abelianization of an endomorphism, the intersection number (the reference
for `homology.pairing`), the transvection matrix (the reference for
`homology.times_transvection`), the symplectic inverse by products with J
(the reference for `homology.conjugate`), the determinant, the word-by-word
Dynkin map, the tensor pairing, theta, omega0, the diagonal action,
cyclotomic and Swinnerton-Dyer polynomials, the product of a factorization,
the Berkowitz characteristic polynomial, the schoolbook GF(p) product,
division and powers modulo a polynomial with the distinct-degree loop on
them, the GF(p) gcd and resultant by Euclid on lists, linear Hensel
lifting, recombination by the constant-term test alone, and the literal
verdict definition.
"""
from __future__ import annotations

import random
from operator import mul

from psicert.contract import psi_matrix
from psicert.errors import _same_genus
from psicert.homology import HVector, IntMatrix, char_coeffs, symbol_intersection
from psicert.johnson import JohnsonCochain, derivation_apply, tau_on_H
from psicert.polylab import (Factorization, IntPolynomial, _gf_divmod, _gf_from_int_poly,
                             _gf_inverse_mod, _gf_monic, _gf_mul, _gf_sub, _symmetric,
                             charpoly, even_degree_split, factor_z)
from psicert.tensors import TruncatedTensor, _sum_terms, dynkin_is_lie, magnus_expand
from psicert.words import (FreeEndomorphism, GroupWord, compose_endos, generator,
                           inner_automorphism, letter_name, reduce_word, sep_twist)


def format_word(w: GroupWord) -> str:
    """The text of a word as `parse_word` reads it: tokens like a3 and b1^-1."""
    return " ".join(letter_name(idx) + ("" if sign == 1 else "^-1") for idx, sign in w.letters)


def tensor_mul(s: TruncatedTensor, t: TruncatedTensor, truncation: int) -> TruncatedTensor:
    """Concatenation product, keeping the words of degree at most `truncation`."""
    _same_genus(s, t)
    return TruncatedTensor(s.genus, _sum_terms(
        (w1 + w2, c1 * c2) for w1, c1 in s.terms.items()
        for w2, c2 in t.terms.items() if len(w1) + len(w2) <= truncation))


def linear_combination(*pairs):
    """Sum of k * x over (k, x) pairs: of tensors, or of cochains of one
    weight, image by image."""
    x0 = pairs[0][1]
    for _, x in pairs:
        _same_genus(x0, x)
    if isinstance(x0, JohnsonCochain):
        return JohnsonCochain(x0.genus, x0.weight, tuple(
            linear_combination(*((k, c.images[i]) for k, c in pairs)) for i in range(2 * x0.genus)))
    return TruncatedTensor(x0.genus, _sum_terms(
        (w, k * c) for k, t in pairs for w, c in t.terms.items()))


def graded_part(t: TruncatedTensor, degree: int) -> TruncatedTensor:
    """Homogeneous degree-d component."""
    return TruncatedTensor(t.genus, {w: c for w, c in t.terms.items() if len(w) == degree})


def poly_mul(*factors: IntPolynomial) -> IntPolynomial:
    """Product of integer polynomials; 1 for no factors."""
    out = [1]
    for f in factors:
        product = [0] * (len(out) + f.degree)
        for i, a in enumerate(out):
            for j, b in enumerate(f.coeffs):
                product[i + j] += a * b
        out = product
    return IntPolynomial.of_coeffs(out)


def poly_pow(f: IntPolynomial, n: int) -> IntPolynomial:
    return poly_mul(*[f] * n)


def identity_endo(genus: int) -> FreeEndomorphism:
    return FreeEndomorphism(genus, tuple(generator(genus, i) for i in range(1, 2 * genus + 1)))


def letterwise_apply_endo(f: FreeEndomorphism, w: GroupWord) -> GroupWord:
    """f(w) by concatenating the image of every letter, or its inverse, and
    then freely reducing the whole concatenation letter by letter."""
    letters = []
    for idx, sign in w.letters:
        image = f.images[idx - 1].letters
        letters += image if sign == 1 else [(i, -s) for i, s in reversed(image)]
    return reduce_word(f.genus, letters)


def letterwise_compose(f: FreeEndomorphism, g: FreeEndomorphism) -> FreeEndomorphism:
    """f after g, each image by `letterwise_apply_endo`."""
    return FreeEndomorphism(f.genus, tuple(letterwise_apply_endo(f, w) for w in g.images))


def abelianize(f: FreeEndomorphism) -> IntMatrix:
    """Induced matrix on H; column j is the exponent-sum vector of the image of generator j."""
    n = 2 * f.genus
    cols = []
    for img in f.images:
        col = [0] * n
        for idx, sign in img.letters:
            col[idx - 1] += sign
        cols.append(tuple(col))
    return IntMatrix.from_columns(cols)


def intersection(u: HVector, v: HVector) -> int:
    """Algebraic intersection number, bilinear with <a_i, b_i> = 1."""
    _same_genus(u, v)
    total = 0
    for j in range(u.genus):
        total += u.coords[2 * j] * v.coords[2 * j + 1] - u.coords[2 * j + 1] * v.coords[2 * j]
    return total


def symplectic_inverse(s: IntMatrix) -> IntMatrix:
    """J^-1 s^T J = -J s^T J by two matrix products, J the matrix of the
    intersection form; ValueError unless it inverts s, that is unless s is
    symplectic."""
    n = s.dimension
    j = IntMatrix.from_rows([[symbol_intersection(p, q) for q in range(1, n + 1)]
                             for p in range(1, n + 1)])
    inverse = -1 * (j * IntMatrix(tuple(zip(*s.rows))) * j)
    if s * inverse != IntMatrix.identity(n):
        raise ValueError("matrix is not symplectic")
    return inverse


def transvection(beta: HVector) -> IntMatrix:
    """Matrix of c -> c + <beta, c> beta (the homology action of a twist)."""
    cols = []
    for p in range(2 * beta.genus):
        e = HVector.basis(beta.genus, p)
        coeff = intersection(beta, e)
        cols.append(tuple(x + coeff * b for x, b in zip(e.coords, beta.coords)))
    return IntMatrix.from_columns(cols)


def determinant(m: IntMatrix) -> int:
    return (-1) ** m.dimension * char_coeffs(m)[0]


def expand_factorization(fz: Factorization) -> IntPolynomial:
    """constant * prod(factor^multiplicity)."""
    return poly_mul(IntPolynomial.constant(fz.constant),
                    *(q for q, m in fz.factors for _ in range(m)))


def swinnerton_dyer(primes) -> IntPolynomial:
    """prod (x - sum(+-sqrt(p))) over all sign choices: irreducible over Z, yet
    a product of factors of degree at most 2 modulo every prime."""
    x = IntPolynomial.of_coeffs([0, 1])
    f = x
    for p in primes:
        # f(x + s) = a + s b with s^2 = p by Horner, and f(x + s) f(x - s) = a^2 - p b^2
        a = b = IntPolynomial.zero()
        for c in reversed(f.coeffs):
            a, b = poly_mul(a, x) + b.scale(p) + IntPolynomial.constant(c), a + poly_mul(b, x)
        f = poly_mul(a, a) - poly_mul(b, b).scale(p)
    return f


def random_word(rng: random.Random, genus: int, max_len: int) -> GroupWord:
    letters = [(rng.randrange(1, 2 * genus + 1), rng.choice((1, -1)))
               for _ in range(rng.randrange(0, max_len + 1))]
    return reduce_word(genus, letters)


def exact_length_word(rng: random.Random, genus: int, length: int) -> GroupWord:
    """A freely reduced word of exactly `length` random letters."""
    letters = []
    while len(letters) < length:
        x = (rng.randrange(1, 2 * genus + 1), rng.choice((1, -1)))
        if not letters or letters[-1] != (x[0], -x[1]):
            letters.append(x)
    return reduce_word(genus, letters)


def random_endo(rng: random.Random, genus: int, max_len: int) -> FreeEndomorphism:
    """An endomorphism whose images are random reduced words, inverse letters included."""
    return FreeEndomorphism(genus, tuple(random_word(rng, genus, max_len)
                                         for _ in range(2 * genus)))


def random_tensor(rng: random.Random, genus: int, degree: int,
                  terms: int = 4, coeff_bound: int = 5) -> TruncatedTensor:
    """Up to `terms` random words of one degree with nonzero coefficients."""
    return TruncatedTensor(genus, _sum_terms(
        (tuple(rng.randrange(1, 2 * genus + 1) for _ in range(degree)),
         rng.randrange(-coeff_bound, coeff_bound + 1) or 1) for _ in range(terms)))


def check_magnus_multiplicativity(pairs: int = 200) -> None:
    """Expansion is multiplicative and inverts inverses, up to truncation."""
    rng = random.Random(0x4D41474E)
    for _ in range(pairs):
        genus = rng.randrange(1, 4)
        trunc = rng.randrange(2, 7)
        u = random_word(rng, genus, 8)
        v = random_word(rng, genus, 8)
        eu, ev = magnus_expand(u, trunc), magnus_expand(v, trunc)
        assert magnus_expand(u * v, trunc) == tensor_mul(eu, ev, trunc)
        unit = TruncatedTensor(genus, {(): 1})
        assert tensor_mul(magnus_expand(u.inverse(), trunc), eu, trunc) == unit


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
        assert tau_on_H(compose_endos(f, g), 2) == linear_combination((1, tau_on_H(f, 2)),
                                                                      (1, tau_on_H(g, 2)))


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
        ds, dt = rng.randrange(1, 3), rng.randrange(1, 3)
        trunc = ds + dt + c.weight - 1  # the degree of each product; nothing is cut
        s = random_tensor(rng, genus, ds, terms=3)
        t = random_tensor(rng, genus, dt, terms=3)
        lhs = derivation_apply(c, tensor_mul(s, t, trunc))
        rhs = linear_combination((1, tensor_mul(derivation_apply(c, s), t, trunc)),
                                 (1, tensor_mul(s, derivation_apply(c, t), trunc)))
        assert lhs == rhs


# ---- tensor helpers used only as test oracles --------------------------

def omega0(genus: int) -> TruncatedTensor:
    """The symplectic form as a degree-2 tensor: sum_i (a_i b_i - b_i a_i)."""
    terms = {}
    for j in range(genus):
        a, b = 2 * j + 1, 2 * j + 2
        terms[(a, b)] = 1
        terms[(b, a)] = -1
    return TruncatedTensor(genus, terms)


def left_normed_dynkin(t: TruncatedTensor) -> TruncatedTensor:
    """The Dynkin map one word at a time: x1 x2 ... xm -> [[...[x1, x2], ...], xm],
    expanded into its 2^(m-1) signed words (oracle for `dynkin_is_lie`)."""
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
    return TruncatedTensor(t.genus, {w: c for w, c in out.items() if c})


def tensor_fault(genus: int, terms: dict) -> str | None:
    """The first fault of a term dict in term order, as `TruncatedTensor` names
    it, or None: the term-by-term validation loop (oracle for the scans)."""
    n = 2 * genus
    for word, coeff in terms.items():
        if coeff == 0:
            return "stored zero coefficient"
        if any(not 1 <= s <= n for s in word):
            return "symbol index out of range"
    return None


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
    return TruncatedTensor(t.genus, out)


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
            col = [row[s - 1] for row in m.rows]
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
    return TruncatedTensor(t.genus, acc)


def check_pairing_positivity(cases: int = 100) -> None:
    """<P, theta(P)> > 0 for nonzero homogeneous integer tensors."""
    rng = random.Random(0x504F5321)
    done = 0
    while done < cases:
        genus = rng.randrange(1, 4)
        degree = rng.randrange(1, 5)
        p = random_tensor(rng, genus, degree, terms=rng.randrange(1, 6))
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
            total = total + poly_mul(entries[r][c], minor).scale(1 - 2 * (pos % 2))
        return total

    return det(tuple(range(n)), tuple(range(n)))


def berkowitz_char_coeffs(m: IntMatrix) -> list[int]:
    """Coefficients of det(xI - m), ascending, by the division-free Berkowitz
    scheme over Z, as `homology.char_coeffs` computed them before it worked
    modulo primes (test oracle)."""
    n = m.dimension
    if n == 0:
        return [1]
    a = m.rows
    poly = [1, -a[0][0]]  # descending coefficients for the 1x1 principal block
    for k in range(1, n):
        block = [r[:k] for r in a[:k]]  # the leading k x k block
        row = a[k][:k]
        vec = [r[k] for r in a[:k]]
        items = [1, -a[k][k], -sum(map(mul, row, vec))]
        for _ in range(k - 1):
            vec = [sum(map(mul, r, vec)) for r in block]
            items.append(-sum(map(mul, row, vec)))
        new = [0] * (k + 2)
        for i in range(k + 2):
            s = 0
            for j in range(min(i, k) + 1):
                t = i - j
                if t < len(items):
                    s += poly[j] * items[t]
            new[i] = s
        poly = new
    return list(reversed(poly))


def schoolbook_gf_mul(a: list[int], b: list[int], m: int) -> list[int]:
    """Product modulo m reduced after every step, as `polylab._gf_mul` was
    before it reduced lazily (kernel oracle)."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        if not c:
            continue
        for j, d in enumerate(b):
            out[i + j] = (out[i + j] + c * d) % m
    while out and out[-1] == 0:
        out.pop()
    return out


def schoolbook_gf_divmod(a: list[int], b: list[int], m: int):
    """Quotient and remainder modulo m reduced after every step, as
    `polylab._gf_divmod` was before it reduced lazily (kernel oracle)."""
    if not b:
        raise ZeroDivisionError
    a = a[:]
    inv = pow(b[-1], -1, m)
    q = [0] * max(0, len(a) - len(b) + 1)
    for i in range(len(a) - 1, len(b) - 2, -1):
        c = a[i]
        if not c:
            continue
        step = c * inv % m
        q[i - (len(b) - 1)] = step
        for j, d in enumerate(b):
            a[i - (len(b) - 1) + j] = (a[i - (len(b) - 1) + j] - step * d) % m
    for out in (q, a):
        while out and out[-1] == 0:
            out.pop()
    return q, a


def schoolbook_gf_pow_mod(base: list[int], e: int, mod: list[int], p: int) -> list[int]:
    """base^e mod the monic `mod` over GF(p) by right-to-left square and
    multiply on the list kernel, as `polylab._gf_pow_mod` was before it ran on
    packed ints (oracle)."""
    result = [1]
    base = schoolbook_gf_divmod(base, mod, p)[1]
    while e:
        if e & 1:
            result = schoolbook_gf_divmod(_gf_mul(result, base, p), mod, p)[1]
        base = schoolbook_gf_divmod(_gf_mul(base, base, p), mod, p)[1]
        e >>= 1
    return result


def list_gf_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    """Monic gcd over GF(p) by Euclid on lists, each remainder from
    `schoolbook_gf_divmod`, as `polylab._gf_gcd` was before it ran on packed
    ints (oracle)."""
    while b:
        a, b = b, schoolbook_gf_divmod(a, b, p)[1]
    return _gf_monic(a, p)


def list_gf_resultant(a: list[int], b: list[int], p: int) -> int:
    """Res(a, b) over GF(p) by Euclid on lists, as `polylab._gf_resultant`
    was before it ran on packed ints (oracle): each step uses
    Res(a, b) = (-1)^(deg a deg b) lc(b)^(deg a - deg r) Res(b, r) for
    r = a mod b, down to Res(a, c) = c^(deg a) for a constant c."""
    if not a or not b:
        return 0
    res = 1
    while len(b) > 1:
        r = schoolbook_gf_divmod(a, b, p)[1]
        if not r:
            return 0
        m, n = len(a) - 1, len(b) - 1
        if m * n % 2:
            res = -res
        res = res * pow(b[-1], m - len(r) + 1, p) % p
        a, b = b, r
    return res * pow(b[0], len(a) - 1, p) % p


def schoolbook_distinct_degree(fbar: list[int], p: int) -> list[tuple[list[int], int]]:
    """Every (product, degree) pair that `polylab._distinct_degree` yields for
    the monic fbar, from the same loop on `schoolbook_gf_pow_mod` (oracle)."""
    x, out = [0, 1], []
    power, f, d = x, fbar, 0
    while len(f) > 1:
        d += 1
        if 2 * d > len(f) - 1:
            return out + [(f, len(f) - 1)]
        power = schoolbook_gf_pow_mod(power, p, f, p)
        g = list_gf_gcd(_gf_sub(power, x, p), f, p)
        if len(g) > 1:
            out.append((g, d))
            f = _gf_divmod(f, g, p)[0]
            power = schoolbook_gf_divmod(power, f, p)[1]
    return out


def constant_term_walk(constants, size, lc, t0, modulus, first):
    """The `size`-subsets of positions in `constants`, in
    `itertools.combinations` order (with `first`, only those holding position
    0), whose candidate passes the constant-term test alone: the symmetric
    residue of lc * prod(constant terms) mod p^a divides t0.  This is the
    prefix walk that `polylab._recombine` ran before the trace test (oracle):
    the products of the first size - 1 positions' constants are kept as
    prefixes, so each subset costs one multiply."""
    n = len(constants)
    idx = list(range(size - 1))
    prefix = [lc % modulus]
    for k in idx:
        prefix.append(prefix[-1] * constants[k] % modulus)
    while True:
        base = prefix[-1]
        for j in range(idx[-1] + 1 if idx else 0, 1 if first and not idx else n):
            g0 = base * constants[j] % modulus
            if 2 * g0 > modulus:
                g0 -= modulus
            if not ((t0 % g0) if g0 else t0):
                yield idx + [j]
        # next prefix in lexicographic order; position i runs up to n - size + i
        i = size - 2
        while i >= 0 and idx[i] == n - size + i:
            i -= 1
        if i < 0 or (first and i == 0):
            return
        idx[i:] = range(idx[i] + 1, idx[i] + size - i)
        del prefix[i + 1:]
        for k in idx[i:]:
            prefix.append(prefix[-1] * constants[k] % modulus)


def walk_recombine(f: IntPolynomial, lifted: list[list[int]], modulus: int) -> list[IntPolynomial]:
    """`polylab._recombine` as it was before the trace test (oracle): every
    subset in increasing size that `constant_term_walk` lets through gets its
    product mod p^a and one exact trial division."""
    factors = []
    remaining = list(range(len(lifted)))
    current = f
    size = 1
    while 2 * size <= len(remaining):
        lc = current.leading
        target = current.scale(lc)
        constants = [lifted[i][0] for i in remaining]
        for combo in constant_term_walk(constants, size, lc, target.coeffs[0], modulus,
                                        2 * size == len(remaining)):
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
    """The characteristic polynomial equals the cofactor oracle."""
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
            p = poly_mul(p, poly_pow(q, rng.randrange(1, 3)))
        if p.degree < 1:
            continue
        fz = factor_z(p)
        assert expand_factorization(fz) == p
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


def linear_hensel_lift(f: IntPolynomial, p: int, factors: list[list[int]], exponent: int):
    """Lift f = lc * prod(factors) from mod p to mod p^exponent one power of p
    at a time, as `polylab._hensel_lift` did before it lifted quadratically
    (lifting oracle): each step recomputes lc * prod(lifted) mod p^(i+1) and
    corrects every factor by its CRT share of the error."""
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
            for i, c in enumerate(schoolbook_gf_divmod(_gf_mul(ebar, sigma, p), orig, p)[1]):
                g[i] += modulus * c
        modulus = next_modulus
    return lifted, modulus
