"""First homology of the once-punctured genus-g surface, with exact integer linear algebra.

The ordered basis of H is (a_1, b_1, a_2, b_2, ..., a_g, b_g); coordinate
position p (0-based) corresponds to a_{p//2+1} for even p and b_{p//2+1} for
odd p.  The algebraic intersection pairing satisfies <a_i, b_i> = +1.

Matrices act on column vectors: column j of a matrix is the image of the j-th
basis vector.  All arithmetic is over arbitrary-precision integers, and a
symplectic matrix s is inverted as -J s^T J, so no rationals ever appear.  The
characteristic polynomial is computed modulo proven primes whose product
exceeds twice a bound on its coefficients, so its integer coefficients are
recovered exactly.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import isqrt
from operator import mul

from .words import bounded_int, clipped

GENERATOR_KINDS = ("a", "b")


def basis_position(name: str, genus: int) -> int:
    """0-based coordinate position of a generator name like 'b3': a or b, then ASCII digits."""
    name = name.strip()
    if name[:1] not in GENERATOR_KINDS or not (name[1:].isascii() and name[1:].isdecimal()):
        raise ValueError(f"bad generator name {clipped(name)!r}")
    j = bounded_int(name[1:], genus)
    if not 1 <= j <= genus:
        raise ValueError(f"generator {clipped(name)!r} out of range for genus {genus}")
    return 2 * (j - 1) + (0 if name[0] == "a" else 1)


@dataclass(frozen=True)
class HVector:
    """Element of H with exact integer coordinates in the ordered basis."""

    genus: int
    coords: tuple[int, ...]

    def __post_init__(self):
        if self.genus < 1:
            raise ValueError("genus must be positive")
        if len(self.coords) != 2 * self.genus:
            raise ValueError("coordinate length must be 2*genus")

    @staticmethod
    def basis(genus: int, position: int) -> "HVector":
        coords = [0] * (2 * genus)
        coords[position] = 1
        return HVector(genus, tuple(coords))

    @staticmethod
    def from_name(name: str, genus: int) -> "HVector":
        return HVector.basis(genus, basis_position(name, genus))


def symbol_intersection(p: int, q: int) -> int:
    """Intersection number of basis symbols 1..2g: <a_j, b_j> = 1 = -<b_j, a_j>, else 0."""
    return q - p if (p + 1) // 2 == (q + 1) // 2 else 0


def pairing(v: HVector) -> list[int]:
    """The row (<v, e_p>)_p of intersection numbers with the basis vectors,
    bilinear with <a_i, b_i> = 1."""
    c = v.coords
    return [x for j in range(0, len(c), 2) for x in (-c[j + 1], c[j])]


@dataclass(frozen=True)
class IntMatrix:
    """Square integer matrix as a tuple of row tuples."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = len(self.rows)
        if any(len(r) != n for r in self.rows):
            raise ValueError("matrix must be square")

    @property
    def dimension(self) -> int:
        return len(self.rows)

    @staticmethod
    def from_rows(rows) -> "IntMatrix":
        return IntMatrix(tuple(tuple(int(x) for x in r) for r in rows))

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @staticmethod
    def from_columns(columns) -> "IntMatrix":
        cols = tuple(tuple(c) for c in columns)
        n = len(cols)
        return IntMatrix(tuple(tuple(cols[j][i] for j in range(n)) for i in range(n)))

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        self._same_dim(other)
        return IntMatrix(tuple(tuple(a + b for a, b in zip(r, s)) for r, s in zip(self.rows, other.rows)))

    def __mul__(self, other):
        if isinstance(other, int):
            return IntMatrix(tuple(tuple(other * a for a in r) for r in self.rows))
        if isinstance(other, IntMatrix):
            self._same_dim(other)
            n = self.dimension
            cols = tuple(zip(*other.rows))
            return IntMatrix(tuple(
                tuple(sum(r[k] * c[k] for k in range(n)) for c in cols) for r in self.rows))
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, int):
            return self * other
        return NotImplemented

    def _same_dim(self, other: "IntMatrix"):
        if self.dimension != other.dimension:
            raise ValueError(f"dimension {self.dimension} vs {other.dimension}")

    def apply(self, coords) -> tuple[int, ...]:
        """Image of a coordinate (column) vector."""
        return tuple(sum(r[k] * coords[k] for k in range(self.dimension)) for r in self.rows)

    def exact_divide(self, d: int) -> "IntMatrix":
        if d == 0:
            raise ZeroDivisionError("divide by zero")
        out = []
        for r in self.rows:
            row = []
            for x in r:
                q, rem = divmod(x, d)
                if rem:
                    raise ValueError(f"entry {clipped(x)} not divisible by {clipped(d)}")
                row.append(q)
            out.append(tuple(row))
        return IntMatrix(tuple(out))


# Proth primes h * 2^k + 1 for `char_coeffs`, one below each multiple of 30
# bits (a CPython digit) up to 240, each proven prime by a Proth witness in the
# tests.  A bound below the last of them gets the single smallest one above it.
_SMALL_MODULI = tuple((h << k) + 1 for h, k in (
    (7, 26), (5, 55), (5, 85), (15, 112), (43, 144), (27, 175), (9, 206), (83, 233)))
# Larger bounds get moduli h * 2^256 + 1 (h odd, ascending), joined by CRT,
# also proven prime; found on first use, never at import, and kept.
_MODULI: list[int] = []
_MODULUS_SHIFT = 256
_PROTH_BASES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def _proth_witness(p: int) -> int | None:
    """Some a with a^((p-1)/2) = -1 mod p, which proves the Proth number p prime
    (Proth's theorem); None when p is composite or no small base is a witness."""
    half = p >> 1
    for a in _PROTH_BASES:
        r = pow(a, half, p)
        if r == p - 1:
            return a
        if r != 1:  # a prime gives +-1
            return None
    return None


def _moduli_above(bound: int) -> list[int]:
    """The smallest table prime above bound, alone; for a bound beyond the
    table, the shortest prefix of the h * 2^256 + 1 moduli whose product
    exceeds it."""
    for p in _SMALL_MODULI:
        if p > bound:
            return [p]
    product, used = 1, 0
    while product <= bound:
        if used == len(_MODULI):
            h = (_MODULI[-1] >> _MODULUS_SHIFT) + 2 if _MODULI else 1
            while _proth_witness((h << _MODULUS_SHIFT) + 1) is None:
                h += 2
            _MODULI.append((h << _MODULUS_SHIFT) + 1)
        product *= _MODULI[used]
        used += 1
    return _MODULI[:used]


def _coefficient_bound(m: IntMatrix) -> int:
    """B = prod(2 + isqrt(|row_i|^2)) >= prod(1 + |row_i|): each coefficient of
    det(xI - m) is a signed sum of principal minors, so Hadamard's inequality
    bounds its absolute value by B."""
    bound = 1
    for row in m.rows:
        bound *= 2 + isqrt(sum(x * x for x in row))
    return bound


def _char_coeffs_mod(rows: tuple[tuple[int, ...], ...], p: int) -> list[int]:
    """det(xI - m) mod p for the matrix m with these rows, ascending: reduce m to
    upper Hessenberg form by similarity, then run the Hessenberg recurrence
    (Cohen, GTM 138, 2.2.4).

    The rows below the pivot are updated without reduction.  A step reduces only
    what it reads: the pivot column, which the pivot search and the multipliers
    test, and the pivot row, once.  The column update and the recurrence reduce
    what they keep, and Python ints keep the unreduced entries exact.  The
    entries left below the subdiagonal are never read.
    """
    h = [[x % p for x in row] for row in rows]
    n = len(h)
    for j in range(n - 2):
        k = j + 1
        column = [row[j] % p for row in h[k:]]
        pivot = next((i for i, x in enumerate(column, k) if x), None)
        if pivot is None:
            continue
        if pivot != k:  # swap rows and columns k and pivot
            h[k], h[pivot] = h[pivot], h[k]
            column[0], column[pivot - k] = column[pivot - k], column[0]
            for row in h:
                row[k], row[pivot] = row[pivot], row[k]
        below = column[1:]
        if not any(below):
            continue
        inv = pow(column[0], -1, p)
        top = h[k][k:] = [x % p for x in h[k][k:]]
        factors = [c * inv % p for c in below]
        for row, u in zip(h[k + 1:], factors):
            if u:
                row[k:] = [a - u * b for a, b in zip(row[k:], top)]
        for row in h:  # column k += sum of u_i * column i, for all i at once
            row[k] = (row[k] + sum(map(mul, factors, row[k + 1:]))) % p
    # chi_{m+1} = (x - h[m][m]) chi_m - sum_i h[i][m] h[i+1][i] ... h[m][m-1] chi_i
    chis = [[1]]
    for m in range(n):
        prev = chis[-1]
        c = h[m][m]
        acc = [0] + prev
        acc[:-1] = [a - c * b for a, b in zip(acc, prev)]
        t = 1
        for i in range(m - 1, -1, -1):
            t = t * h[i + 1][i] % p
            if not t:
                break
            c = h[i][m] * t % p
            if c:
                q = chis[i]
                acc[:len(q)] = [a - c * b for a, b in zip(acc, q)]
        chis.append([a % p for a in acc])
    return chis[-1]


def char_coeffs(m: IntMatrix) -> list[int]:
    """Coefficients of det(xI - m), ascending degree.

    The polynomial is computed modulo proven primes whose product M exceeds 2B
    (B = `_coefficient_bound(m)`) and read off as symmetric residues modulo M,
    which are exact since every |coefficient| <= B.  Up to 240 bits that is one
    table prime, sized to the bound; above, h * 2^256 + 1 primes joined by CRT.
    """
    coeffs, modulus = [0] * (m.dimension + 1), 1
    for p in _moduli_above(2 * _coefficient_bound(m)):
        inv = pow(modulus, -1, p)
        coeffs = [c + modulus * ((r - c) * inv % p)
                  for c, r in zip(coeffs, _char_coeffs_mod(m.rows, p))]
        modulus *= p
    half = modulus >> 1
    return [c - modulus if c > half else c for c in coeffs]


def _minus_j_transpose_j(s: IntMatrix) -> IntMatrix:
    """-J s^T J, read off by index: entry (p, q) is s[q^1][p^1], negated when p
    and q differ in parity."""
    if s.dimension % 2:
        raise ValueError("symplectic matrices have even dimension")
    rows, n = s.rows, s.dimension
    return IntMatrix(tuple(tuple(rows[q ^ 1][p ^ 1] if (p ^ q) & 1 == 0 else -rows[q ^ 1][p ^ 1]
                                 for q in range(n)) for p in range(n)))


def sp_check(m: IntMatrix) -> bool:
    """True iff m preserves the intersection form: m^T J m = J.

    That holds exactly when m (-J m^T J) = I, which one product tests.
    """
    return m * _minus_j_transpose_j(m) == IntMatrix.identity(m.dimension)


def times_transvection(s: IntMatrix, beta: HVector) -> IntMatrix:
    """s times the transvection c -> c + <beta, c> beta (the homology action of a
    twist), as a rank-one update with no matrix product: column p of the
    product is s e_p + <beta, e_p> (s beta)."""
    if s.dimension != 2 * beta.genus:
        raise ValueError(f"dimension {s.dimension} vs genus {beta.genus}")
    row = pairing(beta)
    return IntMatrix(tuple(tuple(x + w * c for x, c in zip(r, row))
                           for r, w in zip(s.rows, s.apply(beta.coords))))


def conjugate(s: IntMatrix, m: IntMatrix) -> IntMatrix:
    """s m s^{-1} for a symplectic s, with s^{-1} = -J s^T J read off by index:
    two products."""
    s._same_dim(m)
    return s * m * _minus_j_transpose_j(s)
