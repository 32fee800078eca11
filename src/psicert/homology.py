"""First homology of the once-punctured genus-g surface, with exact integer linear algebra.

The ordered basis of H is (a_1, b_1, a_2, b_2, ..., a_g, b_g); coordinate
position p (0-based) corresponds to a_{p//2+1} for even p and b_{p//2+1} for
odd p.  The algebraic intersection pairing satisfies <a_i, b_i> = +1.

Matrices act on column vectors: column j of a matrix is the image of the j-th
basis vector.  All arithmetic is over arbitrary-precision integers; the
characteristic polynomial uses the division-free Berkowitz scheme and a
symplectic matrix s is inverted as -J s^T J, so no rationals ever appear.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import _same_genus

GENERATOR_KINDS = ("a", "b")


def basis_position(name: str, genus: int) -> int:
    """0-based coordinate position of a generator name like 'b3'."""
    name = name.strip()
    if len(name) < 2 or name[0] not in GENERATOR_KINDS or not name[1:].isdigit():
        raise ValueError(f"bad generator name {name!r}")
    j = int(name[1:])
    if not 1 <= j <= genus:
        raise ValueError(f"generator {name!r} out of range for genus {genus}")
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
    def zero(genus: int) -> "HVector":
        return HVector(genus, (0,) * (2 * genus))

    @staticmethod
    def basis(genus: int, position: int) -> "HVector":
        coords = [0] * (2 * genus)
        coords[position] = 1
        return HVector(genus, tuple(coords))

    @staticmethod
    def from_name(name: str, genus: int) -> "HVector":
        return HVector.basis(genus, basis_position(name, genus))

    def __add__(self, other: "HVector") -> "HVector":
        _same_genus(self, other)
        return HVector(self.genus, tuple(x + y for x, y in zip(self.coords, other.coords)))

    def __sub__(self, other: "HVector") -> "HVector":
        _same_genus(self, other)
        return HVector(self.genus, tuple(x - y for x, y in zip(self.coords, other.coords)))

    def __neg__(self) -> "HVector":
        return HVector(self.genus, tuple(-x for x in self.coords))

    def scale(self, k: int) -> "HVector":
        return HVector(self.genus, tuple(k * x for x in self.coords))

    def is_zero(self) -> bool:
        return not any(self.coords)


def symbol_intersection(p: int, q: int) -> int:
    """Intersection number of basis symbols 1..2g: <a_j, b_j> = 1 = -<b_j, a_j>, else 0."""
    return q - p if (p + 1) // 2 == (q + 1) // 2 else 0


def intersection(u: HVector, v: HVector) -> int:
    """Algebraic intersection number, bilinear with <a_i, b_i> = 1."""
    _same_genus(u, v)
    total = 0
    for j in range(u.genus):
        total += u.coords[2 * j] * v.coords[2 * j + 1] - u.coords[2 * j + 1] * v.coords[2 * j]
    return total


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
    def zero(n: int) -> "IntMatrix":
        return IntMatrix(tuple((0,) * n for _ in range(n)))

    @staticmethod
    def diagonal(entries) -> "IntMatrix":
        entries = tuple(entries)
        n = len(entries)
        return IntMatrix(tuple(tuple(entries[i] if i == j else 0 for j in range(n)) for i in range(n)))

    @staticmethod
    def from_columns(columns) -> "IntMatrix":
        cols = tuple(tuple(c) for c in columns)
        n = len(cols)
        return IntMatrix(tuple(tuple(cols[j][i] for j in range(n)) for i in range(n)))

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        self._same_dim(other)
        return IntMatrix(tuple(tuple(a + b for a, b in zip(r, s)) for r, s in zip(self.rows, other.rows)))

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        self._same_dim(other)
        return IntMatrix(tuple(tuple(a - b for a, b in zip(r, s)) for r, s in zip(self.rows, other.rows)))

    def __neg__(self) -> "IntMatrix":
        return IntMatrix(tuple(tuple(-a for a in r) for r in self.rows))

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

    def transpose(self) -> "IntMatrix":
        return IntMatrix(tuple(zip(*self.rows)))

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(r[j] for r in self.rows)

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
                    raise ValueError(f"entry {x} not divisible by {d}")
                row.append(q)
            out.append(tuple(row))
        return IntMatrix(tuple(out))


def char_coeffs(m: IntMatrix) -> list[int]:
    """Coefficients of det(xI - m), ascending degree, via the Berkowitz scheme.

    Division-free: every intermediate is an integer.
    """
    n = m.dimension
    if n == 0:
        return [1]
    a = m.rows
    poly = [1, -a[0][0]]  # descending coefficients for the 1x1 principal block
    for k in range(1, n):
        row = a[k][:k]
        col = [a[i][k] for i in range(k)]
        items = [1, -a[k][k]]
        vec = list(col)
        for _ in range(k):
            items.append(-sum(row[i] * vec[i] for i in range(k)))
            vec = [sum(a[i][j] * vec[j] for j in range(k)) for i in range(k)]
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


def symplectic_form(genus: int) -> IntMatrix:
    """J with J[p][q] = <e_p, e_q>, the intersection pairing on the ordered basis."""
    n = 2 * genus
    return IntMatrix.from_rows([[symbol_intersection(p + 1, q + 1) for q in range(n)] for p in range(n)])


def sp_check(m: IntMatrix) -> bool:
    """True iff m preserves the intersection form: m^T J m = J."""
    if m.dimension % 2:
        raise ValueError("symplectic matrices have even dimension")
    j = symplectic_form(m.dimension // 2)
    return m.transpose() * j * m == j


def transvection(beta: HVector) -> IntMatrix:
    """Matrix of c -> c + <beta, c> beta (the homology action of a twist)."""
    n = 2 * beta.genus
    cols = []
    for p in range(n):
        e = HVector.basis(beta.genus, p)
        coeff = intersection(beta, e)
        cols.append(tuple(e.coords[i] + coeff * beta.coords[i] for i in range(n)))
    return IntMatrix.from_columns(cols)


def symplectic_inverse(s: IntMatrix) -> IntMatrix:
    """-J s^T J, the inverse of a symplectic s; ValueError when s is not symplectic.

    s (-J s^T J) = I holds exactly when s^T J s = J, which the product checks.
    """
    if s.dimension % 2:
        raise ValueError("symplectic matrices have even dimension")
    j = symplectic_form(s.dimension // 2)
    inv = -(j * s.transpose() * j)
    if s * inv != IntMatrix.identity(s.dimension):
        raise ValueError("matrix is not symplectic")
    return inv


def conjugate(s: IntMatrix, m: IntMatrix) -> IntMatrix:
    """s m s^{-1} for a symplectic s, inverted exactly by symplectic_inverse."""
    s._same_dim(m)
    return s * m * symplectic_inverse(s)
