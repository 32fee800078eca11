"""Seeded workload generator for the psicert benchmark.

Each workload is a list of cases.  A case is a plain dict that holds only
the input the program receives (a job document or an integer matrix) plus
what the generator knows about the answer by construction:

    {"id": str, "kind": "job" | "matrix", "input": ..., "expect": {...}}

``expect`` may hold ``"charpoly"`` (ascending coefficients of the
characteristic polynomial), ``"degrees"`` (the sorted multiset of
irreducible factor degrees, with multiplicity) and ``"fixture"`` (the name
of a bundled fixture whose ``expected.json`` pins fields of the report).
Nothing here imports psicert: inputs and expectations come from this file.

The same seed always gives the same cases.  Seeded parts keep their sizes
fixed (word lengths, term counts, which generators a word may use) and vary
only contents, and the polynomial workload varies only the similarity
transform of fixed polynomials, so that the cost of a workload, and which
cases sit at its latency percentiles, change little from seed to seed.
"""
from __future__ import annotations

import functools
import itertools
import json
import random
from pathlib import Path

WORKLOADS = ("twist-ladder", "odd-level", "polynomial")
DEFAULT_SEED = 1

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
FIXTURE_DIR = SRC / "psicert" / "fixtures_data"
EVEN_FIXTURES = ("genus2-negative", "genus5-positive", "septwist-g2-i1",
                 "septwist-g3-i1", "septwist-g3-i2", "septwist-g4-i3")
ODD_FIXTURES = ("genus4-psi1",)


# ---------------------------------------------------------------------------
# free-group words as text ("a1 b2^-1 ...")
# ---------------------------------------------------------------------------

def _balanced_reduced(rng: random.Random, handles, length: int) -> list[tuple[str, int]]:
    """A word of the given length that uses every letter a_j, b_j, j in
    handles, equally often (up to one), in seeded order.  Each letter keeps
    one seeded sign throughout, so the word is freely reduced."""
    letters = [f"{kind}{j}" for j in handles for kind in "ab"]
    sign = {name: rng.choice((1, -1)) for name in letters}
    names = letters * (length // len(letters)) + rng.sample(letters, length % len(letters))
    rng.shuffle(names)
    return [(name, sign[name]) for name in names]


def _inverse(word: list[tuple[str, int]]) -> list[tuple[str, int]]:
    return [(name, -sign) for name, sign in reversed(word)]


def _commutator(x, y):
    return x + y + _inverse(x) + _inverse(y)


def _text(word) -> str:
    return " ".join(name if sign == 1 else f"{name}^-1" for name, sign in word)


def _job(name: str, genus: int, k: int, pipeline: str, element: dict) -> dict:
    return {"schema": 1, "name": name, "genus": genus, "k": k, "pipeline": pipeline,
            "element": element}


def _fixture_cases(names) -> list[dict]:
    cases = []
    for name in names:
        doc = json.loads((FIXTURE_DIR / name / "job.json").read_text(encoding="utf-8"))
        cases.append({"id": f"fixture/{name}", "kind": "job", "input": doc,
                      "expect": {"fixture": name}})
    return cases


# ---------------------------------------------------------------------------
# twist-ladder: even level k = 2; words and Magnus expansion do the work
# ---------------------------------------------------------------------------

def _sep(index: int) -> dict:
    return {"op": "sep_twist", "index": index}


def _random_hvector(rng: random.Random, genus: int, nonzero: int) -> list[int]:
    """A homology class with exactly `nonzero` coordinates equal to +-1."""
    v = [0] * (2 * genus)
    for p in rng.sample(range(2 * genus), nonzero):
        v[p] = rng.choice((-1, 1))
    return v


def twist_ladder(seed: int) -> list[dict]:
    rng = random.Random(f"twist-ladder/{seed}")
    cases = []
    for g in range(2, 13):
        cases.append({"id": f"genus/{g}", "kind": "job", "expect": {},
                      "input": _job(f"genus-{g}", g, 2, "pi1", _sep(g - 1))})
    for e in (5, 10, 20, 40, 80):
        element = {"op": "compose",
                   "factors": [{"op": "power", "base": _sep(2), "exponent": e}, _sep(1)]}
        cases.append({"id": f"power/{e}", "kind": "job", "expect": {},
                      "input": _job(f"power-{e}", 3, 2, "pi1", element)})
    for g, i in itertools.product(range(3, 7), range(2)):
        # letters of w avoid a1, b1 and ag, bg, so every letter is moved by
        # T_{g-1} and none by T_1, and w uses each of its letters equally
        # often: the image words, and the cost of a case, then change little
        # from seed to seed
        w = _balanced_reduced(rng, range(2, g), 8)
        element = {"op": "compose", "factors": [
            _sep(1), {"op": "inner", "word": _text(w)}, _sep(g - 1),
            {"op": "inner", "word": _text(_inverse(w))}]}
        cases.append({"id": f"conjugated/{g}/{i}", "kind": "job", "expect": {},
                      "input": _job(f"conjugated-{g}-{i}", g, 2, "pi1", element)})
    for g in range(4, 11):
        terms = []
        for index in (1, g // 2, g - 1):
            atom = {"atom": "sep_twist", "index": index}
            conj = {"conjugate": atom,
                    "transvections": [_random_hvector(rng, g, 3) for _ in range(2)]}
            terms.append({"sign": rng.choice((1, -1)), "term": conj})
        cases.append({"id": f"homology-sum/{g}", "kind": "job", "expect": {},
                      "input": _job(f"homology-sum-{g}", g, 2, "homology", {"sum": terms})})
    return cases + _fixture_cases(EVEN_FIXTURES)


# ---------------------------------------------------------------------------
# odd-level: squaring, the Lie check and tensor validation do the work
# ---------------------------------------------------------------------------

def odd_level(seed: int) -> list[dict]:
    rng = random.Random(f"odd-level/{seed}")
    cases = []
    for g, i in itertools.product((4, 6, 8), range(2)):
        terms = [{"coef": rng.choice((-1, 1)),
                  "triple": [_random_hvector(rng, g, 3) for _ in range(3)]}
                 for _ in range(2 * g)]
        cases.append({"id": f"wedge3/{g}/{i}", "kind": "job", "expect": {},
                      "input": _job(f"wedge3-{g}-{i}", g, 1, "homology",
                                    {"atom": "wedge3", "terms": terms})})
    for g in range(4, 9):
        for index in range(2, g + 1):
            cases.append({"id": f"bounding-pair/{g}/{index}", "kind": "job", "expect": {},
                          "input": _job(f"bounding-pair-{g}-{index}", g, 1, "homology",
                                        {"atom": "bounding_pair", "index": index})})
    cases += _fixture_cases(ODD_FIXTURES)
    for g in range(2, 6):
        gens = [[(f"{kind}{j}", 1)] for j in range(1, g + 1) for kind in "ab"]
        # 1, 2 or 3 commutators per image, the same multiset of counts for every
        # seed, each of four distinct letters: the words have the same lengths
        counts = [1 + i % 3 for i in range(len(gens))]
        rng.shuffle(counts)
        images = []
        for x, count in zip(gens, counts):
            c = []
            for _ in range(count):
                y1, y2, y3, y4 = rng.sample(gens, 4)
                c += _commutator(_commutator(_commutator(y1, y2), y3), y4)
            images.append(_text(c + x))
        cases.append({"id": f"custom-k3/{g}", "kind": "job", "expect": {},
                      "input": _job(f"custom-k3-{g}", g, 3, "pi1",
                                    {"op": "custom", "images": images})})
    return cases


# ---------------------------------------------------------------------------
# polynomial: Berkowitz and factorization over Z do the work
# ---------------------------------------------------------------------------

def _pmul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _psub(a: list[int], b: list[int]) -> list[int]:
    n = max(len(a), len(b))
    out = [(a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0) for i in range(n)]
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def _pdiv_exact(a: list[int], b: list[int]) -> list[int]:
    """Quotient of a by the monic b; the remainder must vanish."""
    a = list(a)
    q = [0] * (len(a) - len(b) + 1)
    for i in range(len(q) - 1, -1, -1):
        q[i] = a[i + len(b) - 1]
        for j, c in enumerate(b):
            a[i + j] -= q[i] * c
    if any(a):
        raise ArithmeticError("inexact division")
    return q


def swinnerton_dyer(primes) -> list[int]:
    """Ascending coefficients of prod (x - sum(+-sqrt(p))) over all sign choices."""
    f = [0, 1]
    for p in primes:
        # f(x + s) = A(x) + s B(x) with s^2 = p, from the Taylor expansion in s;
        # f(x + s) f(x - s) = A^2 - p B^2.
        a, b = [0], [0]
        for k in range(len(f)):
            dk = [f[i] * _binom(i, k) for i in range(k, len(f))] or [0]
            term = [c * p ** (k // 2) for c in dk]
            if k % 2:
                b = _psub(b, [-c for c in term])
            else:
                a = _psub(a, [-c for c in term])
        f = _psub(_pmul(a, a), [p * c for c in _pmul(b, b)])
    return f


def _binom(n: int, k: int) -> int:
    out = 1
    for i in range(k):
        out = out * (n - i) // (i + 1)
    return out


@functools.cache
def cyclotomic(d: int) -> tuple[int, ...]:
    """Ascending coefficients of the d-th cyclotomic polynomial."""
    num = [-1] + [0] * (d - 1) + [1]
    for e in range(1, d):
        if d % e == 0:
            num = _pdiv_exact(num, cyclotomic(e))
    return tuple(num)


def companion(f: list[int]) -> list[list[int]]:
    """Companion matrix of the monic f: its characteristic polynomial is f."""
    n = len(f) - 1
    rows = [[0] * n for _ in range(n)]
    for i in range(1, n):
        rows[i][i - 1] = 1
    for i in range(n):
        rows[i][n - 1] = -f[i]
    return rows


# Similar matrices share the characteristic polynomial.  The polynomial
# workload draws its polynomials once, independent of the seed, and the seed
# picks the similarity transform: the matrices the program receives change
# with the seed, the factorization work (most of the cost) does not.

def _signed_permutation(rng: random.Random, rows: list[list[int]]) -> list[list[int]]:
    """P M P^-1 for a seeded signed permutation matrix P; entries keep their sizes."""
    n = len(rows)
    perm = rng.sample(range(n), n)
    sign = [rng.choice((-1, 1)) for _ in range(n)]
    return [[sign[i] * sign[j] * rows[perm[i]][perm[j]] for j in range(n)] for i in range(n)]


def _conjugate(rng: random.Random, rows: list[list[int]]) -> list[list[int]]:
    """E M E^-1 for a seeded product E of elementary matrices I + s e_ij."""
    rows = [list(r) for r in rows]
    n = len(rows)
    for _ in range(n):
        i, j = rng.sample(range(n), 2)
        s = rng.choice((-1, 1))
        rows[i] = [a + s * b for a, b in zip(rows[i], rows[j])]  # row_i += s row_j
        for r in rows:
            r[j] -= s * r[i]  # col_j -= s col_i
    return rows


# Orders of the cyclotomic factors: every product of two of them is a case.
CYCLOTOMIC_ORDERS = (3, 5, 7, 8, 9, 10, 12, 15, 16, 20, 24)


def polynomial(seed: int) -> list[dict]:
    rng = random.Random(f"polynomial/{seed}")
    base = random.Random("polynomial/dense")
    cases = []
    for n, count in ((20, 4), (40, 2), (60, 1)):
        for i in range(count):
            rows = [[base.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            cases.append({"id": f"dense/{n}/{i}", "kind": "matrix",
                          "input": _signed_permutation(rng, rows), "expect": {}})
    for primes in ((2, 3, 5), (2, 3, 5, 7), (2, 3, 5, 7, 11)):
        f = swinnerton_dyer(primes)
        cases.append({"id": f"swinnerton-dyer/{len(f) - 1}", "kind": "matrix",
                      "input": companion(f), "expect": {"charpoly": f, "degrees": [len(f) - 1]}})
    for a, b in itertools.combinations_with_replacement(CYCLOTOMIC_ORDERS, 2):
        f = _pmul(cyclotomic(a), cyclotomic(b))
        degrees = sorted(len(cyclotomic(d)) - 1 for d in (a, b))
        cases.append({"id": f"cyclotomic/{a}x{b}", "kind": "matrix",
                      "input": _conjugate(rng, companion(f)),
                      "expect": {"charpoly": f, "degrees": degrees}})
    q = [base.randint(-4, 4) for _ in range(8)] + [1]
    even = [0] * (2 * len(q) - 1)
    even[::2] = q
    cases.append({"id": "even/16", "kind": "matrix",
                  "input": _signed_permutation(rng, companion(even)),
                  "expect": {"charpoly": even}})
    return cases


GENERATORS = {"twist-ladder": twist_ladder, "odd-level": odd_level, "polynomial": polynomial}


def generate(workload: str, seed: int) -> list[dict]:
    return GENERATORS[workload](seed)
