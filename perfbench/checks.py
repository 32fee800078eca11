"""Output checks that do not trust the factorization search.

For every case, on every seed, the canonical report is checked against:

* the characteristic polynomial of the matrix it was computed from
  (the input matrix, or the report's ``psi_divided``/``psi``), evaluated
  modulo a large prime at a few points by Gaussian elimination;
* the product of the reported factors, with multiplicities;
* each stated certificate, re-verified with ``irreducible_mod_p`` at its prime;
* the verdict, recomputed from the factor degrees;
* the characteristic polynomial and factor degrees the generator knows by
  construction, if any;
* the pinned fields of a bundled fixture's ``expected.json``, if any.

On the default seed each report's sha256 is also compared with the digest
recorded in ``digests.json``.
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

from workloads import FIXTURE_DIR

MODULUS = (1 << 61) - 1
POINTS = (2, 3, 5)
DIGESTS = Path(__file__).resolve().parent / "digests.json"
CERTIFIED = "CERTIFIED_PSEUDO_ANOSOV"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_digests(workload: str) -> dict[str, str]:
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)[workload]


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _det_mod(rows: list[list[int]], p: int) -> int:
    a = [[x % p for x in row] for row in rows]
    n = len(a)
    det = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det = det * a[col][col] % p
        inv = pow(a[col][col], p - 2, p)
        for r in range(col + 1, n):
            f = a[r][col] * inv % p
            if f:
                row_r, row_c = a[r], a[col]
                for c in range(col, n):
                    row_r[c] = (row_r[c] - f * row_c[c]) % p
    return det % p


def _eval_mod(coeffs: list[int], x: int, p: int) -> int:
    out = 0
    for c in reversed(coeffs):
        out = (out * x + c) % p
    return out


def charpoly_matches(matrix: list[list[int]], coeffs: list[int]) -> bool:
    """det(xI - M) == sum coeffs[i] x^i at each of POINTS, modulo MODULUS."""
    n = len(matrix)
    if len(coeffs) != n + 1:
        return False
    for x in POINTS:
        shifted = [[(x if i == j else 0) - matrix[i][j] for j in range(n)] for i in range(n)]
        if _det_mod(shifted, MODULUS) != _eval_mod(coeffs, x, MODULUS):
            return False
    return True


def verdict_from_degrees(degrees: list[int]) -> str:
    """CERTIFIED iff no linear factor and no split into two nonempty even-degree parts."""
    if any(d == 1 for d in degrees):
        return "INCONCLUSIVE"
    # a proper split with both parts even exists iff the total is even and
    # either some factor has even degree or there are at least four factors
    # (two odd ones then make an even part); one or two odd factors cannot split
    splits = (sum(degrees) % 2 == 0 and len(degrees) >= 2
              and (any(d % 2 == 0 for d in degrees) or len(degrees) >= 4))
    return "INCONCLUSIVE" if splits else CERTIFIED


def check_report(case: dict, text: str, irreducible_mod_p, int_polynomial) -> list[str]:
    """Problems found in one case's canonical output; empty when it passes."""
    try:
        report = json.loads(text)
    except ValueError as exc:
        return [f"output is not JSON: {exc}"]
    problems = []
    chi = [int(c) for c in report["charpoly"]]
    if case["kind"] == "matrix":
        matrix = case["input"]
    else:
        source = report["psi_divided"] or report["psi"]
        matrix = [[int(x) for x in row] for row in source]
    if not charpoly_matches(matrix, chi):
        problems.append("charpoly does not match the matrix")
    expected_chi = case["expect"].get("charpoly")
    if expected_chi is not None and chi != expected_chi:
        problems.append("charpoly differs from the constructed polynomial")

    product = [1]
    degrees = []
    for factor in report["factors"]:
        poly = [int(c) for c in factor["poly"]]
        for _ in range(factor["multiplicity"]):
            product = _mul(product, poly)
            degrees.append(len(poly) - 1)
        cert = factor["certificate"]
        if cert is not None:
            try:
                ok = irreducible_mod_p(int_polynomial.of_coeffs(poly), cert["prime"])
            except ValueError as exc:
                ok = False
                problems.append(f"certificate prime {cert['prime']} is unusable: {exc}")
            if not ok:
                problems.append(f"factor {factor['poly']} is not irreducible mod {cert['prime']}")
    if product != chi:
        problems.append("product of factors differs from the charpoly")
    degrees.sort()
    if report["verdict"] != verdict_from_degrees(degrees):
        problems.append(f"verdict {report['verdict']} does not follow from degrees {degrees}")
    expected_degrees = case["expect"].get("degrees")
    if expected_degrees is not None and degrees != expected_degrees:
        problems.append(f"factor degrees {degrees}, expected {expected_degrees}")

    fixture = case["expect"].get("fixture")
    if fixture is not None:
        pinned = json.loads((FIXTURE_DIR / fixture / "expected.json").read_text(encoding="utf-8"))
        for key, value in pinned.items():
            if _canonical(report.get(key)) != _canonical(value):
                problems.append(f"fixture field {key!r} differs from expected.json")
    return problems
