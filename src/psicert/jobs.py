"""Job documents and the certification pipeline.

A job selects a genus, a filtration level k, and one of two routes to the
invariant matrix:

* ``pi1``: the element is an expression tree of free-group endomorphisms
  (built-in separating twists, inner automorphisms, user-supplied custom
  endomorphisms, compositions, positive powers).  On J(k), the
  endomorphisms of depth at least k, the level-k cochain is additive:
  tau(f g) = tau(f) + tau(g) and tau(f^e) = e tau(f) (Johnson 1980; Morita
  1993).  So when every leaf of the tree has depth at least k, and the
  tree counts at most MAX_EXPONENT leaves, the cochain is the
  multiplicity-weighted sum of the leaves' cochains, each read off one
  Magnus expansion per generator at degree k+1, and no composed word is
  written.  Otherwise the word route builds the element and reads its
  cochain the same way.  A nonzero cochain fixes the depth at k; only a
  vanishing one has the depth read at the job truncation.  The cochain is
  then contracted.
* ``homology``: the element is a signed sum of invariant-matrix atoms
  (separating-twist index, weight-2 wedge data, bounding-pair index), with
  optional conjugation by an explicit symplectic matrix or by a product of
  transvections given by homology classes.  Sums with more than one term
  require even k, where the invariant is additive.

Both routes end identically: optional exact division of the matrix, then
characteristic polynomial, factorization, and the factor-structure verdict.
Reports are canonically serialized (sorted keys, integers as decimal
strings) so identical jobs produce identical bytes; timings are opt-in and
excluded from the canonical form.
"""
from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import NamedTuple

from .contract import ContractionSpec, psi_matrix
from .errors import JobError
from .homology import HVector, IntMatrix, conjugate, sp_check, times_transvection
from .johnson import (DepthResult, JohnsonCochain, WedgeTerm, _expansion, bp_tau,
                      cochain_from_wedge3, depth_and_tau, filtration_depth, tau_on_H)
from .polylab import CriterionReport, _is_prime, charpoly, criterion
from .tensors import TruncatedTensor, _sum_terms
from .words import (MAX_WORD_LETTERS, FreeEndomorphism, compose_endos, inner_automorphism,
                    parse_word, sep_twist)

SCHEMA_VERSION = 1
PIPELINES = ("pi1", "homology")


# ---------------------------------------------------------------------------
# JSON codecs for shared value types
# ---------------------------------------------------------------------------

def matrix_to_json_obj(m: IntMatrix) -> list:
    return [[str(x) for x in row] for row in m.rows]


def _integer(value, what: str) -> int:
    """A JSON integer; bool is rejected although Python counts it as an int."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise JobError(f"{what} must be an integer, got {type(value).__name__}")
    return value


def _entry(value) -> int:
    """A matrix or vector entry: a JSON integer, or an optional - and ASCII digits."""
    if not isinstance(value, str):
        return _integer(value, "entry")
    if value.isascii() and value.removeprefix("-").isdecimal():
        return int(value)
    raise ValueError(f"{value!r} is not a decimal string")


def parse_matrix(obj, *, what: str = "matrix") -> IntMatrix:
    if not isinstance(obj, list) or not obj or not all(isinstance(r, list) for r in obj):
        raise JobError(f"{what} must be a nonempty array of rows")
    if len(obj) > MAX_MATRIX_DIMENSION:
        raise JobError(f"{what} has {len(obj)} rows, cap {MAX_MATRIX_DIMENSION}")
    if any(len(r) != len(obj) for r in obj):
        raise JobError(f"{what} must be square")
    try:
        rows = [[_entry(x) for x in row] for row in obj]
    except (TypeError, ValueError) as exc:
        raise JobError(f"{what} entries must be integers or decimal strings: {exc}") from None
    m = IntMatrix.from_rows(rows)
    _check_entry_bits(m, MAX_MATRIX_BITS, what)
    return m


def _check_entry_bits(m: IntMatrix, cap: int, what: str) -> None:
    bits = max(abs(x).bit_length() for row in m.rows for x in row)
    if bits > cap:
        raise JobError(f"{what} entries reach {bits} bits, cap {cap}")


def parse_hvector(obj, genus: int, *, what: str = "vector") -> HVector:
    if isinstance(obj, str):
        try:
            return HVector.from_name(obj, genus)
        except ValueError as exc:
            raise JobError(f"{what}: {exc}") from None
    if isinstance(obj, list):
        if len(obj) != 2 * genus:
            raise JobError(f"{what} must have 2*genus = {2 * genus} coordinates")
        try:
            return HVector(genus, tuple(_entry(x) for x in obj))
        except (TypeError, ValueError) as exc:
            raise JobError(f"{what}: {exc}") from None
    raise JobError(f"{what} must be a coordinate array or a generator name")


# ---------------------------------------------------------------------------
# job parsing
# ---------------------------------------------------------------------------

# This cap on power exponents also caps the leaves a pi1 tree may count (each
# power multiplies its base's count) for its cochain to be summed from the
# leaves', so it bounds the sum's coefficients at 256 times a leaf's.  A tree
# that counts more, or has a leaf of depth below k, takes the word route, where
# MAX_WORD_LETTERS, the cap on the letters one composition may write into an
# image, keeps the build finite; both caps admit the largest benchmark case
# (exponent 80, 17 x 1289 letters on the word route) about threefold.
MAX_EXPONENT = 256
# Only an element whose level-k cochain vanishes is expanded at the truncation:
# a genus-2 twist at truncation 24 took 0.39 s at k=1, 0.001 s at k=2 (2-core
# x86 VM).  The caps admit the benchmark's genus 12 and truncation 8 threefold.
MAX_GENUS = 36
MAX_TRUNCATION = 24
# Each listed prime costs a Miller-Rabin test here and a scan in `factor_z`;
# the bundled fixtures list one prime each.
MAX_PRIMES = 64
# Each transvection class costs one rank-one update of the 2g x 2g conjugator
# and a size check here; the benchmark and the fixtures give 2 per conjugate node.
MAX_TRANSVECTIONS = 64
# charpoly slows with the entry size of the conjugated matrix, which sets how many
# primes it works modulo.  A genus-36 conjugator made of 64 random transvections
# has 262-bit entries and the conjugate 317-bit ones; on a 2-core x86 VM,
# charpoly took 1.1 s on one conjugated twist (of low rank) and 17 s on a dense
# 72 x 72 matrix with 317-bit entries, as a sum of such conjugates can be.  The
# benchmark's and the fixtures' conjugators have entries of at most 3 bits.
MAX_CONJUGATOR_BITS = 16
# charpoly costs O(n^3) per prime in the dimension of a matrix read by
# `parse_matrix`, and works modulo one prime sized to its coefficient bound
# (about n times the entry size) up to 240 bits, and above that one 256-bit
# prime per 256 bits of the bound.  On a 2-core x86 VM it took 0.39 s on a
# 72 x 72 matrix with 3-bit entries, 3.5-3.9 s with 64-bit, 6.2-6.7 s with
# 128-bit and 61 s with 1000-bit entries.  The polynomial benchmark's matrices
# reach 60 rows and 58-bit entries; a conjugator is 2g x 2g.
MAX_MATRIX_DIMENSION = 2 * MAX_GENUS
MAX_MATRIX_BITS = 64

# The element tree below uses NamedTuples: a frozen dataclass takes about
# 1 ms to create at import, a NamedTuple about 0.14 ms.


class Compose(NamedTuple):
    """pi1 node: factors[0] after factors[1] after ..., all that `exponent` times."""

    factors: tuple
    exponent: int = 1


class Atom(NamedTuple):
    """Homology leaf: `index` for sep_twist and bounding_pair, `terms` for wedge3."""

    kind: str
    index: int | None = None
    terms: tuple[WedgeTerm, ...] = ()


class Sum(NamedTuple):
    """Homology node: (sign, term) pairs."""

    terms: tuple


class Conjugate(NamedTuple):
    """Homology node: `inner` conjugated by a checked symplectic matrix."""

    inner: object
    conjugator: IntMatrix


@dataclass(frozen=True)
class Job:
    genus: int
    k: int
    pipeline: str
    element: FreeEndomorphism | Compose | Atom | Sum | Conjugate
    name: str | None = None
    divide_by: int = 1
    primes: tuple[int, ...] | None = None
    # how far observed_depth is read when the level-k cochain vanishes;
    # parse_job sets k+2, or 2k+2 at odd k, when absent
    truncation: int | None = None
    contraction: ContractionSpec | None = None


def parse_job(obj: dict) -> Job:
    """Check a job document and lower its element to a tree of nodes, in one walk."""
    if not isinstance(obj, dict):
        raise JobError("job document must be a JSON object")
    schema = obj.get("schema")
    if type(schema) is not int or schema != SCHEMA_VERSION:
        raise JobError(f"unsupported schema version {schema!r} (expected {SCHEMA_VERSION})")
    try:
        genus = _integer(obj["genus"], "genus")
        k = _integer(obj["k"], "k")
        pipeline = obj["pipeline"]
        element = obj["element"]
    except KeyError as exc:
        raise JobError(f"missing required job field {exc.args[0]!r}") from None
    if not 1 <= genus <= MAX_GENUS:
        raise JobError(f"genus must be in 1..{MAX_GENUS}, got {genus}")
    if k < 1:
        raise JobError("k must be at least 1")
    if pipeline not in PIPELINES:
        raise JobError(f"pipeline must be one of {PIPELINES}")
    options = obj.get("options", {})
    if not isinstance(options, dict):
        raise JobError("options must be an object")
    divide_by = _integer(options.get("divide_by", 1), "divide_by")
    if divide_by < 1:
        raise JobError("divide_by must be a positive integer")
    primes = options.get("primes")
    if primes is not None:
        if not isinstance(primes, list):
            raise JobError("primes must be a list of primes")
        if len(primes) > MAX_PRIMES:
            raise JobError(f"primes lists {len(primes)} entries, cap {MAX_PRIMES}")
        primes = tuple(_integer(p, "each of primes") for p in primes)
        for p in primes:
            if not (p < 1 << 64 and _is_prime(p)):
                raise JobError(f"primes must all be primes below 2^64, got {p}")
    truncation = _integer(options.get("truncation", 2 * k + 2 if k % 2 else k + 2), "truncation")
    if truncation < k + 1:
        raise JobError(f"truncation must be at least k+1 = {k + 1}")
    if truncation > MAX_TRUNCATION:
        raise JobError(f"truncation {truncation} exceeds the cap {MAX_TRUNCATION} "
                       "(the default is k+2, or 2k+2 at odd k)")
    contraction = options.get("contraction_spec")
    if contraction is not None:
        contraction = _contraction_spec(contraction)
    if not isinstance(obj.get("name", ""), str):
        raise JobError(f"name must be a string, got {type(obj['name']).__name__}")
    tree = _parse_pi1(element, genus) if pipeline == "pi1" else _parse_homology(element, genus, k)
    return Job(genus, k, pipeline, tree, obj.get("name"), divide_by, primes, truncation,
               contraction)


def load_job(path, options: dict | None = None) -> Job:
    """Read and parse the job document at `path`.

    Entries of `options` replace the document's own options of the same
    name (the command line's overrides).
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise JobError(f"invalid JSON in {path}: {exc}") from None
    if options and isinstance(doc, dict):
        own = doc.get("options", {})
        if not isinstance(own, dict):
            raise JobError("options must be an object")
        doc = {**doc, "options": {**own, **options}}
    return parse_job(doc)


def _contraction_spec(obj) -> ContractionSpec:
    pairs = obj.get("pairs") if isinstance(obj, dict) else None
    if not isinstance(pairs, list) or not all(isinstance(p, list) and len(p) == 2 for p in pairs):
        raise JobError("contraction spec needs 'pairs', an array of two-slot arrays")
    pairs = tuple(tuple(_integer(slot, "contraction slot") for slot in p) for p in pairs)
    output = _integer(obj.get("output"), "contraction output")
    try:
        return ContractionSpec(pairs, output)
    except ValueError as exc:
        raise JobError(f"bad contraction spec: {exc}") from None


def _index(node: dict, what: str, top: int, top_name: str) -> int:
    index = _integer(node.get("index", 0), f"{what} index")
    if not 1 <= index <= top:
        raise JobError(f"{what} index must be in 1..{top_name}, got {index}")
    return index


def _parse_pi1(node, genus: int):
    if not isinstance(node, dict) or "op" not in node:
        raise JobError("pi1 element nodes must be objects with an 'op' field")
    op = node["op"]
    if op == "sep_twist":
        return sep_twist(genus, _index(node, "sep_twist", genus - 1, "genus-1"))
    if op == "inner":
        if not isinstance(node.get("word"), str):
            raise JobError("inner node needs a 'word' string")
        return inner_automorphism(parse_word(node["word"], genus))
    if op == "custom":
        images = node.get("images")
        if (not isinstance(images, list) or len(images) != 2 * genus
                or not all(isinstance(w, str) for w in images)):
            raise JobError(f"custom node needs exactly {2 * genus} image word strings")
        return FreeEndomorphism(genus, tuple(parse_word(w, genus) for w in images))
    if op == "compose":
        factors = node.get("factors")
        if not isinstance(factors, list) or not factors:
            raise JobError("compose node needs a nonempty 'factors' list")
        return Compose(tuple(_parse_pi1(f, genus) for f in factors))
    if op == "power":
        exponent = _integer(node.get("exponent", 0), "power exponent")
        if not 1 <= exponent <= MAX_EXPONENT:
            raise JobError(f"power exponent must be in 1..{MAX_EXPONENT}, got {exponent}")
        return Compose((_parse_pi1(node.get("base"), genus),), exponent)
    raise JobError(f"unknown pi1 op {op!r}")


def _parse_homology(node, genus: int, k: int):
    if not isinstance(node, dict):
        raise JobError("homology element nodes must be objects")
    if "sum" in node:
        terms = node["sum"]
        if not isinstance(terms, list) or not terms:
            raise JobError("sum node needs a nonempty list of terms")
        if len(terms) > 1 and k % 2 == 1:
            raise JobError("signed sums with more than one term require even k "
                           "(the invariant is only additive at even levels)")
        parsed = []
        for t in terms:
            if (not isinstance(t, dict) or type(t.get("sign")) is not int
                    or t["sign"] not in (1, -1) or "term" not in t):
                raise JobError("sum terms must be objects with sign +-1 and a 'term'")
            parsed.append((t["sign"], _parse_homology(t["term"], genus, k)))
        return Sum(tuple(parsed))
    if "conjugate" in node:
        if ("matrix" in node) == ("transvections" in node):
            raise JobError("conjugate node needs exactly one of 'matrix' or 'transvections'")
        if "matrix" in node:
            s = parse_matrix(node["matrix"], what="conjugator matrix")
            if s.dimension != 2 * genus:
                raise JobError(f"conjugator matrix must be {2 * genus}x{2 * genus}")
            _check_entry_bits(s, MAX_CONJUGATOR_BITS, "conjugator")
        else:
            classes = node["transvections"]
            if not isinstance(classes, list) or not 1 <= len(classes) <= MAX_TRANSVECTIONS:
                raise JobError(f"transvections must list 1..{MAX_TRANSVECTIONS} homology classes")
            s = IntMatrix.identity(2 * genus)
            for v in classes:
                s = times_transvection(s, parse_hvector(v, genus, what="transvection class"))
                _check_entry_bits(s, MAX_CONJUGATOR_BITS, "conjugator")
        if not sp_check(s):
            raise JobError("non-symplectic conjugator matrix")
        return Conjugate(_parse_homology(node["conjugate"], genus, k), s)
    atom = node.get("atom")
    if atom in ("wedge3", "bounding_pair") and k != 1:
        raise JobError(f"{atom} atoms define weight-2 data and require k = 1")
    if atom == "sep_twist":
        return Atom(atom, _index(node, "sep_twist", genus - 1, "genus-1"))
    if atom == "wedge3":
        terms = node.get("terms")
        if not isinstance(terms, list) or not terms:
            raise JobError("wedge3 node needs a nonempty 'terms' list")
        parsed = []
        for t in terms:
            if not isinstance(t, dict) or "coef" not in t or "triple" not in t:
                raise JobError("wedge terms must be objects with 'coef' and 'triple'")
            if not isinstance(t["triple"], list) or len(t["triple"]) != 3:
                raise JobError("wedge triple must list exactly three vectors")
            vectors = tuple(parse_hvector(v, genus, what="wedge vector") for v in t["triple"])
            parsed.append((_integer(t["coef"], "wedge coef"), vectors))
        return Atom(atom, terms=tuple(parsed))
    if atom == "bounding_pair":
        return Atom(atom, _index(node, "bounding_pair", genus, "genus"))
    raise JobError(f"unknown homology node {sorted(node.keys())}")


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def _compose(f: FreeEndomorphism, g: FreeEndomorphism) -> FreeEndomorphism:
    """f after g, refused when it could write more than MAX_WORD_LETTERS letters into an image.

    Each image of f after g joins one image of f per letter of g's image and
    cancels only at the seams: Python steps per letter of g, C copies per
    letter of f.  The bound max|f|*max|g| is symmetric in f and g, so both
    orders of a product admit and refuse the same documents.
    """
    letters = max(len(w) for w in f.images) * max(len(w) for w in g.images)
    if letters > MAX_WORD_LETTERS:
        raise JobError(f"a composition could write {letters} letters, cap {MAX_WORD_LETTERS}")
    return compose_endos(f, g)


def build_endomorphism(node) -> FreeEndomorphism:
    """The endomorphism of a parsed pi1 element.

    A power builds f^(i+1) as f^i after f, not f after f^i: both are the same
    endomorphism, but this way the long images of f^i are the blocks that
    replace the letters of f's short images, so each step costs a few dozen
    seams rather than a Python step per letter of f^i.
    """
    if isinstance(node, FreeEndomorphism):
        return node
    endos = [build_endomorphism(f) for f in node.factors]
    base = endos[-1]
    for f in reversed(endos[:-1]):
        base = _compose(f, base)
    out = base
    for _ in range(node.exponent - 1):
        out = _compose(out, base)
    return out


def _atom_cochain(atom: Atom, job: Job) -> JohnsonCochain:
    if atom.kind == "sep_twist":
        return tau_on_H(sep_twist(job.genus, atom.index), job.k)
    if atom.kind == "wedge3":
        return cochain_from_wedge3(job.genus, atom.terms)
    return bp_tau(job.genus, atom.index)


def _eval_homology(node, job: Job, atom_taus: list, done: dict) -> IntMatrix:
    """The invariant matrix of a parsed homology element; appends each atom's cochain.

    `done` maps each atom already evaluated to its (cochain entry, matrix), so
    an atom that occurs again is listed again but computed once.
    """
    if isinstance(node, Sum):
        terms = [sign * _eval_homology(term, job, atom_taus, done) for sign, term in node.terms]
        return sum(terms[1:], terms[0])
    if isinstance(node, Conjugate):
        return conjugate(node.conjugator, _eval_homology(node.inner, job, atom_taus, done))
    if node not in done:
        c = _atom_cochain(node, job)
        index = {} if node.index is None else {"index": node.index}
        done[node] = ({"atom": node.kind, **index, "tau": c.to_json_obj()},
                      psi_matrix(c, job.k, job.contraction))
    entry, psi = done[node]
    atom_taus.append(entry)
    return psi


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CertificationReport:
    job: Job
    observed_depth: DepthResult | None
    tau: JohnsonCochain | None
    atom_taus: list | None
    psi: IntMatrix
    psi_divided: IntMatrix | None
    result: CriterionReport
    timings: dict | None = None

    def to_json_obj(self) -> dict:
        crit = self.result.to_json_obj()
        obj = {
            "schema": SCHEMA_VERSION,
            "name": self.job.name,
            "genus": self.job.genus,
            "k": self.job.k,
            "pipeline": self.job.pipeline,
            "observed_depth": self.observed_depth.to_json_obj() if self.observed_depth else None,
            "tau": self.tau.to_json_obj() if self.tau else None,
            "atom_taus": self.atom_taus,
            "psi": matrix_to_json_obj(self.psi),
            "divide_by": self.job.divide_by,
            "psi_divided": matrix_to_json_obj(self.psi_divided) if self.psi_divided else None,
            "charpoly": crit["charpoly"],
            "factors": crit["factors"],
            "certificates": [f["certificate"] for f in crit["factors"]],
            "verdict": crit["verdict"],
            "reasons": crit["reasons"],
        }
        if self.timings is not None:
            obj["timings"] = self.timings
        return obj

    def to_json(self) -> str:
        return canonical_json(self.to_json_obj())


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _leaf_counts(node, times: int, counts: dict) -> None:
    """Add `times` times the multiplicity of each leaf of `node` to `counts`, in tree order."""
    if isinstance(node, FreeEndomorphism):
        counts[node] = counts.get(node, 0) + times
        return
    for f in node.factors:
        _leaf_counts(f, times * node.exponent, counts)


def _leaf_tau(f: FreeEndomorphism, k: int) -> list[dict] | None:
    """The term dicts of f's level-k cochain, or None when f has depth below k.

    The generators are expanded at k+1 shortest image first, so a leaf of low
    depth is usually declined after one short expansion.  Each dict keeps the
    empty word's coefficient 1 next to the degree-(k+1) terms.
    """
    images = [None] * len(f.images)
    for i in sorted(range(len(f.images)), key=lambda i: len(f.images[i])):
        terms = _expansion(f, i, k + 1).terms
        if any(0 < len(w) <= k for w in terms):
            return None
        images[i] = terms
    return images


def _additive_tau(job: Job) -> JohnsonCochain | None:
    """The level-k cochain of a pi1 element summed over the leaves of its tree, or None.

    On J(k) the cochain is a homomorphism, so each leaf contributes its own
    cochain times the number of times the tree composes it.  None when the
    tree counts more than MAX_EXPONENT leaves, or at the first leaf, in tree
    order, whose depth is below k.
    """
    counts: dict = {}
    _leaf_counts(job.element, 1, counts)
    if sum(counts.values()) > MAX_EXPONENT:
        return None
    taus = []
    for leaf, times in counts.items():
        images = _leaf_tau(leaf, job.k)
        if images is None:
            return None
        taus.append((times, images))
    weight = job.k + 1
    return JohnsonCochain(job.genus, weight, tuple(
        TruncatedTensor(job.genus, weight, _sum_terms(
            (w, times * c) for times, images in taus for w, c in images[i].items() if w))
        for i in range(2 * job.genus)))


def _pi1_cochain(job: Job) -> tuple[DepthResult, JohnsonCochain]:
    """The depth and the level-k cochain of the pi1 element, additively when it can be.

    When the additive route declines, the element is built and expanded as a
    whole.  A nonzero sum fixes the depth at k.  A vanishing one leaves the
    depth to be read on the built element at the truncation, as the word
    route would read it after its own expansion at k+1.
    """
    tau = _additive_tau(job)
    if tau is None:
        return depth_and_tau(build_endomorphism(job.element), job.k, job.truncation)
    if tau.is_zero():
        return filtration_depth(build_endomorphism(job.element), job.truncation - 1), tau
    return DepthResult(job.k, exact=True), tau


def run_tau(job: Job):
    """Depth check plus the level-k cochain, without the polynomial tail.

    Supports pi1 jobs and homology jobs whose element is a single cochain
    atom; returns (DepthResult | None, JohnsonCochain).
    """
    if job.pipeline == "pi1":
        return _pi1_cochain(job)
    if isinstance(job.element, Atom):
        return None, _atom_cochain(job.element, job)
    raise JobError("tau needs a pi1 job or a homology job whose element is a single cochain atom")


def run_job(job: Job, *, want_timings: bool = False) -> CertificationReport:
    """Run the full pipeline for a parsed job."""
    timings: dict[str, float] = {}
    depth = tau = atom_taus = None
    t0 = time.perf_counter()
    if job.pipeline == "pi1":
        depth, tau = _pi1_cochain(job)
        t2 = time.perf_counter()
        timings["tau_s"] = t2 - t0
        psi = psi_matrix(tau, job.k, job.contraction)
        timings["psi_s"] = time.perf_counter() - t2
    else:
        atom_taus = []
        psi = _eval_homology(job.element, job, atom_taus, {})
        timings["psi_s"] = time.perf_counter() - t0
    divided = None
    work = psi
    if job.divide_by != 1:
        try:
            divided = psi.exact_divide(job.divide_by)
        except ValueError as exc:
            raise JobError(f"exact division failed: {exc}") from None
        work = divided
    t3 = time.perf_counter()
    chi = charpoly(work)
    t4 = time.perf_counter()
    timings["charpoly_s"] = t4 - t3
    result = criterion(chi, job.primes)
    timings["criterion_s"] = time.perf_counter() - t4
    timings["total_s"] = time.perf_counter() - t0
    return CertificationReport(job, depth, tau, atom_taus, psi, divided, result,
                               timings if want_timings else None)
