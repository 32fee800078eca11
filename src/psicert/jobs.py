"""Job documents and the certification pipeline.

A job selects a genus, a filtration level k, and one of two routes to the
invariant matrix:

* ``pi1``: the element is an expression tree of free-group endomorphisms
  (built-in separating twists, inner automorphisms, user-supplied custom
  endomorphisms, compositions, positive powers).  The pipeline verifies the
  filtration depth, extracts the level-k cochain from Magnus expansions,
  and contracts it.
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

from .contract import ContractionSpec, psi_matrix
from .errors import DepthError, JobError
from .homology import HVector, IntMatrix, sp_check, transvection, conjugate
from .johnson import (DepthResult, JohnsonCochain, bp_tau, cochain_from_wedge3,
                      filtration_depth, tau_on_H)
from .polylab import CriterionReport, _is_prime, charpoly, criterion
from .words import (FreeEndomorphism, compose_endos, inner_automorphism,
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
    """A matrix or vector entry: a JSON integer or a decimal string."""
    return int(value) if isinstance(value, str) else _integer(value, "entry")


def parse_matrix(obj, *, what: str = "matrix") -> IntMatrix:
    if not isinstance(obj, list) or not obj or not all(isinstance(r, list) for r in obj):
        raise JobError(f"{what} must be a nonempty array of rows")
    try:
        rows = [[_entry(x) for x in row] for row in obj]
    except (TypeError, ValueError) as exc:
        raise JobError(f"{what} entries must be integers or decimal strings: {exc}") from None
    if any(len(r) != len(rows) for r in rows):
        raise JobError(f"{what} must be square")
    return IntMatrix.from_rows(rows)


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

@dataclass(frozen=True)
class Job:
    genus: int
    k: int
    pipeline: str
    element: dict
    name: str | None = None
    divide_by: int = 1
    primes: tuple[int, ...] | None = None
    truncation: int | None = None
    contraction: ContractionSpec | None = None


def parse_job(obj: dict) -> Job:
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
    if genus < 1:
        raise JobError("genus must be positive")
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
        primes = tuple(_integer(p, "each of primes") for p in primes)
        for p in primes:
            if not _is_prime(p):
                raise JobError(f"primes must all be prime, got {p}")
    truncation = options.get("truncation")
    if truncation is not None:
        truncation = _integer(truncation, "truncation")
        if truncation < k + 1:
            raise JobError(f"truncation must be at least k+1 = {k + 1}")
    contraction = options.get("contraction_spec")
    if contraction is not None:
        try:
            contraction = ContractionSpec.from_json_obj(contraction)
        except (KeyError, TypeError, ValueError) as exc:
            raise JobError(f"bad contraction spec: {exc}") from None
    name = obj.get("name")
    job = Job(genus, k, pipeline, element, name, divide_by, primes, truncation, contraction)
    # validate the element tree eagerly so bad documents fail before any work
    if pipeline == "pi1":
        _validate_pi1(element, job)
    else:
        _validate_homology(element, job)
    return job


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


def _validate_pi1(node, job: Job):
    if not isinstance(node, dict) or "op" not in node:
        raise JobError("pi1 element nodes must be objects with an 'op' field")
    op = node["op"]
    if op == "sep_twist":
        index = _integer(node.get("index", 0), "sep_twist index")
        if not 1 <= index <= job.genus - 1:
            raise JobError(f"sep_twist index must be in 1..genus-1, got {index}")
    elif op == "inner":
        if not isinstance(node.get("word"), str):
            raise JobError("inner node needs a 'word' string")
        parse_word(node["word"], job.genus)
    elif op == "custom":
        images = node.get("images")
        if (not isinstance(images, list) or len(images) != 2 * job.genus
                or not all(isinstance(w, str) for w in images)):
            raise JobError(f"custom node needs exactly {2 * job.genus} image word strings")
        for w in images:
            parse_word(w, job.genus)
    elif op == "compose":
        factors = node.get("factors")
        if not isinstance(factors, list) or not factors:
            raise JobError("compose node needs a nonempty 'factors' list")
        for f in factors:
            _validate_pi1(f, job)
    elif op == "power":
        exponent = _integer(node.get("exponent", 0), "power exponent")
        if exponent < 1:
            raise JobError("power exponent must be a positive integer")
        _validate_pi1(node.get("base"), job)
    else:
        raise JobError(f"unknown pi1 op {op!r}")


def _validate_homology(node, job: Job):
    if not isinstance(node, dict):
        raise JobError("homology element nodes must be objects")
    if "sum" in node:
        terms = node["sum"]
        if not isinstance(terms, list) or not terms:
            raise JobError("sum node needs a nonempty list of terms")
        if len(terms) > 1 and job.k % 2 == 1:
            raise JobError("signed sums with more than one term require even k "
                           "(the invariant is only additive at even levels)")
        for t in terms:
            if (not isinstance(t, dict) or type(t.get("sign")) is not int
                    or t["sign"] not in (1, -1) or "term" not in t):
                raise JobError("sum terms must be objects with sign +-1 and a 'term'")
            _validate_homology(t["term"], job)
        return
    if "conjugate" in node:
        has_matrix = "matrix" in node
        has_tv = "transvections" in node
        if has_matrix == has_tv:
            raise JobError("conjugate node needs exactly one of 'matrix' or 'transvections'")
        if has_matrix:
            m = parse_matrix(node["matrix"], what="conjugator matrix")
            if m.dimension != 2 * job.genus:
                raise JobError(f"conjugator matrix must be {2 * job.genus}x{2 * job.genus}")
            if not sp_check(m):
                raise JobError("non-symplectic conjugator matrix")
        else:
            if not isinstance(node["transvections"], list) or not node["transvections"]:
                raise JobError("transvections must be a nonempty list of homology classes")
            for v in node["transvections"]:
                parse_hvector(v, job.genus, what="transvection class")
        _validate_homology(node["conjugate"], job)
        return
    atom = node.get("atom")
    if atom == "sep_twist":
        index = _integer(node.get("index", 0), "sep_twist index")
        if not 1 <= index <= job.genus - 1:
            raise JobError(f"sep_twist index must be in 1..genus-1, got {index}")
    elif atom == "wedge3":
        if job.k != 1:
            raise JobError("wedge3 atoms define weight-2 data and require k = 1")
        terms = node.get("terms")
        if not isinstance(terms, list) or not terms:
            raise JobError("wedge3 node needs a nonempty 'terms' list")
        for t in terms:
            if not isinstance(t, dict) or "coef" not in t or "triple" not in t:
                raise JobError("wedge terms must be objects with 'coef' and 'triple'")
            triple = t["triple"]
            if not isinstance(triple, list) or len(triple) != 3:
                raise JobError("wedge triple must list exactly three vectors")
            for v in triple:
                parse_hvector(v, job.genus, what="wedge vector")
            _integer(t["coef"], "wedge coef")
    elif atom == "bounding_pair":
        if job.k != 1:
            raise JobError("bounding_pair atoms define weight-2 data and require k = 1")
        index = _integer(node.get("index", 0), "bounding_pair index")
        if not 1 <= index <= job.genus:
            raise JobError(f"bounding_pair index must be in 1..genus, got {index}")
    else:
        raise JobError(f"unknown homology node {sorted(node.keys())}")


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def build_endomorphism(node: dict, job: Job) -> FreeEndomorphism:
    op = node["op"]
    if op == "sep_twist":
        return sep_twist(job.genus, int(node["index"]))
    if op == "inner":
        return inner_automorphism(parse_word(node["word"], job.genus))
    if op == "custom":
        images = tuple(parse_word(w, job.genus) for w in node["images"])
        return FreeEndomorphism(job.genus, images)
    if op == "compose":
        endos = [build_endomorphism(f, job) for f in node["factors"]]
        out = endos[-1]
        for f in reversed(endos[:-1]):
            out = compose_endos(f, out)
        return out
    if op == "power":
        base = build_endomorphism(node["base"], job)
        out = base
        for _ in range(int(node["exponent"]) - 1):
            out = compose_endos(base, out)
        return out
    raise JobError(f"unknown pi1 op {op!r}")


def _default_truncation(k: int) -> int:
    return k + 2 if k % 2 == 0 else 2 * k + 2


@dataclass
class _Trace:
    """Mutable intermediate accumulator for one run."""

    observed_depth: DepthResult | None = None
    tau: JohnsonCochain | None = None
    atom_taus: list | None = None


def _atom_cochain(node: dict, job: Job, trace: _Trace) -> JohnsonCochain:
    atom = node["atom"]
    if atom == "sep_twist":
        f = sep_twist(job.genus, int(node["index"]))
        c = tau_on_H(f, job.k)
        desc = {"atom": "sep_twist", "index": int(node["index"])}
    elif atom == "wedge3":
        terms = [(int(t["coef"]),
                  tuple(parse_hvector(v, job.genus) for v in t["triple"]))
                 for t in node["terms"]]
        c = cochain_from_wedge3(job.genus, terms)
        desc = {"atom": "wedge3"}
    elif atom == "bounding_pair":
        c = bp_tau(job.genus, int(node["index"]))
        desc = {"atom": "bounding_pair", "index": int(node["index"])}
    else:
        raise JobError(f"unknown atom {atom!r}")
    if trace.atom_taus is not None:
        trace.atom_taus.append({**desc, "tau": c.to_json_obj()})
    return c


def _eval_homology(node: dict, job: Job, trace: _Trace) -> IntMatrix:
    if "sum" in node:
        total = None
        for t in node["sum"]:
            m = _eval_homology(t["term"], job, trace)
            m = m if t["sign"] == 1 else -m
            total = m if total is None else total + m
        return total
    if "conjugate" in node:
        inner_m = _eval_homology(node["conjugate"], job, trace)
        if "matrix" in node:
            s = parse_matrix(node["matrix"], what="conjugator matrix")
        else:
            s = IntMatrix.identity(2 * job.genus)
            for v in node["transvections"]:
                s = s * transvection(parse_hvector(v, job.genus))
        if not sp_check(s):
            raise JobError("non-symplectic conjugator matrix")
        return conjugate(s, inner_m)
    c = _atom_cochain(node, job, trace)
    return psi_matrix(c, job.k, job.contraction)


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


def _pi1_cochain(job: Job, timings: dict) -> tuple[DepthResult, JohnsonCochain]:
    """Build the pi1 element, verify its depth, and extract the level-k cochain."""
    t0 = time.perf_counter()
    f = build_endomorphism(job.element, job)
    truncation = job.truncation if job.truncation is not None else _default_truncation(job.k)
    depth = filtration_depth(f, truncation - 1)
    if depth.value < job.k:
        raise DepthError(
            f"element has filtration depth {depth} < k = {job.k}; the level-{job.k} "
            "invariant is undefined")
    timings["depth_s"] = time.perf_counter() - t0
    t1 = time.perf_counter()
    tau = tau_on_H(f, job.k)
    timings["tau_s"] = time.perf_counter() - t1
    return depth, tau


def run_tau(job: Job):
    """Depth check plus the level-k cochain, without the polynomial tail.

    Supports pi1 jobs and homology jobs whose element is a single cochain
    atom; returns (DepthResult | None, JohnsonCochain).
    """
    if job.pipeline == "pi1":
        return _pi1_cochain(job, {})
    if job.element.get("atom") in ("wedge3", "bounding_pair"):
        return None, _atom_cochain(job.element, job, _Trace())
    raise JobError("tau needs a pi1 job or a homology job whose element is a single cochain atom")


def run_job(job: Job, *, want_timings: bool = False) -> CertificationReport:
    """Run the full pipeline for a validated job."""
    timings: dict[str, float] = {}
    trace = _Trace(atom_taus=[] if job.pipeline == "homology" else None)
    t0 = time.perf_counter()
    if job.pipeline == "pi1":
        trace.observed_depth, trace.tau = _pi1_cochain(job, timings)
        t2 = time.perf_counter()
        psi = psi_matrix(trace.tau, job.k, job.contraction)
        timings["psi_s"] = time.perf_counter() - t2
    else:
        psi = _eval_homology(job.element, job, trace)
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
    result = criterion(chi, job.primes)
    timings["polynomial_s"] = time.perf_counter() - t3
    timings["total_s"] = time.perf_counter() - t0
    return CertificationReport(job, trace.observed_depth, trace.tau, trace.atom_taus,
                               psi, divided, result,
                               timings if want_timings else None)
