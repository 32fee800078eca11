"""Job documents and the certification pipeline.

A job selects a genus, a filtration level k, and one of two routes to the
invariant matrix:

* ``pi1``: the element is an expression tree of free-group endomorphisms
  (built-in separating twists, inner automorphisms, user-supplied custom
  endomorphisms, compositions, positive powers).  `johnson.depth_and_tau`
  reads its depth and level-k cochain from the leaves, each counted as
  often as the tree composes it, and builds the element when a leaf has
  depth below k.  When the tree counts more than MAX_EXPONENT leaves, the
  element is built first and counted as its only leaf.  The cochain is
  then contracted.
* ``homology``: the element is a signed sum of invariant-matrix atoms
  (separating-twist index, weight-2 wedge data, bounding-pair index), with
  optional conjugation by an explicit symplectic matrix or by a product of
  transvections given by homology classes.  Sums with more than one term
  require even k, where the invariant is additive.  Each atom's cochain
  comes from a closed form (`johnson.sep_twist_tau`, `johnson.bp_tau`,
  `johnson.cochain_from_wedge3`), so this route builds no word and runs no
  Magnus expansion.

`parse_job` reads a document into a tree of nodes; the `Job` constructor
checks every rule of the format, so a `Job` built in code is refused as its
document is, with the same messages.  The parser keeps only the JSON types,
what building a node needs, and the caps that bound its own reading.  The
`Job` checks the types again, and the caps on the values it holds (nodes,
`wedge3` terms, coefficients and coordinates, conjugator entries), through the functions
the parser calls, so each rule and cap is written once.

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
from itertools import count
from typing import NamedTuple

from .contract import ContractionSpec, level_spec, psi_matrix
from .errors import JobError
from .homology import HVector, IntMatrix, conjugate, sp_check, times_transvection
from .johnson import (DepthResult, JohnsonCochain, WedgeTerm, bp_tau, cochain_from_wedge3,
                      depth_and_tau, sep_twist_tau)
from .polylab import CriterionReport, _is_prime, charpoly, criterion
from .words import (MAX_WORD_LETTERS, FreeEndomorphism, clipped, compose_endos,
                    inner_automorphism, parse_word, sep_twist)

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
    raise ValueError(f"{clipped(value)!r} is not a decimal string")


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
# An element may have this many nodes, counted as they are read: on pi1
# compositions, powers and leaves, on homology sums, conjugates and atoms.
# Each pi1 leaf is built as it is read: on a 2-core x86 VM, a compose of 2,000
# sep_twist(36,35) factors spent 12 s and 383 MiB before exit 2 without the
# cap.  The benchmark's pi1 trees reach 5 nodes, the route tests' seeded ones 27.
# Each conjugate costs three 2g x 2g products: one in the Job's check of the
# conjugator and two to conjugate.  At genus 36, when a conjugate still cost
# four products, 31 nested conjugates took 0.41 s to parse and 1.08 s to run.
# With each sep_twist atom's cochain read off its closed form, the 32-node sum
# of the atoms at indices 5..35 runs in 0.97 s (19.6 s when each atom was
# expanded), and a sum of 15 such atoms, each conjugated by three
# transvections, takes 0.35 s to parse and 1.24 s to run.  The fixtures reach
# 8 homology nodes.
MAX_NODES = 32
# A wedge3 atom's cochain and its odd-level square grow with its terms, and
# charpoly with its coefficients' size.  At genus 36, k = 1, on a 2-core x86
# VM, with vectors of 3 nonzero coordinates as in the benchmark, 16 terms ran
# in 0.54 s, 64 in 9.9 s (16 s with 64-bit coefficients) and 100 in 20 s;
# 3 terms ran in 1.5 s with 1,000-bit coefficients and spent 60 s before
# failing with 14,000-bit ones.  The benchmark reaches 16 terms with 1-bit
# coefficients, the fixture 4 terms.  The bit cap holds for each vector
# coordinate too: a 1-term atom at genus 2 with 1,001-digit coordinates ran
# 0.87 s, and with 4,001-digit ones its cochain could not be written as
# decimal text.  Both caps bound the slot width of the packed odd-level square.
MAX_WEDGE_TERMS = 64
MAX_WEDGE_BITS = 64

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
    """Homology node: `inner` conjugated by a symplectic matrix."""

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
    # None stands for the default of checked_truncation
    truncation: int | None = None
    contraction: ContractionSpec | None = None

    def __post_init__(self):
        """Refuse a job that breaks a rule of the format, with the message
        parse_job gives for its document; parse_job only reads."""
        _check_header(_integer(self.genus, "genus"), _integer(self.k, "k"), self.pipeline)
        divide_by = _integer(self.divide_by, "divide_by")
        truncation = None if self.truncation is None else _integer(self.truncation, "truncation")
        object.__setattr__(self, "truncation", checked_truncation(self.k, truncation, divide_by))
        if self.contraction is not None:  # its types where the parser reads them, its arity later
            for slot in (s for pair in self.contraction.pairs for s in pair):
                _integer(slot, "contraction slot")
            _integer(self.contraction.output, "contraction output")
        if self.primes is not None:
            if len(self.primes) > MAX_PRIMES:
                raise JobError(f"primes lists {len(self.primes)} entries, cap {MAX_PRIMES}")
            for p in self.primes:
                if not (_integer(p, "each of primes") < 1 << 64 and _is_prime(p)):
                    raise JobError(f"primes must all be primes below 2^64, got {clipped(p)}")
        if self.contraction is not None:
            try:
                level_spec(self.k, self.contraction)
            except ValueError as exc:
                raise JobError(str(exc)) from None
        if self.name is not None and not isinstance(self.name, str):
            raise JobError(f"name must be a string, got {type(self.name).__name__}")
        if self.pipeline == "pi1":
            _check_pi1(self.element, self.genus, count(1))
        else:
            _check_homology(self.element, self.genus, self.k, count(1))


def _check_header(genus: int, k: int, pipeline: str) -> None:
    if not 1 <= genus <= MAX_GENUS:
        raise JobError(f"genus must be in 1..{MAX_GENUS}, got {clipped(genus)}")
    if k < 1:
        raise JobError("k must be at least 1")
    if pipeline not in PIPELINES:
        raise JobError(f"pipeline must be one of {PIPELINES}")


def checked_truncation(k: int, truncation: int | None, divide_by: int) -> int:
    """The truncation of a level-k job: the one given, or for None the default
    k+2 (2k+2 at odd k).  JobError unless it lies in k+1..MAX_TRUNCATION and
    divide_by is positive."""
    if divide_by < 1:
        raise JobError("divide_by must be a positive integer")
    if truncation is None:
        truncation = 2 * k + 2 if k % 2 else k + 2
    if truncation < k + 1:
        raise JobError(f"truncation must be at least k+1 = {k + 1}")
    if truncation > MAX_TRUNCATION:
        raise JobError(f"truncation {clipped(truncation)} exceeds the cap {MAX_TRUNCATION} "
                       "(the default is k+2, or 2k+2 at odd k)")
    return truncation


def parse_job(obj: dict) -> Job:
    """Read a job document into a `Job`, whose constructor checks it; the header
    and truncation are checked first, since they bound what reading may build."""
    if not isinstance(obj, dict):
        raise JobError("job document must be a JSON object")
    schema = obj.get("schema")
    if type(schema) is not int or schema != SCHEMA_VERSION:
        raise JobError(f"unsupported schema version {clipped(repr(schema))} "
                       f"(expected {SCHEMA_VERSION})")
    try:
        genus = _integer(obj["genus"], "genus")
        k = _integer(obj["k"], "k")
        pipeline = obj["pipeline"]
        element = obj["element"]
    except KeyError as exc:
        raise JobError(f"missing required job field {exc.args[0]!r}") from None
    _check_header(genus, k, pipeline)
    options = obj.get("options", {})
    if not isinstance(options, dict):
        raise JobError("options must be an object")
    divide_by = _integer(options.get("divide_by", 1), "divide_by")
    truncation = checked_truncation(k, _integer(options["truncation"], "truncation")
                                    if "truncation" in options else None, divide_by)
    primes = options.get("primes")
    if primes is not None:
        if not isinstance(primes, list):
            raise JobError("primes must be a list of primes")
        primes = tuple(primes)
    contraction = options.get("contraction_spec")
    if contraction is not None:
        contraction = _contraction_spec(contraction)
    if "name" in obj and obj["name"] is None:  # a job without a name leaves the field out
        raise JobError("name must be a string, got NoneType")
    tree = (_parse_pi1(element, genus, count(1)) if pipeline == "pi1"
            else _parse_homology(element, genus, count(1)))
    return Job(genus, k, pipeline, tree, obj.get("name"), divide_by, primes, truncation,
               contraction)


def read_json(path):
    """The JSON document in the file at `path`; JobError naming the file if it is not
    UTF-8 JSON."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError, an over-long integer
            raise JobError(f"invalid JSON in {path}: {exc}") from None


def load_job(path, options: dict | None = None) -> Job:
    """Read and parse the job document at `path`.

    Entries of `options` replace the document's own options of the same
    name (the command line's overrides).
    """
    doc = read_json(path)
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


def _check_index(index: int, what: str, top: int, top_name: str) -> None:
    if not 1 <= index <= top:
        raise JobError(f"{what} index must be in 1..{top_name}, got {clipped(index)}")


def _word(text: str, genus: int, what: str):
    try:
        return parse_word(text, genus)
    except ValueError as exc:
        raise JobError(f"{what}: {exc}") from None


def _parse_pi1(node, genus: int, nodes):
    """The node's tree; `nodes` counts the element's nodes as they are read, from 1."""
    if not isinstance(node, dict) or "op" not in node:
        raise JobError("pi1 element nodes must be objects with an 'op' field")
    _count_node(nodes, "pi1")
    op = node["op"]
    if op == "sep_twist":
        index = _integer(node.get("index", 0), "sep_twist index")
        _check_index(index, "sep_twist", genus - 1, "genus-1")  # before sep_twist builds words
        return sep_twist(genus, index)
    if op == "inner":
        if not isinstance(node.get("word"), str):
            raise JobError("inner node needs a 'word' string")
        return inner_automorphism(_word(node["word"], genus, "inner word"))
    if op == "custom":
        images = node.get("images")
        if (not isinstance(images, list) or len(images) != 2 * genus
                or not all(isinstance(w, str) for w in images)):
            raise JobError(f"custom node needs exactly {2 * genus} image word strings")
        return FreeEndomorphism(genus, tuple(_word(w, genus, f"custom image {i}")
                                             for i, w in enumerate(images, 1)))
    if op == "compose":
        factors = node.get("factors")
        if not isinstance(factors, list):
            raise JobError("compose node needs a nonempty 'factors' list")
        return Compose(tuple(_parse_pi1(f, genus, nodes) for f in factors))
    if op == "power":
        exponent = _integer(node.get("exponent", 0), "power exponent")
        return Compose((_parse_pi1(node.get("base"), genus, nodes),), exponent)
    raise JobError(f"unknown pi1 op {clipped(repr(op))}")


def _check_pi1(node, genus: int, nodes) -> None:
    """The checks of a pi1 tree that its Job makes: its node count and types,
    its leaves' genus, its compositions' factors and its powers' exponents."""
    _count_node(nodes, "pi1")
    if isinstance(node, FreeEndomorphism):
        if node.genus != genus:
            raise JobError(f"custom node needs exactly {2 * genus} image word strings")
        return
    if not isinstance(node, Compose):
        raise JobError("pi1 element nodes must be objects with an 'op' field")
    if not node.factors:
        raise JobError("compose node needs a nonempty 'factors' list")
    if not 1 <= _integer(node.exponent, "power exponent") <= MAX_EXPONENT:
        raise JobError(f"power exponent must be in 1..{MAX_EXPONENT}, got {clipped(node.exponent)}")
    for f in node.factors:
        _check_pi1(f, genus, nodes)


_NODE_KINDS = {"pi1": "compositions, powers and leaves", "homology": "sums, conjugates and atoms"}


def _count_node(nodes, pipeline: str) -> None:
    if next(nodes) > MAX_NODES:
        raise JobError(f"{pipeline} element has more than {MAX_NODES} nodes "
                       f"({_NODE_KINDS[pipeline]})")


def _parse_homology(node, genus: int, nodes):
    """The node's tree; `nodes` counts the element's nodes as they are read, from 1."""
    if not isinstance(node, dict):
        raise JobError("homology element nodes must be objects")
    _count_node(nodes, "homology")
    if "sum" in node:
        terms = node["sum"]
        if not isinstance(terms, list):
            raise JobError("sum node needs a nonempty list of terms")
        parsed = []
        for t in terms:
            if not isinstance(t, dict) or "term" not in t:
                raise JobError("sum terms must be objects with sign +-1 and a 'term'")
            parsed.append((t.get("sign"), _parse_homology(t["term"], genus, nodes)))
        return Sum(tuple(parsed))
    if "conjugate" in node:
        if ("matrix" in node) == ("transvections" in node):
            raise JobError("conjugate node needs exactly one of 'matrix' or 'transvections'")
        if "matrix" in node:
            s = parse_matrix(node["matrix"], what="conjugator matrix")
            _check_entry_bits(s, MAX_CONJUGATOR_BITS, "conjugator")
        else:
            classes = node["transvections"]
            if not isinstance(classes, list) or not 1 <= len(classes) <= MAX_TRANSVECTIONS:
                raise JobError(f"transvections must list 1..{MAX_TRANSVECTIONS} homology classes")
            s = IntMatrix.identity(2 * genus)
            for v in classes:
                s = times_transvection(s, parse_hvector(v, genus, what="transvection class"))
                _check_entry_bits(s, MAX_CONJUGATOR_BITS, "conjugator")
        return Conjugate(_parse_homology(node["conjugate"], genus, nodes), s)
    atom = node.get("atom")
    if atom in ("sep_twist", "bounding_pair"):
        return Atom(atom, _integer(node.get("index", 0), f"{atom} index"))
    if atom == "wedge3":
        terms = node.get("terms")
        _check_wedge_count(terms)
        parsed = []
        for t in terms:
            if not isinstance(t, dict) or "coef" not in t or "triple" not in t:
                raise JobError("wedge terms must be objects with 'coef' and 'triple'")
            coef = _check_wedge_coef(t["coef"])
            if not isinstance(t["triple"], list) or len(t["triple"]) != 3:
                raise JobError("wedge triple must list exactly three vectors")
            parsed.append((coef, tuple(parse_hvector(v, genus, what="wedge vector")
                                       for v in t["triple"])))
        return Atom(atom, terms=tuple(parsed))
    raise JobError(f"unknown homology node {clipped(str(sorted(node.keys())))}")


def _check_homology(node, genus: int, k: int, nodes) -> None:
    """The checks of a homology tree that its Job makes: its node count and
    types, the parity of k under a sum of several terms, each sign, each
    conjugator's entry sizes, dimension and symplecticity, and each atom's
    (`_check_atom`)."""
    _count_node(nodes, "homology")
    if isinstance(node, Sum):
        if not node.terms:
            raise JobError("sum node needs a nonempty list of terms")
        if len(node.terms) > 1 and k % 2 == 1:
            raise JobError("signed sums with more than one term require even k "
                           "(the invariant is only additive at even levels)")
        for sign, term in node.terms:
            if type(sign) is not int or sign not in (1, -1):
                raise JobError("sum terms must be objects with sign +-1 and a 'term'")
            _check_homology(term, genus, k, nodes)
    elif isinstance(node, Conjugate):
        # the cap of a read matrix, then the conjugator's own, as the parser checks them
        _check_entry_bits(node.conjugator, MAX_MATRIX_BITS, "conjugator matrix")
        _check_entry_bits(node.conjugator, MAX_CONJUGATOR_BITS, "conjugator")
        if node.conjugator.dimension != 2 * genus:
            raise JobError(f"conjugator matrix must be {2 * genus}x{2 * genus}")
        if not sp_check(node.conjugator):
            raise JobError("non-symplectic conjugator matrix")
        _check_homology(node.inner, genus, k, nodes)
    elif not isinstance(node, Atom):
        raise JobError("homology element nodes must be objects")
    else:
        _check_atom(node, genus, k)


def _check_atom(atom: Atom, genus: int, k: int) -> None:
    """The checks of an atom: first those the parser makes as it reads (the
    index type, the term count, each coefficient's type and size), then k = 1
    under a weight-2 atom, and its index range or its vectors' genus and
    coordinate sizes.  A wedge3 atom built in code must hold tuples."""
    if atom.kind in ("sep_twist", "bounding_pair"):
        _integer(atom.index, f"{atom.kind} index")
    elif atom.kind == "wedge3":
        _check_wedge_count(atom.terms)
        _check_wedge_shape(atom.terms)
        for coef, _ in atom.terms:
            _check_wedge_coef(coef)
    else:
        raise JobError(f"unknown homology atom {clipped(repr(atom.kind))}")
    if atom.kind != "sep_twist" and k != 1:
        raise JobError(f"{atom.kind} atoms define weight-2 data and require k = 1")
    if atom.kind == "sep_twist":
        _check_index(atom.index, "sep_twist", genus - 1, "genus-1")
    elif atom.kind == "bounding_pair":
        _check_index(atom.index, "bounding_pair", genus, "genus")
    else:
        vectors = [v for _, triple in atom.terms for v in triple]
        if any(v.genus != genus for v in vectors):
            raise JobError(f"wedge vector must have 2*genus = {2 * genus} coordinates")
        for x in (x for v in vectors for x in v.coords):
            if _integer(x, "wedge vector coordinate").bit_length() > MAX_WEDGE_BITS:
                raise JobError(f"wedge vector coordinate reaches {x.bit_length()} bits, "
                               f"cap {MAX_WEDGE_BITS}")


def _check_wedge_count(terms) -> None:
    if not isinstance(terms, (list, tuple)) or not 1 <= len(terms) <= MAX_WEDGE_TERMS:
        raise JobError(f"wedge3 node needs a 'terms' list of 1..{MAX_WEDGE_TERMS} terms")


def _check_wedge_shape(terms) -> None:
    """Tuples throughout, as the parser builds them, so that the atom hashes."""
    if not isinstance(terms, tuple) or not all(
            isinstance(t, tuple) and len(t) == 2 and isinstance(t[1], tuple) and len(t[1]) == 3
            and all(isinstance(v, HVector) and isinstance(v.coords, tuple) for v in t[1])
            for t in terms):
        raise JobError("wedge3 terms must be a tuple of (coef, (u, v, w)) tuples, "
                       "each vector an HVector with a tuple of coordinates")


def _check_wedge_coef(coef) -> int:
    if _integer(coef, "wedge coef").bit_length() > MAX_WEDGE_BITS:
        raise JobError(f"wedge coef reaches {coef.bit_length()} bits, cap {MAX_WEDGE_BITS}")
    return coef


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
        return sep_twist_tau(job.genus, atom.index, job.k)
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


def _pi1_cochain(job: Job) -> tuple[DepthResult, JohnsonCochain]:
    """The depth and the level-k cochain of the pi1 element, summed over its leaves when it can be.

    When the tree counts more than MAX_EXPONENT leaves, the element is built
    and counted as its only leaf.
    """
    counts: dict = {}
    _leaf_counts(job.element, 1, counts)
    element = job.element
    if sum(counts.values()) > MAX_EXPONENT:
        element = build_endomorphism(element)
        counts = {element: 1}
    return depth_and_tau(counts, job.k, job.truncation, lambda: build_endomorphism(element))


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
