"""The level ladder's rungs up to k = 5 against their oracles, with pinned work.

Each report must carry depth exactly k, the cochain the commutator letters
predict (a left-normed bracket per generator), and a matrix equal to the
contraction of that cochain at even k, or of its square through the
derivation at odd k; every cochain image and every squared image must pass
the Dynkin test.  The work each run does is pinned by deterministic counts,
never by wall time.

Each rung's document is also run at level k+1, where its depth k is too
shallow: it must end in DepthError naming that depth, and the terms its
Magnus expansions return are pinned too.
"""
import pytest

from ladder import counting, rung, rungs, shallow
from psicert.contract import level_spec, phi_contract
from psicert.errors import DepthError
from psicert.homology import IntMatrix
from psicert.jobs import parse_job, run_job
from psicert.johnson import DepthResult, derivation_apply
from psicert.tensors import TruncatedTensor, dynkin_is_lie, lie_bracket

# (genus, k) -> (tensor validations, terms handed to the Dynkin test, terms
# Magnus expansions return) in one run_job.  The Dynkin test and the
# derivation take a cochain's images in packs, so each pack adds a validation
# and the Dynkin test counts a word that several images share once.  A
# squared image is checked on its derivation's pack, never packed again.
WORK = {
    (2, 2): (9, 12, 18), (3, 2): (13, 19, 27), (4, 2): (17, 28, 40),
    (2, 3): (15, 693, 32), (3, 3): (21, 1221, 50), (4, 3): (27, 1726, 68),
    (2, 4): (9, 48, 52), (3, 4): (13, 77, 83), (4, 4): (17, 112, 120),
    (2, 5): (15, 8037, 88), (3, 5): (21, 27814, 180), (4, 5): (29, 33591, 226),
}


# (genus, k) -> terms Magnus expansions return when the rung's document runs
# at level k+1: its shortest generator is expanded at truncation k+2, where it
# holds a term of degree k+1, and every other generator at truncation k
SHALLOW_MAGNUS = {
    (2, 2): 20, (3, 2): 17, (4, 2): 26, (2, 3): 44, (3, 3): 25, (4, 3): 46,
    (2, 4): 71, (3, 4): 60, (4, 4): 82, (2, 5): 83, (3, 5): 214, (4, 5): 113,
}


def bracket_of(genus, letters):
    """[[...[Y_1, Y_2], ...], Y_m] for letters (index, sign), Y = sign times the class."""
    out = None
    for idx, sign in letters:
        y = TruncatedTensor(genus, {(idx,): sign})
        out = y if out is None else lie_bracket(out, y)
    return out


def test_rungs_cover_every_genus_and_level():
    assert sorted(WORK) == sorted(SHALLOW_MAGNUS) == sorted(rungs(5))
    assert len(rungs()) == 21


@pytest.mark.parametrize("genus, k", rungs(5), ids=lambda v: str(v))
def test_rung_matches_oracles(genus, k):
    doc, tails = rung(genus, k)
    with counting() as counts:
        report = run_job(parse_job(doc))
    assert (counts["validations"], counts["dynkin_terms"], counts["magnus_terms"]) == WORK[genus, k]
    assert report.observed_depth == DepthResult(k, exact=True)
    tau = report.tau
    assert tau.images == tuple(bracket_of(genus, letters) for letters in tails)
    assert all(dynkin_is_lie(img) for img in tau.images)
    squared = [derivation_apply(tau, img) for img in tau.images]
    assert all(img.is_homogeneous(2 * k + 1) and dynkin_is_lie(img) for img in squared)
    spec = level_spec(k)
    contracted = tau.images if k % 2 == 0 else squared
    assert report.psi == IntMatrix.from_columns([phi_contract(img, spec).coords
                                                 for img in contracted])


@pytest.mark.parametrize("genus, k", rungs(5), ids=lambda v: str(v))
def test_shallow_rung_reads_its_depth(genus, k):
    doc = rung(genus, k)[0]
    with counting() as counts, pytest.raises(DepthError, match=f"depth {k} < k = {k + 1};"):
        run_job(parse_job(shallow(doc)))
    assert counts["magnus_terms"] == SHALLOW_MAGNUS[genus, k]
