"""A level ladder: seeded nested-commutator `custom` jobs at genus 2-4 and k = 2-8.

A rung is one `pi1` job at (genus, k).  Its `custom` element sends each
generator x to x c, where c is a left-normed commutator
[[...[y_1, y_2], ...], y_{k+1}] of k+1 seeded letters (generators or their
inverses); a draw whose commutator reduces to the identity is skipped.  So
f(x) x^-1 = x c x^-1 lies in the (k+1)-th lower central subgroup, and its
level-k cochain sends x to the bracket [[...[Y_1, Y_2], ...], Y_{k+1}], where
Y is the generator's class, negated for an inverse letter.  No rung's
cochain vanishes, so every rung has depth exactly k and expands only at k+1.

The benchmark stops at k = 3; the ladder follows the level axis beyond it.
`shallow(doc)` is a rung's document at level k+1, which its depth k is too
shallow for: it ends in DepthError after one expansion at truncation k+2,
with the depth read from the other generators at truncation k.
`counting()` counts the work a run does by deterministic measures (tensor
validations, the terms handed to the Dynkin test, the terms Magnus
expansions return), which `test_ladder.py` pins.  Run as a script, it prints
a timing table of the rungs, each run at level k and then at k+1 (the
`shallow_s` and `shallow_magnus` columns):

    PYTHONPATH=src python tests/ladder.py [--max-k 8] [--repeat 3]
"""
from __future__ import annotations

import argparse
import random
import time
from contextlib import contextmanager

from checks import format_word
from psicert import johnson
from psicert.errors import DepthError
from psicert.jobs import parse_job, run_job
from psicert.tensors import TruncatedTensor
from psicert.words import commutator, generator

SEED = 13
GENERA = (2, 3, 4)
LEVELS = range(2, 9)


def nested_commutator(rng: random.Random, genus: int, k: int):
    """k+1 seeded letters and their left-normed commutator, which is never the identity."""
    while True:
        letters = [(rng.randrange(1, 2 * genus + 1), rng.choice((1, -1))) for _ in range(k + 1)]
        word = generator(genus, *letters[0])
        for letter in letters[1:]:
            word = commutator(word, generator(genus, *letter))
        if len(word):
            return letters, word


def rung(genus: int, k: int, seed: int = SEED) -> tuple[dict, list]:
    """The job document of one rung, and each generator's commutator letters."""
    rng = random.Random(seed * 100 + 10 * genus + k)
    images, tails = [], []
    for i in range(1, 2 * genus + 1):
        letters, c = nested_commutator(rng, genus, k)
        images.append(format_word(generator(genus, i) * c))
        tails.append(letters)
    doc = {"schema": 1, "name": f"ladder/{genus}/{k}", "genus": genus, "k": k,
           "pipeline": "pi1", "element": {"op": "custom", "images": images}}
    return doc, tails


def shallow(doc: dict) -> dict:
    """The rung's document at level k+1."""
    return dict(doc, k=doc["k"] + 1)


def rungs(max_k: int = LEVELS[-1]):
    """(genus, k) of every rung up to level max_k, by level and then genus."""
    return [(genus, k) for k in LEVELS if k <= max_k for genus in GENERA]


@contextmanager
def counting():
    """Count the work done inside: tensor validations, the terms handed to
    the Dynkin test, and the terms Magnus expansions return."""
    counts = {"validations": 0, "dynkin_terms": 0, "magnus_terms": 0}
    real_init, real_dynkin, real_magnus = (TruncatedTensor.__post_init__,
                                           johnson.dynkin_is_lie, johnson.magnus_expand)

    def init(t):
        counts["validations"] += 1
        real_init(t)

    def dynkin(t):
        counts["dynkin_terms"] += len(t.terms)
        return real_dynkin(t)

    def magnus(w, truncation):
        out = real_magnus(w, truncation)
        counts["magnus_terms"] += len(out.terms)
        return out

    TruncatedTensor.__post_init__ = init
    johnson.dynkin_is_lie, johnson.magnus_expand = dynkin, magnus
    try:
        yield counts
    finally:
        TruncatedTensor.__post_init__ = real_init
        johnson.dynkin_is_lie, johnson.magnus_expand = real_dynkin, real_magnus


def timed_shallow(doc: dict) -> float:
    """Seconds to run the rung's document at level k+1, which must end in DepthError."""
    start = time.perf_counter()
    try:
        run_job(parse_job(shallow(doc)))
    except DepthError:
        return time.perf_counter() - start
    raise SystemExit(f"{doc['name']} at level k+1 did not end in DepthError")


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--max-k", type=int, default=LEVELS[-1], help="highest level run")
    parser.add_argument("--repeat", type=int, default=3, help="runs per rung; the best is shown")
    args = parser.parse_args(argv)
    stages = ("tau_s", "psi_s", "charpoly_s", "criterion_s", "total_s")
    print(f"{'genus':>5} {'k':>2} {'letters':>7} " + " ".join(f"{s:>11}" for s in stages)
          + f" {'validations':>11} {'dynkin':>9} {'magnus':>9} {'shallow_s':>9}"
          f" {'shallow_magnus':>14}")
    for genus, k in rungs(args.max_k):
        doc = rung(genus, k)[0]
        best = None
        for _ in range(args.repeat):
            timings = run_job(parse_job(doc), want_timings=True).timings
            best = timings if best is None else {s: min(best[s], timings[s]) for s in stages}
        with counting() as counts:
            run_job(parse_job(doc))
        shallow_s = min(timed_shallow(doc) for _ in range(args.repeat))
        with counting() as shallow_counts:
            timed_shallow(doc)
        letters = max(len(image.split()) for image in doc["element"]["images"])
        print(f"{genus:>5} {k:>2} {letters:>7} " + " ".join(f"{best[s]:>11.4f}" for s in stages)
              + f" {counts['validations']:>11} {counts['dynkin_terms']:>9}"
              f" {counts['magnus_terms']:>9} {shallow_s:>9.4f}"
              f" {shallow_counts['magnus_terms']:>14}")


if __name__ == "__main__":
    main()
