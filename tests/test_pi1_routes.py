"""The two routes to the level-k cochain of a pi1 job.

The additive route sums the leaves' cochains, each leaf's multiplicity
times its own, when every leaf has depth at least k and the tree counts at
most MAX_EXPONENT leaves.  The word route builds the element with
`build_endomorphism` and expands it as a whole; it is the oracle here.  On
seeded compose and power trees the two must give the same report bytes or
the same error.  Each tree draws its leaves from pairs (f, f') with
tau(f') = -tau(f): a twist and its inverse, an inner automorphism by a
commutator and by its inverse, and x -> x c_x against x -> x c_x^-1.  A
tree composed with its mirror, every leaf swapped for its pair, has a
vanishing sum when every leaf has depth at least k.
"""
import random
from collections import Counter

import pytest

from checks import exact_length_word, format_word, linear_combination
from ladder import rung, shallow
from psicert import jobs, johnson
from psicert.errors import DepthError, JobError
from psicert.jobs import parse_job, run_job
from psicert.johnson import depth_and_tau
from psicert.words import (MAX_WORD_LETTERS, commutator, compose_endos, generator,
                           inner_automorphism, sep_twist, sep_twist_gamma)


def job_doc(genus, k, element, truncation=None):
    doc = {"schema": 1, "name": "routes", "genus": genus, "k": k, "pipeline": "pi1",
           "element": element}
    if truncation is not None:
        doc["options"] = {"truncation": truncation}
    return doc


def word_route(job):
    f = jobs.build_endomorphism(job.element)
    return depth_and_tau({f: 1}, job.k, job.truncation, lambda: f)


def outcome(job):
    """The report text, or the error's type and message."""
    try:
        return run_job(job).to_json()
    except (DepthError, JobError) as exc:
        return type(exc).__name__, str(exc)


def both_routes(job, monkeypatch, letters=MAX_WORD_LETTERS):
    """The outcomes of the additive route and of the word route, the latter
    building compositions of up to `letters` letters."""
    additive = outcome(job)
    with monkeypatch.context() as patch:
        patch.setattr(jobs, "_pi1_cochain", word_route)
        patch.setattr(jobs, "MAX_WORD_LETTERS", letters)
        return additive, outcome(job)


def twist_inverse(genus, index):
    """The custom node of sep_twist(genus, index)^-1: x -> gamma^-1 x gamma where it moves x."""
    gamma = sep_twist_gamma(genus, index)
    images = [generator(genus, i) for i in range(1, 2 * genus + 1)]
    images[:2 * index] = [gamma.inverse() * x * gamma for x in images[:2 * index]]
    return {"op": "custom", "images": [format_word(x) for x in images]}


def left_normed(rng, genus, weight):
    """A left-normed commutator of `weight` random generator letters."""
    def letter():
        return generator(genus, rng.randint(1, 2 * genus), rng.choice((1, -1)))

    w = letter()
    for _ in range(weight - 1):
        w = commutator(w, letter())
    return w


def leaf_pairs(rng, genus, k):
    """(leaf, mirror, depth) triples whose cochains cancel at level k when depth >= k.

    The leaves are kept short, since the word route expands the whole
    composite: twists about the first two separating curves, and custom
    endomorphisms that move a1 and b1 only.
    """
    pairs = [({"op": "sep_twist", "index": index}, twist_inverse(genus, index), 2)
             for index in range(1, min(3, genus))]
    for weight in (k, k - 1):  # inner automorphisms of depth k, and below it
        if weight >= 1:
            c = left_normed(rng, genus, weight)
            pairs.append(({"op": "inner", "word": format_word(c)},
                          {"op": "inner", "word": format_word(c.inverse())}, weight))
    for weight in (k + 1, k):  # x -> x c_x on a1 and b1: depth k, and k - 1
        xs = [generator(genus, i) for i in range(1, 2 * genus + 1)]
        cs = [left_normed(rng, genus, weight) for _ in range(2)]
        moved = [[x * c for x, c in zip(xs, cs)], [x * c.inverse() for x, c in zip(xs, cs)]]
        pairs.append(tuple({"op": "custom", "images": [format_word(x) for x in images + xs[2:]]}
                           for images in moved) + (weight - 1,))
    return pairs


def random_tree(rng, leaves, depth):
    """A tree over leaf indices: ("leaf", i), ("power", t, e) or ("compose", [t, ...])."""
    r = rng.random()
    if depth == 0 or r < 0.3:
        return ("leaf", rng.choice(leaves))
    if r < 0.6:
        return ("power", random_tree(rng, leaves, depth - 1), rng.randint(2, 3))
    return ("compose", [random_tree(rng, leaves, depth - 1) for _ in range(rng.randint(2, 3))])


def to_element(tree, pairs, mirror=False):
    if tree[0] == "leaf":
        return pairs[tree[1]][1 if mirror else 0]
    if tree[0] == "power":
        return {"op": "power", "base": to_element(tree[1], pairs, mirror), "exponent": tree[2]}
    factors = [to_element(t, pairs, mirror) for t in tree[1]]
    # the mirror of f after g is g' after f', so that f g g' f' cancels from the middle
    return {"op": "compose", "factors": factors[::-1] if mirror else factors}


def seeded_cases():
    """At each genus and k: a tree over leaves of depth at least k, one composed with
    its mirror, one with a leaf of depth below k, and one over all leaves.

    A vanishing sum at truncation k+1 fixes the depth without building the
    element, so its word route is given four times the letter cap."""
    cases = []
    for genus in range(2, 7):
        for k in (1, 2, 3):
            rng = random.Random(f"pi1-routes/{genus}/{k}")
            pairs = leaf_pairs(rng, genus, k)
            good = [i for i, (_, _, depth) in enumerate(pairs) if depth >= k]
            bad = [i for i, (_, _, depth) in enumerate(pairs) if depth < k]
            trees = {"sum": random_tree(rng, good, 2), "vanishing": random_tree(rng, good, 2),
                     "declined": ("compose", [random_tree(rng, good, 1), ("leaf", rng.choice(bad))]),
                     "mixed": random_tree(rng, good + bad, 2)}
            for shape, tree in trees.items():
                element = to_element(tree, pairs)
                if shape == "vanishing":
                    element = {"op": "compose",
                               "factors": [element, to_element(tree, pairs, mirror=True)]}
                truncation = rng.choice((k + 1, k + 2))
                unbuilt = shape == "vanishing" and truncation == k + 1
                cases.append(pytest.param(genus, k, element, truncation,
                                          MAX_WORD_LETTERS * (4 if unbuilt else 1),
                                          id=f"g{genus}-k{k}-{shape}"))
    return cases


@pytest.mark.parametrize("genus, k, element, truncation, letters", seeded_cases())
def test_routes_agree_on_seeded_trees(monkeypatch, genus, k, element, truncation, letters):
    job = parse_job(job_doc(genus, k, element, truncation))
    additive, word = both_routes(job, monkeypatch, letters)
    assert additive == word


def test_seeded_trees_take_every_path():
    """The seeded trees reach a nonzero sum, a vanishing one, and a declined
    leaf, each several times, and some compose a leaf more than once."""
    paths, repeated = Counter(), 0
    for case in seeded_cases():
        genus, k, element, truncation, _ = case.values
        job = parse_job(job_doc(genus, k, element, truncation))
        counts = {}
        jobs._leaf_counts(job.element, 1, counts)
        assert sum(counts.values()) <= jobs.MAX_EXPONENT
        tau = johnson.additive_tau(counts, job.k)
        paths["declined" if isinstance(tau, tuple) else "zero" if tau.is_zero() else "sum"] += 1
        repeated += max(counts.values()) > 1
    assert min(paths["sum"], paths["zero"], paths["declined"]) >= 12, paths
    assert repeated >= 12


T = {"op": "sep_twist", "index": 1}


def power(base, exponent):
    return {"op": "power", "base": base, "exponent": exponent}


def compose(*factors):
    return {"op": "compose", "factors": list(factors)}


HALF = jobs.MAX_EXPONENT // 2
BOUNDARY = {
    # leaf counts of exactly MAX_EXPONENT are summed, one more takes the word route
    "count-cap": power(T, jobs.MAX_EXPONENT),
    "count-cap+1": compose(power(T, jobs.MAX_EXPONENT), T),
    "nested-cap": power(compose(T, T), HALF),
    "nested-cap+1": compose(power(compose(T, T), HALF), T),
    # T after T^-1, 128 times: a vanishing sum of MAX_EXPONENT leaves, then one
    # more leaf whose level-2 cochain vanishes too (the identity)
    "vanishing-cap": power(compose(T, twist_inverse(2, 1)), HALF),
    "vanishing-cap+1": compose(power(compose(T, twist_inverse(2, 1)), HALF),
                               {"op": "custom", "images": ["a1", "b1", "a2", "b2"]}),
    # repeated leaves at several places of the tree
    "repeated": compose(T, power(T, 3), power(compose(T, power(T, 2)), 2)),
    # a leaf of depth 1 < k: the word route raises DepthError
    "depth-error": compose(T, {"op": "inner", "word": "a1 b2"}),
    # leaves of depth 1 < k around a twist: the word route computes tau(T)
    "conjugated": compose({"op": "inner", "word": "a1 b2"}, T,
                          {"op": "inner", "word": "b2^-1 a1^-1"}),
    # leaves of depth 1 < k whose composite is the identity
    "identity": compose({"op": "inner", "word": "a1 b2"}, {"op": "inner", "word": "b2^-1 a1^-1"}),
    # one shallow leaf: only a tree that counts it exactly once is that leaf,
    # so only then is the element not built
    "inner-squared": power({"op": "inner", "word": "a1 b2"}, 2),
    "inner-alone": compose({"op": "inner", "word": "a1 b2"}),
    "custom-shallow": {"op": "custom", "images": ["a1 b1", "b1", "a2", "b2"]},
    # a leaf of depth 0 whose square is the identity
    "involution-squared": power({"op": "custom", "images": ["a1^-1", "b1", "a2", "b2"]}, 2),
}
SHALLOW = {"depth-error", "inner-squared", "inner-alone", "custom-shallow"}


@pytest.mark.parametrize("truncation", [3, 4])
@pytest.mark.parametrize("name", sorted(BOUNDARY))
def test_routes_agree_at_the_boundaries(monkeypatch, name, truncation):
    job = parse_job(job_doc(2, 2, BOUNDARY[name], truncation))
    counts = {}
    jobs._leaf_counts(job.element, 1, counts)
    assert (sum(counts.values()) > jobs.MAX_EXPONENT) == name.endswith("+1")
    additive, word = both_routes(job, monkeypatch)
    assert additive == word
    assert (additive[0] == "DepthError") == (name in SHALLOW)


def test_power_ladder_costs_the_same_at_every_exponent(monkeypatch):
    """T_2^e after T_1 at genus 3 expands the two twists, and only them, at
    every e up to the leaf cap; at e = 256 the tree counts 257 leaves, so the
    word route builds it and the letter cap refuses it, while T_2^256 alone
    counts 256 and is summed."""
    tau1, tau2 = (johnson.tau_on_H(sep_twist(3, index), 2) for index in (1, 2))
    made = []
    real = johnson.magnus_expand
    monkeypatch.setattr(johnson, "magnus_expand",
                        lambda w, t: made.append((t, len(w))) or real(w, t))
    t2 = {"op": "sep_twist", "index": 2}
    ladder = {}
    for e in (20, 80, 160, 240, 255):
        made.clear()
        report = run_job(parse_job(job_doc(3, 2, compose(power(t2, e), T))))
        assert report.tau == linear_combination((e, tau2), (1, tau1))
        ladder[e] = list(made)
    assert len(ladder[20]) == 12 and max(letters for _, letters in ladder[20]) == 18
    assert all(calls == ladder[20] for calls in ladder.values())
    with pytest.raises(JobError, match="letters"):
        run_job(parse_job(job_doc(3, 2, compose(power(t2, 256), T))))
    made.clear()
    report = run_job(parse_job(job_doc(3, 2, power(t2, 256))))
    assert report.tau == linear_combination((256, tau2))
    assert made == ladder[20][:6]


def record_expansions(monkeypatch):
    """The (truncation, letters) of every Magnus expansion made from here on."""
    made = []
    real = johnson.magnus_expand
    monkeypatch.setattr(johnson, "magnus_expand",
                        lambda w, t: made.append((t, len(w))) or real(w, t))
    return made


def test_vanishing_sum_at_k_plus_one_builds_nothing(monkeypatch):
    """At k=1 the twist's cochain vanishes, so at truncation k+1 the sum over
    T^40 after T^40 bounds the depth below by k without building the element,
    whose compositions the letter cap would refuse."""
    made = record_expansions(monkeypatch)
    report = run_job(parse_job(job_doc(2, 1, compose(power(T, 40), power(T, 40)), 2)))
    assert report.to_json_obj()["observed_depth"] == {"value": 1, "exact": False}
    assert report.tau.is_zero()
    assert made == [(2, 0), (2, 0), (2, 8), (2, 10)]


def test_depth_error_reads_the_other_generators_at_truncation_d_minus_one(monkeypatch):
    """T_1 after inner(w), |w| = 20, at k=2: the twist leaf is expanded once per
    generator and the inner leaf stops after one expansion at k+1; the built
    composite stops after one expansion at k+1 too, on its shortest generator
    (104 letters), whose lowest term has degree d = 2, and each other
    generator is then expanded once at truncation d - 1, in basis order."""
    genus, k = 3, 2
    w = exact_length_word(random.Random(20), genus, 20)
    made = record_expansions(monkeypatch)
    with pytest.raises(DepthError, match="depth 1 < k = 2"):
        run_job(parse_job(job_doc(genus, k, compose(T, {"op": "inner", "word": format_word(w)}),
                                  4)))

    def letters(f, truncation):
        return [(truncation, len(x * generator(genus, i + 1, -1))) for i, x in enumerate(f.images)]

    twist, inner = sep_twist(genus, 1), inner_automorphism(w)
    composite = compose_endos(twist, inner)
    first = min(range(2 * genus), key=lambda i: len(composite.images[i]))
    assert made[:2 * genus] == sorted(letters(twist, k + 1))
    assert made[2 * genus] == min(letters(inner, k + 1))
    assert made[2 * genus + 1] == letters(composite, k + 1)[first] == (k + 1, 104)
    assert made[2 * genus + 2:] == [c for i, c in enumerate(letters(composite, 1)) if i != first]


def test_single_leaf_depth_error_expands_each_generator_once(monkeypatch):
    """A custom leaf alone is the element: ladder rung (2, 4) at level 5 stops
    on its shortest generator at truncation 6, with a term of degree 5, and
    the depth 4 is read from the other three at truncation 4."""
    made = record_expansions(monkeypatch)
    with pytest.raises(DepthError, match="depth 4 < k = 5;"):
        run_job(parse_job(shallow(rung(2, 4)[0])))
    assert made == [(6, 40), (4, 44), (4, 46), (4, 42)]
