"""Freely reduced words and endomorphisms of the free group on 2g generators.

Generator indexing follows the homology basis order: index 2j-1 is a_j and
index 2j is b_j, for j = 1..g.  A letter is a pair (index, sign) with sign
+-1.  Words are kept freely reduced at all times; every operation returns a
new immutable value.

Only raw input (`parse_word`, `reduce_word`) is reduced letter by letter.
A product of reduced words can cancel only at the seams between them: a
product or an image is built by appending reduced blocks to a reduced list,
and each seam cancels the longest suffix of the list that equals the same
suffix of the block's inverse.  That test is monotone in the suffix length,
so a doubling-and-halving search over list slices finds it, and the slices
compare in C.

Text syntax: whitespace-separated tokens `a3`, `b1^-1`, with any nonzero
integer exponent allowed after `^`; indices and exponents are ASCII digits.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property

from .errors import GenusMismatchError, _same_genus

Letter = tuple[int, int]

_TOKEN = re.compile(r"([ab])([0-9]+)(?:\^(-?[0-9]+))?$")

# Longest word parse_word reads, before free reduction; jobs cap compositions by it too.
MAX_WORD_LETTERS = 1 << 16


def _inverse_list(letters) -> list[Letter]:
    """The letters of a word's inverse."""
    return [(idx, -sign) for idx, sign in reversed(letters)]


def _reduce_letters(letters) -> tuple[Letter, ...]:
    out: list[Letter] = []
    for idx, sign in letters:
        if out and out[-1][0] == idx and out[-1][1] == -sign:
            out.pop()
        else:
            out.append((idx, sign))
    return tuple(out)


def _append_reduced(out: list, block, inverse: list) -> None:
    """Append the reduced `block` to the reduced list `out`, cancelling at the seam.

    `inverse` holds the letters of the block's inverse, so the first t letters
    of the block cancel exactly when the last t letters of `out` equal the
    last t of `inverse`.  That holds for every t up to the one sought, so t
    is found by doubling and then halving a step, comparing list slices.
    """
    if not block:
        return
    if not out or out[-1] != inverse[-1]:
        out += block
        return
    n, m, top = len(out), len(inverse), min(len(out), len(block))
    t, step = 1, 1
    while t + step <= top and out[n - t - step:n - t] == inverse[m - t - step:m - t]:
        t += step
        step *= 2
    while step > 1:
        step >>= 1
        if t + step <= top and out[n - t - step:n - t] == inverse[m - t - step:m - t]:
            t += step
    del out[-t:]
    out += block[t:]


@dataclass(frozen=True)
class GroupWord:
    """A freely reduced word; the empty tuple is the identity."""

    genus: int
    letters: tuple[Letter, ...]

    def __post_init__(self):
        if self.genus < 1:
            raise ValueError("genus must be positive")
        n, prev = 2 * self.genus, (0, 0)
        for letter in self.letters:
            idx, sign = letter
            if not 1 <= idx <= n:
                raise ValueError(f"generator index {idx} out of range for genus {self.genus}")
            if sign not in (1, -1):
                raise ValueError(f"letter sign must be +-1, got {sign}")
            if prev[0] == idx and prev[1] == -sign:
                raise ValueError("word is not freely reduced")
            prev = letter

    @staticmethod
    def identity(genus: int) -> "GroupWord":
        return GroupWord(genus, ())

    def __mul__(self, other: "GroupWord") -> "GroupWord":
        _same_genus(self, other)
        out = list(self.letters)
        _append_reduced(out, other.letters, _inverse_list(other.letters))
        return GroupWord(self.genus, tuple(out))

    def inverse(self) -> "GroupWord":
        return GroupWord(self.genus, tuple(_inverse_list(self.letters)))

    def __len__(self) -> int:
        return len(self.letters)


def generator(genus: int, index: int, sign: int = 1) -> GroupWord:
    return GroupWord(genus, ((index, sign),))


def a_gen(genus: int, j: int) -> GroupWord:
    return generator(genus, 2 * j - 1)


def b_gen(genus: int, j: int) -> GroupWord:
    return generator(genus, 2 * j)


def letter_name(index: int) -> str:
    kind = "a" if index % 2 else "b"
    return f"{kind}{(index + 1) // 2}"


def reduce_word(genus: int, letters) -> GroupWord:
    """Freely reduce a raw letter sequence; idempotent."""
    n = 2 * genus
    for idx, sign in letters:
        if not 1 <= idx <= n:
            raise ValueError(f"generator index {idx} out of range for genus {genus}")
    return GroupWord(genus, _reduce_letters(letters))


def bounded_int(digits: str, top: int) -> int:
    """The integer of ASCII digits after an optional -, or top + 1, unread, if it has
    more significant digits than top."""
    significant = digits.lstrip("-0") or "0"
    if len(significant) > len(str(top)):
        return top + 1
    return -int(significant) if digits.startswith("-") else int(significant)


def clipped(value: str | int) -> str:
    """A text, or an integer's digits, for an error message: its first 32
    characters and an ellipsis when longer.  An integer with more digits than
    str() converts is shown by its bit length."""
    if isinstance(value, int):
        try:
            value = str(value)
        except ValueError:
            return f"an integer of {value.bit_length()} bits"
    return value if len(value) <= 32 else value[:32] + "\u2026"


def parse_word(text: str, genus: int) -> GroupWord:
    letters: list[Letter] = []
    for token in text.split():
        m = _TOKEN.match(token)
        if not m:
            raise ValueError(f"bad word token {clipped(token)!r}")
        kind, num, exponent = m.groups()
        j = bounded_int(num, genus)
        if not 1 <= j <= genus:
            raise ValueError(f"generator {clipped(kind + num)} out of range for genus {genus}")
        idx = 2 * j - 1 if kind == "a" else 2 * j
        e = 1 if exponent is None else bounded_int(exponent, MAX_WORD_LETTERS)
        if e == 0:
            raise ValueError(f"zero exponent in {clipped(token)!r}")
        if len(letters) + abs(e) > MAX_WORD_LETTERS:
            raise ValueError(f"word longer than {MAX_WORD_LETTERS} letters")
        sign = 1 if e > 0 else -1
        letters.extend([(idx, sign)] * abs(e))
    return reduce_word(genus, letters)


def commutator(x: GroupWord, y: GroupWord) -> GroupWord:
    """x y x^-1 y^-1, freely reduced."""
    _same_genus(x, y)
    return x * y * x.inverse() * y.inverse()


@dataclass(frozen=True)
class FreeEndomorphism:
    """Endomorphism given by the images of the 2g generators."""

    genus: int
    images: tuple[GroupWord, ...]

    def __post_init__(self):
        if len(self.images) != 2 * self.genus:
            raise ValueError("need exactly 2*genus generator images")
        for w in self.images:
            if w.genus != self.genus:
                raise GenusMismatchError("image word has wrong genus")

    @cached_property
    def _blocks(self) -> dict[Letter, tuple[list[Letter], list[Letter]]]:
        """letter -> (its image's letters, the letters of their inverse), built on first use."""
        blocks = {}
        for i, w in enumerate(self.images, 1):
            image, inverse = list(w.letters), _inverse_list(w.letters)
            blocks[i, 1] = image, inverse
            blocks[i, -1] = inverse, image
        return blocks


def apply_endo(f: FreeEndomorphism, w: GroupWord) -> GroupWord:
    _same_genus(f, w)
    blocks = f._blocks
    out: list[Letter] = []
    for letter in w.letters:
        _append_reduced(out, *blocks[letter])
    return GroupWord(f.genus, tuple(out))


def compose_endos(f: FreeEndomorphism, g: FreeEndomorphism) -> FreeEndomorphism:
    """f after g: generator x maps to f(g(x))."""
    _same_genus(f, g)
    return FreeEndomorphism(f.genus, tuple(apply_endo(f, img) for img in g.images))


def _conjugating(u: GroupWord, n: int) -> FreeEndomorphism:
    """x -> u x u^-1 on the first n generators, fixing the rest."""
    ui = u.inverse()
    return FreeEndomorphism(u.genus, tuple(
        u * generator(u.genus, i) * ui if i <= n else generator(u.genus, i)
        for i in range(1, 2 * u.genus + 1)))


def inner_automorphism(w: GroupWord) -> FreeEndomorphism:
    """x -> w x w^-1 on every generator."""
    return _conjugating(w, 2 * w.genus)


def sep_twist(genus: int, index: int) -> FreeEndomorphism:
    """Twist about the standard genus-`index` separating curve.

    The curve's based class is gamma = [a_1,b_1]...[a_index,b_index]; the
    twist conjugates a_j, b_j by gamma for j <= index and fixes the rest.
    index = genus would be boundary-parallel and is rejected.
    """
    return _conjugating(sep_twist_gamma(genus, index), 2 * index)


def check_sep_index(genus: int, index: int) -> None:
    """ValueError unless `index` names a standard separating curve: 1..genus-1."""
    if not 1 <= index <= genus - 1:
        raise ValueError(f"separating-curve index must be in 1..genus-1, got {index}")


def sep_twist_gamma(genus: int, index: int) -> GroupWord:
    """The based class of the standard separating curve used by sep_twist."""
    check_sep_index(genus, index)
    gamma = GroupWord.identity(genus)
    for j in range(1, index + 1):
        gamma = gamma * commutator(a_gen(genus, j), b_gen(genus, j))
    return gamma
