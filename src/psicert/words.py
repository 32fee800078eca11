"""Freely reduced words and endomorphisms of the free group on 2g generators.

Generator indexing follows the homology basis order: index 2j-1 is a_j and
index 2j is b_j, for j = 1..g.  A letter is a pair (index, sign) with sign
+-1.  Words are kept freely reduced at all times; every operation returns a
new immutable value.

Text syntax: whitespace-separated tokens `a3`, `b1^-1`, with any nonzero
integer exponent allowed after `^`.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property

from .errors import GenusMismatchError, _same_genus
from .homology import IntMatrix

Letter = tuple[int, int]

_TOKEN = re.compile(r"([ab])([0-9]+)(?:\^(-?[0-9]+))?$")

# Longest word parse_word reads, before free reduction; jobs cap compositions by it too.
MAX_WORD_LETTERS = 1 << 16


def _reduce_letters(letters) -> tuple[Letter, ...]:
    out: list[Letter] = []
    for idx, sign in letters:
        if out and out[-1][0] == idx and out[-1][1] == -sign:
            out.pop()
        else:
            out.append((idx, sign))
    return tuple(out)


@dataclass(frozen=True)
class GroupWord:
    """A freely reduced word; the empty tuple is the identity."""

    genus: int
    letters: tuple[Letter, ...]

    def __post_init__(self):
        if self.genus < 1:
            raise ValueError("genus must be positive")
        n = 2 * self.genus
        prev = None
        for idx, sign in self.letters:
            if not 1 <= idx <= n:
                raise ValueError(f"generator index {idx} out of range for genus {self.genus}")
            if sign not in (1, -1):
                raise ValueError(f"letter sign must be +-1, got {sign}")
            if prev is not None and prev[0] == idx and prev[1] == -sign:
                raise ValueError("word is not freely reduced")
            prev = (idx, sign)

    @staticmethod
    def identity(genus: int) -> "GroupWord":
        return GroupWord(genus, ())

    def __mul__(self, other: "GroupWord") -> "GroupWord":
        _same_genus(self, other)
        return GroupWord(self.genus, _reduce_letters(self.letters + other.letters))

    def inverse(self) -> "GroupWord":
        return GroupWord(self.genus, tuple((i, -s) for i, s in reversed(self.letters)))

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return format_word(self)


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


def parse_word(text: str, genus: int) -> GroupWord:
    letters: list[Letter] = []
    for token in text.split():
        m = _TOKEN.match(token)
        if not m:
            raise ValueError(f"bad word token {token!r}")
        kind, num, exponent = m.groups()
        j = int(num)
        if not 1 <= j <= genus:
            raise ValueError(f"generator {kind}{j} out of range for genus {genus}")
        idx = 2 * j - 1 if kind == "a" else 2 * j
        e = 1 if exponent is None else int(exponent)
        if e == 0:
            raise ValueError(f"zero exponent in {token!r}")
        if len(letters) + abs(e) > MAX_WORD_LETTERS:
            raise ValueError(f"word longer than {MAX_WORD_LETTERS} letters")
        sign = 1 if e > 0 else -1
        letters.extend([(idx, sign)] * abs(e))
    return reduce_word(genus, letters)


def format_word(w: GroupWord) -> str:
    if not w.letters:
        return ""
    parts = []
    for idx, sign in w.letters:
        parts.append(letter_name(idx) + ("" if sign == 1 else "^-1"))
    return " ".join(parts)


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
    def _inverse_letters(self) -> tuple[tuple[Letter, ...], ...]:
        """Letters of each image's inverse, built on first use."""
        return tuple(tuple((i, -s) for i, s in reversed(w.letters)) for w in self.images)


def apply_endo(f: FreeEndomorphism, w: GroupWord) -> GroupWord:
    _same_genus(f, w)
    images, inverses = f.images, f._inverse_letters
    letters: list[Letter] = []
    for idx, sign in w.letters:
        letters += images[idx - 1].letters if sign == 1 else inverses[idx - 1]
    return GroupWord(f.genus, _reduce_letters(letters))


def compose_endos(f: FreeEndomorphism, g: FreeEndomorphism) -> FreeEndomorphism:
    """f after g: generator x maps to f(g(x))."""
    _same_genus(f, g)
    return FreeEndomorphism(f.genus, tuple(apply_endo(f, img) for img in g.images))


def inner_automorphism(w: GroupWord) -> FreeEndomorphism:
    """x -> w x w^-1 on every generator."""
    wi = w.inverse()
    images = tuple(w * generator(w.genus, i) * wi for i in range(1, 2 * w.genus + 1))
    return FreeEndomorphism(w.genus, images)


def sep_twist(genus: int, index: int) -> FreeEndomorphism:
    """Twist about the standard genus-`index` separating curve.

    The curve's based class is gamma = [a_1,b_1]...[a_index,b_index]; the
    twist conjugates a_j, b_j by gamma for j <= index and fixes the rest.
    index = genus would be boundary-parallel and is rejected.
    """
    gamma = sep_twist_gamma(genus, index)
    gamma_inv = gamma.inverse()
    images = []
    for i in range(1, 2 * genus + 1):
        j = (i + 1) // 2
        g = generator(genus, i)
        images.append(gamma * g * gamma_inv if j <= index else g)
    return FreeEndomorphism(genus, tuple(images))


def sep_twist_gamma(genus: int, index: int) -> GroupWord:
    """The based class of the standard separating curve used by sep_twist."""
    if not 1 <= index <= genus - 1:
        raise ValueError(f"separating-curve index must be in 1..genus-1, got {index}")
    gamma = GroupWord.identity(genus)
    for j in range(1, index + 1):
        gamma = gamma * commutator(a_gen(genus, j), b_gen(genus, j))
    return gamma


def abelianize(f: FreeEndomorphism) -> IntMatrix:
    """Induced matrix on H; column j is the exponent-sum vector of the image of generator j."""
    n = 2 * f.genus
    cols = []
    for i in range(1, n + 1):
        col = [0] * n
        for idx, sign in f.images[i - 1].letters:
            col[idx - 1] += sign
        cols.append(tuple(col))
    return IntMatrix.from_columns(cols)
