"""Braid words and the toric / quasitoric families.

A braid word on n strands is a sequence of nonzero letters; letter k encodes
the generator sigma_|k| raised to sign(k).  Words are plain sequences: no
free-group reduction or Markov-move normalization is performed here (closure
invariance is exercised through the polynomial engines instead).

Text form: ``n: k1 k2 ... km`` (strand count, colon, signed letters).

The quasitoric word of type (r+1, 3) is three blocks sigma_r, ..., sigma_1
with an r x 3 sign matrix whose signs are constant along rows and alternate
down columns.  That matrix has one free sign, the top one, so
``quasitoric_beta(r, top_sign)`` lists every valid word.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "BraidWord",
    "toric",
    "quasitoric_beta",
]


@dataclass(frozen=True)
class BraidWord:
    strands: int
    letters: tuple = field(default=())

    def __post_init__(self):
        object.__setattr__(self, "letters", tuple(self.letters))
        # type(.) is int: a bool or a float would pass a comparison, but its
        # text form is not one that parse_text reads back
        if type(self.strands) is not int or self.strands < 1:
            raise ValueError(f"a braid needs a whole number of strands >= 1, got {self.strands!r}")
        for k in self.letters:
            if type(k) is not int or k == 0 or abs(k) > self.strands - 1:
                raise ValueError(
                    f"letter {k!r} is not a valid generator on {self.strands} strands"
                )

    def __len__(self) -> int:
        return len(self.letters)

    def exponent_sum(self) -> int:
        """Sum of letter signs; the writhe of the closure diagram."""
        return sum(1 if k > 0 else -1 for k in self.letters)

    def permutation(self) -> tuple:
        """Underlying permutation: entry i is the end position of strand i."""
        perm = list(range(self.strands))
        for k in self.letters:
            i = abs(k) - 1
            for s in range(self.strands):
                if perm[s] == i:
                    perm[s] = i + 1
                elif perm[s] == i + 1:
                    perm[s] = i
        return tuple(perm)

    def closure_component_count(self) -> int:
        """Number of cycles of the underlying permutation."""
        perm = self.permutation()
        seen = [False] * self.strands
        count = 0
        for s in range(self.strands):
            if not seen[s]:
                count += 1
                t = s
                while not seen[t]:
                    seen[t] = True
                    t = perm[t]
        return count

    def conjugate_by(self, letter: int) -> "BraidWord":
        """sigma^-1 . word . sigma for the given signed letter."""
        return BraidWord(self.strands, (-letter, *self.letters, letter))

    def stabilize(self, positive: bool = True) -> "BraidWord":
        """Markov stabilization: append sigma_n^{+-1} on strands+1 strands."""
        k = self.strands if positive else -self.strands
        return BraidWord(self.strands + 1, self.letters + (k,))

    def format_text(self) -> str:
        return f"{self.strands}: " + " ".join(str(k) for k in self.letters)

    @staticmethod
    def parse_text(text: str) -> "BraidWord":
        head, _, tail = text.partition(":")
        if not _:
            raise ValueError(f"braid text needs 'n: letters', got {text!r}")
        try:
            strands = int(head.strip())
            letters = tuple(int(tok) for tok in tail.split())
        except ValueError as exc:
            raise ValueError(f"bad braid text {text!r}") from exc
        return BraidWord(strands, letters)


def toric(p: int, q: int) -> BraidWord:
    """The p-strand braid (sigma_1 ... sigma_{p-1})^q; closure is T(p, q)."""
    # type(.) is int, as in BraidWord: True == 1 and 3.0 == 3
    if type(p) is not int or type(q) is not int or p < 2 or q < 1:
        raise ValueError(f"toric braids need ints p >= 2 and q >= 1, got {p!r}, {q!r}")
    return BraidWord(p, tuple(range(1, p)) * q)


def quasitoric_beta(r: int, top_sign: int = 1) -> BraidWord:
    """The quasitoric family member of type (r+1, 3).

    Three identical blocks; within a block the letters descend
    sigma_r, sigma_{r-1}, ..., sigma_1 with signs alternating down the rows,
    starting from top_sign on sigma_r.  The sign matrix is constant along
    each row, so this single bit determines the whole word.
    """
    if type(r) is not int or r < 1:
        raise ValueError(f"quasitoric_beta requires an int r >= 1, got {r!r}")
    if type(top_sign) is not int or top_sign not in (1, -1):
        raise ValueError(f"top_sign must be +1 or -1, got {top_sign!r}")
    block = tuple(top_sign * (-1) ** (i - 1) * (r + 1 - i) for i in range(1, r + 1))
    return BraidWord(r + 1, block * 3)
