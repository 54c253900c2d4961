"""Pauli observables: bitmask-encoded strings and real-coefficient sums.

Strings are encoded as a pair of n-bit masks (x, z): bit q of ``x`` set means
an X component on qubit q, bit q of ``z`` a Z component.  (x,z) per qubit maps
to a letter as (0,0)=I, (1,0)=X, (1,1)=Y, (0,1)=Z.  Phases are never stored on
strings; they live in term coefficients.  Heisenberg conjugation of these
sums through a circuit lives in :mod:`.propagation`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator

# |coefficient| below this is treated as exact zero and dropped on merge.
COEFF_EPS = 1e-15

_LETTERS = "IXYZ"
_LETTER_TO_XZ = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}


class PauliDimensionError(ValueError):
    """Raised when operands act on different qubit counts."""


@dataclass(frozen=True)
class PauliString:
    """An n-qubit Pauli string without phase."""

    n: int
    x: int = 0
    z: int = 0

    def __post_init__(self):
        mask = (1 << self.n) - 1
        if self.x & ~mask or self.z & ~mask:
            raise ValueError("mask bits outside the n-qubit register")

    @classmethod
    def from_label(cls, label: str) -> "PauliString":
        """Parse a letter string, qubit 0 leftmost (e.g. ``"XZIIY"``)."""
        x = z = 0
        for q, ch in enumerate(label):
            try:
                xb, zb = _LETTER_TO_XZ[ch]
            except KeyError:
                raise ValueError(f"invalid Pauli letter {ch!r}") from None
            x |= xb << q
            z |= zb << q
        return cls(len(label), x, z)

    @classmethod
    def single(cls, n: int, q: int, letter: str) -> "PauliString":
        xb, zb = _LETTER_TO_XZ[letter]
        return cls(n, xb << q, zb << q)

    @classmethod
    def identity(cls, n: int) -> "PauliString":
        return cls(n, 0, 0)

    def letter_index(self, q: int) -> int:
        xb = (self.x >> q) & 1
        zb = (self.z >> q) & 1
        return [0, 1, 3, 2][2 * zb + xb]  # (x,z): 00=I 10=X 01=Z 11=Y

    def label(self) -> str:
        return "".join(_LETTERS[self.letter_index(q)] for q in range(self.n))

    def weight(self) -> int:
        return (self.x | self.z).bit_count()

    def is_identity(self) -> bool:
        return self.x == 0 and self.z == 0

    def __str__(self) -> str:
        return self.label()


@dataclass(frozen=True)
class PauliTerm:
    """A real coefficient times a Pauli string."""

    coefficient: float
    string: PauliString

    def __post_init__(self):
        if not math.isfinite(self.coefficient):
            raise ValueError("coefficient must be finite")


class PauliSum:
    """A merged map from PauliString to PauliTerm (no duplicates, no zeros)."""

    def __init__(self, n: int, terms: Iterable[PauliTerm] = ()):
        self.n = n
        self.terms: Dict[PauliString, PauliTerm] = {}
        for t in terms:
            self.add(t)

    @classmethod
    def from_label(cls, coefficient: float, label: str) -> "PauliSum":
        s = PauliString.from_label(label)
        return cls(s.n, [PauliTerm(coefficient, s)])

    def add(self, term: PauliTerm) -> None:
        if term.string.n != self.n:
            raise PauliDimensionError("term qubit count differs from sum")
        prev = self.terms.get(term.string)
        c = term.coefficient if prev is None else prev.coefficient + term.coefficient
        if abs(c) < COEFF_EPS:
            self.terms.pop(term.string, None)
        else:
            self.terms[term.string] = PauliTerm(c, term.string)

    def __len__(self) -> int:
        return len(self.terms)

    def __iter__(self) -> Iterator[PauliTerm]:
        return iter(self.terms.values())
