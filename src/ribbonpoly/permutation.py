"""Permutations of ``{1, ..., n}`` stored as image tuples.

Labels are 1-based throughout: ``p(i)`` is the image of label ``i``.
Composition is functional and right-to-left, so ``(p * q)(i) == p(q(i))``.
"""

from __future__ import annotations

from typing import Iterable, Sequence


class Perm:
    """An immutable bijection on ``{1, ..., n}``."""

    __slots__ = ("_images",)

    def __init__(self, images: Sequence[int]):
        images = tuple(images)
        for label in images:
            if type(label) is not int:
                raise ValueError(f"label {label!r} is not an integer")
        n = len(images)
        if sorted(images) != list(range(1, n + 1)):
            raise ValueError(f"images {images!r} are not a bijection on 1..{n}")
        self._images = images

    @classmethod
    def from_cycles(cls, cycles: Iterable[Iterable[int]], size: int) -> Perm:
        """Build a permutation from disjoint cycles; unmentioned labels are fixed.

        Raises ValueError on labels that are not plain ints in ``1..size``, or repeated.
        """
        images = list(range(1, size + 1))
        seen: set[int] = set()
        for cycle in cycles:
            cycle = list(cycle)
            for label in cycle:
                if type(label) is not int or not 1 <= label <= size:
                    raise ValueError(f"label {label!r} is not an integer in 1..{size}")
                if label in seen:
                    raise ValueError(f"label {label} appears in two cycles")
                seen.add(label)
            for pos, label in enumerate(cycle):
                images[label - 1] = cycle[(pos + 1) % len(cycle)]
        return cls(images)

    @property
    def size(self) -> int:
        return len(self._images)

    @property
    def images(self) -> tuple[int, ...]:
        return self._images

    def __call__(self, i: int) -> int:
        if not 1 <= i <= len(self._images):
            raise ValueError(f"label {i} out of range for {len(self._images)} labels")
        return self._images[i - 1]

    def __mul__(self, other: Perm) -> Perm:
        """Composition applying ``other`` first: ``(self * other)(i) == self(other(i))``."""
        if self.size != other.size:
            raise ValueError("cannot compose permutations of different sizes")
        return Perm(tuple(self._images[j - 1] for j in other._images))

    def inverse(self) -> Perm:
        inv = [0] * self.size
        for i, j in enumerate(self._images, start=1):
            inv[j - 1] = i
        return Perm(inv)

    def orbits(self) -> list[tuple[int, ...]]:
        """Orbits as cycles, each rotated to start at its smallest label, sorted by that label."""
        seen = [False] * (self.size + 1)
        out: list[tuple[int, ...]] = []
        for start in range(1, self.size + 1):
            if seen[start]:
                continue
            cycle = []
            i = start
            while not seen[i]:
                seen[i] = True
                cycle.append(i)
                i = self._images[i - 1]
            out.append(tuple(cycle))
        return out

    def is_fixed_point_free_involution(self) -> bool:
        return all(
            img != i and self._images[img - 1] == i
            for i, img in enumerate(self._images, start=1)
        )

    def cycle_string(self) -> str:
        orbits = [o for o in self.orbits() if len(o) > 1]
        if not orbits:
            return "()"
        return "".join("(" + ",".join(map(str, o)) + ")" for o in orbits)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Perm) and self._images == other._images

    def __hash__(self) -> int:
        return hash(self._images)

    def __repr__(self) -> str:
        return f"Perm({self.cycle_string()}, size={self.size})"

