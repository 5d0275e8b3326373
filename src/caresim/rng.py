"""Deterministic randomness for simulation runs.

A run owns exactly one :class:`RngStream`; every stochastic operation of
that run draws from it in execution order, so a seed fully determines the
run.  The stream *is* a ``random.Random``, but builds all of its
primitives on ``random()`` alone: the stdlib's higher-level helpers
(``shuffle``, ``choices``, ``randint``, ``gauss``, ...) are not guaranteed
to keep their draw patterns across Python versions, while ``random()``
itself is.  Inherited helpers outside the vocabulary below are therefore
not part of the contract.
"""

from __future__ import annotations

import random
from itertools import repeat, starmap

_MASK64 = (1 << 64) - 1
# One-draw primitives call the C method directly, not ``self.random``, so a
# class-level wrapper of ``random`` counts only what goes through it.
_draw = random.Random.random


def splitmix64(value: int) -> int:
    """One step of the splitmix64 finalizer (a 64-bit avalanche mix)."""
    z = (value + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_run_seed(base_seed: int, repeat_index: int) -> int:
    """Mix a base seed and a repeat index into an independent run seed.

    Computes ``splitmix64(base_seed XOR repeat_index)``.  The mix is
    bijective on 64-bit values, so for a fixed base the mapping is
    injective over repeat indices.  The formula is part of the output
    contract and must not change between versions.
    """
    if repeat_index < 0:
        raise ValueError("repeat_index must be non-negative")
    return splitmix64((base_seed & _MASK64) ^ (repeat_index & _MASK64))


class RngStream(random.Random):
    """Seeded pseudo-random stream with a documented draw vocabulary.

    Primitives, each consuming exactly the stated number of underlying
    ``random()`` draws:

    * :meth:`random` - one draw, uniform in [0, 1) (inherited, in C).
    * :meth:`randoms` - ``n`` draws as a list: ``n`` calls of ``self.random``
      in order, so a wrapper of ``random`` sees every bulk draw.
    * :meth:`uniform` - one draw, ``lo + (hi - lo) * random()``.
    * :meth:`chance` - one draw, true iff ``random() < p``.
    * :meth:`sign` - one draw, +1 iff ``random() < 0.5`` else -1.
    * :meth:`index` / :meth:`choice` - one draw, ``floor(random() * n)``,
      at most ``n - 1``.
    * :meth:`sample` - ``k`` draws, partial Fisher-Yates without
      replacement in pick order; O(k) memory, ``items`` never copied.
    """

    def __init__(self, seed: int = 0):
        super().__init__(seed & _MASK64)

    def randoms(self, n: int) -> list[float]:
        return list(starmap(self.random, repeat((), n)))

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * _draw(self)

    def chance(self, probability: float) -> bool:
        return _draw(self) < probability

    def sign(self) -> int:
        return 1 if _draw(self) < 0.5 else -1

    def index(self, n: int) -> int:
        if n <= 0:
            raise ValueError("index() needs a positive range")
        j = int(_draw(self) * n)
        return j if j < n else n - 1

    def choice(self, items):
        return items[self.index(len(items))]

    def sample(self, items, k: int) -> list:
        """Fisher-Yates over positions; ``displaced`` holds only moved ones,
        so ``items`` is indexed but never copied or iterated."""
        n = len(items)
        if k < 0 or k > n:
            raise ValueError("sample size out of range")
        displaced = {}
        picked = []
        for i in range(k):
            j = i + self.index(n - i)
            picked.append(items[displaced.get(j, j)])
            displaced[j] = displaced.get(i, i)
        return picked
