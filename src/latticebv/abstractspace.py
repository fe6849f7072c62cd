"""Synthetic graded spaces with seeded random pairings.

The algebra suite exercises the symmetric-algebra layer away from any
lattice model: a direct sum of two-term complexes with mixed-parity degrees
and random (anti-)symmetric pairings of prescribed degree.  Every integer
draw of the package is one :func:`randbelow` call.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cache

from .scalars import rational
from .symalg import PairingOracle, SymElement, normalize


def randbelow(rng: random.Random, n: int) -> int:
    """rng.randrange(n) in one call: the getrandbits calls of randrange."""
    if n < 1:
        raise ValueError(f"empty range for randbelow({n})")
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


# the narrowed rational n/d of a drawn pair (n, d), built once per pair
drawn_rational = cache(lambda n, d: rational(Fraction(n, d)))


def abstract_space(n_pairs: int = 20, seed: int = 3):
    """Two-term complexes a_i -> c_i * b_i with degrees cycling over a
    mixed-parity set; returns (generators, differential map)."""
    rng = random.Random(seed)
    base_degrees = [-2, -1, 0, 1]
    gens = []
    dmap_data = {}
    for i in range(n_pairs):
        d = base_degrees[i % len(base_degrees)]
        a = (d, 2 * i)
        b = (d + 1, 2 * i + 1)
        gens.extend([a, b])
        c = drawn_rational(1 + randbelow(rng, 4), 1 + randbelow(rng, 3))
        dmap_data[a] = SymElement.of_gen(b, c)
        dmap_data[b] = SymElement()

    def dmap(g):
        return dmap_data[g]

    return gens, dmap


def random_pairing(gens, degree: int, symmetry: int, seed: int = 0, density: float = 0.7) -> PairingOracle:
    """Seeded random pairing: tau(g, h) vanishes unless |g| + |h| + degree = 0
    and satisfies tau(h, g) = symmetry * (-1)^{|g||h|} tau(g, h)."""
    rng = random.Random(seed)
    table = {}
    for i, g in enumerate(gens):
        for h in gens[i:]:
            if g[0] + h[0] + degree != 0:
                continue
            if rng.random() > density:
                continue
            val = drawn_rational(-4 + randbelow(rng, 9), 1 + randbelow(rng, 3))
            if not val:
                continue
            koszul = -1 if (g[0] % 2) and (h[0] % 2) else 1
            if g == h and symmetry * koszul == -1:
                continue  # diagonal forced to vanish
            table[(g, h)] = val
            table[(h, g)] = val if symmetry * koszul == 1 else -val

    def ev(g, h):
        return table.get((g, h), 0)

    return PairingOracle(degree, symmetry, ev, name=f"abstract(p={degree},s={symmetry})")


def random_word(rng, gens, max_len: int, min_len: int = 1):
    """A normalized random word (resampling the rare all-odd collisions)."""
    while True:
        length = min_len + randbelow(rng, max_len - min_len + 1)
        w, _ = normalize([gens[randbelow(rng, len(gens))] for _ in range(length)])
        if w is not None:
            return w


def random_element(rng, gens, max_len: int, n_words: int = 3) -> SymElement:
    out = SymElement()
    for _ in range(n_words):
        w = random_word(rng, gens, max_len, min_len=0)
        coeff = drawn_rational(-3 + randbelow(rng, 7), 1 + randbelow(rng, 2))
        if coeff:
            out.add_term(w, coeff)
    return out
