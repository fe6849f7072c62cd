"""Synthetic graded spaces with seeded random pairings.

The algebra suite exercises the symmetric-algebra layer away from any
lattice model: a direct sum of two-term complexes with mixed-parity degrees
and random (anti-)symmetric pairings of prescribed degree.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .scalars import rational
from .symalg import PairingOracle, SymElement, normalize


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
        c = Fraction(rng.randint(1, 4), rng.randint(1, 3))
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
            val = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            if not val:
                continue
            koszul = -1 if (g[0] % 2) and (h[0] % 2) else 1
            if g == h and symmetry * koszul == -1:
                continue  # diagonal forced to vanish
            table[(g, h)] = val = rational(val)
            table[(h, g)] = val if symmetry * koszul == 1 else -val

    def ev(g, h):
        return table.get((g, h), 0)

    return PairingOracle(degree, symmetry, ev, name=f"abstract(p={degree},s={symmetry})")


def random_word(rng, gens, max_len: int, min_len: int = 1):
    """A normalized random word (resampling the rare all-odd collisions)."""
    while True:
        length = rng.randint(min_len, max_len)
        w, _ = normalize([rng.choice(gens) for _ in range(length)])
        if w is not None:
            return w


def random_element(rng, gens, max_len: int, n_words: int = 3) -> SymElement:
    out = SymElement()
    for _ in range(n_words):
        w = random_word(rng, gens, max_len, min_len=0)
        coeff = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        if coeff:
            out.add_term(w, coeff)
    return out
