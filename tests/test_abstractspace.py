import random
from fractions import Fraction

import pytest

from latticebv.abstractspace import abstract_space, randbelow, random_element
from latticebv.symalg import SymElement, normalize

SEEDS = [0, 1, 7, 2**40 + 3, "algebra"]


@pytest.mark.parametrize("seed", SEEDS)
def test_randbelow_draws_what_the_random_methods_draw(seed):
    # n = 1..70 takes in every power of two up to 64 and every 2^k + 1
    for n in range(1, 71):
        ours, ref = random.Random(seed), random.Random(seed)
        items = [object() for _ in range(n)]
        for _ in range(12):
            assert randbelow(ours, n) == ref.randrange(n)
            assert randbelow(ours, n) - 3 == ref.randint(-3, n - 4)
            assert items[randbelow(ours, n)] is ref.choice(items)
        assert ours.getstate() == ref.getstate(), n


def test_randbelow_rejects_an_empty_range():
    for n in (0, -1):
        with pytest.raises(ValueError):
            randbelow(random.Random(0), n)


def reference_element(rng, gens, max_len, n_words):
    """random_element drawn with Random's own methods and a fresh Fraction
    per coefficient."""
    out = SymElement()
    for _ in range(n_words):
        while True:
            length = rng.randint(0, max_len)
            w, _ = normalize([rng.choice(gens) for _ in range(length)])
            if w is not None:
                break
        c = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        if c:
            out.add_term(w, c)
    return out


@pytest.mark.parametrize("seed", SEEDS)
def test_random_element_draws_the_reference_sequence(seed):
    gens, _ = abstract_space()
    ours, ref = random.Random(seed), random.Random(seed)
    for max_len in (0, 1, 3, 5):
        for n_words in (1, 2, 3):
            for _ in range(20):
                got = random_element(ours, gens, max_len, n_words)
                want = reference_element(ref, gens, max_len, n_words)
                assert list(got.terms.items()) == list(want.terms.items())
                assert [type(v) for v in got.terms.values()] == [type(v) for v in want.terms.values()]
    assert ours.getstate() == ref.getstate()

