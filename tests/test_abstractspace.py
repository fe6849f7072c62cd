import random
from fractions import Fraction

import pytest

from latticebv import suites
from latticebv.abstractspace import abstract_space, randbelow, random_element, random_word
from latticebv.bvtheory import Section, window_points
from latticebv.lattice import Lattice
from latticebv.models import klein_gordon, maxwell2d
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



def reference_word(rng, gens, max_len, min_len):
    """random_word drawn with Random's own methods."""
    while True:
        length = rng.randint(min_len, max_len)
        w, _ = normalize([rng.choice(gens) for _ in range(length)])
        if w is not None:
            return w


@pytest.mark.parametrize("seed", SEEDS)
def test_random_word_draws_the_reference_sequence(seed):
    gens, _ = abstract_space()
    # pools of 1, 5, 32 (a power of two: the most rejections) and 40 generators
    for pool in (gens[:1], gens[:5], gens[:32], gens):
        ours, ref = random.Random(seed), random.Random(seed)
        for min_len in (1, 2, 4):
            for max_len in (min_len, min_len + 3):
                for _ in range(15):
                    got = random_word(ours, pool, max_len, min_len)
                    assert got == reference_word(ref, pool, max_len, min_len)
                    assert min_len <= len(got) <= max_len
        assert ours.getstate() == ref.getstate(), len(pool)


def test_random_word_rejects_an_empty_pool():
    with pytest.raises(ValueError):
        random_word(random.Random(0), [], 2)


def reference_section(rng, model, points, n_terms):
    """suites._random_section drawn with Random's own methods and a fresh
    Fraction per coefficient."""
    out = Section()
    for _ in range(n_terms):
        p = rng.choice(points)
        n = rng.choice(model.degrees())
        f = rng.randrange(model.rank(n))
        c = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        if c:
            q = model.lattice.point(p.t, p.x)
            out.add_term((n, q.t, q.x, f), c)
    return out


@pytest.mark.parametrize("seed", SEEDS)
def test_random_section_draws_the_reference_sequence(seed):
    # kg has rank-1 fibers, maxwell2d fibers of rank 2 (so the fiber draw is not constant)
    for model in (klein_gordon(Lattice(21)), maxwell2d(Lattice(21))):
        points = window_points(-2, 2, range(-2, 3))
        ours, ref = random.Random(seed), random.Random(seed)
        for n_terms in (1, 3, 6):
            for _ in range(20):
                got = suites._random_section(ours, model, points, n_terms)
                want = reference_section(ref, model, points, n_terms)
                assert list(got.items()) == list(want.items())
                assert [type(v) for v in got.terms.values()] == [type(v) for v in want.terms.values()]
        assert ours.getstate() == ref.getstate()
