"""Graded symmetric algebra with Koszul-sign normal forms.

Generators are tuples whose FIRST component is the (integer) degree; the
total order used for normal forms is plain tuple comparison, so lattice
generators (degree, t, x, fiber) sort lexicographically as required.  Words
are sorted tuples of generators: repeated odd generators square to zero and
are never stored; the empty word is the algebra unit.

Pairings tau of degree p extend to a biderivation on Sym(V) (x) Sym(V) and,
when symmetric, to a Laplacian on Sym(V).  Both closed forms are implemented
directly and skip the pairs that the degree of tau forbids; the recursions
they must satisfy ask tau for every pair and are kept alongside as
independent oracles (`bider_recursive`, `laplacian_recursive`).

Sign conventions (|.| is the generator degree, V_<i = sum of degrees before
position i, etc.):

    normalize:  (-1)^{# inversions among odd-degree pairs}
    derivation: D(v_1...v_n) = sum_i (-1)^{|D| * V_<i} v_1...D(v_i)...v_n
    bider:      <v_1...v_n, w_1...w_m>_tau =
        sum_{i,j} (-1)^{(|v_i|+p) W_<j + |w_j| V_>i + p V_<i}
                  tau(v_i, w_j) (v minus i) (x) (w minus j)
    laplacian:  Delta(v_1...v_n) =
        sum_{i<j} (-1)^{p V_<i + |v_j| V_(i,j)} tau(v_i, v_j) (v minus i,j)
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable

from .scalars import Combination, HScalar, rational, sym_coeff, u_coeffs

Word = tuple  # sorted tuple of generators

EMPTY_WORD: Word = ()


def word_degree(w: Word) -> int:
    d = 0
    for g in w:
        d += g[0]
    return d


def normalize(gens) -> tuple:
    """Sort a raw generator sequence; return (word, sign) or (None, 0) when a
    repeated odd generator forces the word to vanish.  Only odd generators
    anticommute: the sign is (-1)^{# inversions among them}."""
    if len(gens) < 2:
        return tuple(gens), 1
    odd = [g for g in gens if g[0] % 2]
    if len(odd) < 2:
        return tuple(sorted(gens)), 1
    if len(odd) == 2:
        if odd[0] == odd[1]:
            return None, 0
        return tuple(sorted(gens)), -1 if odd[0] > odd[1] else 1
    if len(set(odd)) < len(odd):
        return None, 0
    sign = 1
    for i, g in enumerate(odd):
        for h in odd[i + 1 :]:
            if g > h:
                sign = -sign
    return tuple(sorted(gens)), sign


class SymElement(Combination):
    """Finite linear combination of normalized words over Q[u], u = i*h."""

    __slots__ = ()
    coerce = staticmethod(sym_coeff)

    @staticmethod
    def unit(coeff=1) -> "SymElement":
        return SymElement({EMPTY_WORD: coeff})

    @staticmethod
    def of_gen(g, coeff=1) -> "SymElement":
        return SymElement({(g,): coeff})

    def coeff_at_order(self, k: int) -> "SymElement":
        """The u^k coefficient of each word, a rational.  The coefficient of
        h^k is i^k times it; i^k is a unit, so the two agree at k = 0 and
        vanish together at every k."""
        coeffs = {w: u_coeffs(c) for w, c in self.terms.items()}
        return SymElement({w: cs[k] for w, cs in coeffs.items() if k < len(cs)})


def mul(a: SymElement, b: SymElement) -> SymElement:
    """Graded-commutative product: concatenate and normalize."""
    out = SymElement()
    for w1, c1 in a.terms.items():
        for w2, c2 in b.terms.items():
            w, sign = normalize(w1 + w2)
            if w is None:
                continue
            c = c1 * c2
            out.add_term(w, c if sign > 0 else -c)
    return out


def extend_derivation(dmap: Callable, degree: int, a: SymElement) -> SymElement:
    """Extend a generator map (gen -> SymElement) of the given degree to a
    graded derivation: each image word u replaces v_i in place, and sorting
    v_1 ... u ... v_n supplies its Koszul sign."""
    out = SymElement()
    for w, c in a.terms.items():
        prefix_deg = 0
        for i, g in enumerate(w):
            img = dmap(g)
            if img:
                cg = -c if (degree % 2) and (prefix_deg % 2) else c
                left, right = w[:i], w[i + 1 :]
                for u, cu in img.terms.items():
                    word, sign = normalize(left + u + right)
                    if word is not None:
                        cc = cu * cg
                        out.add_term(word, cc if sign > 0 else -cc)
            prefix_deg += g[0]
    return out


def sym_map(fmap: Callable, a: SymElement) -> SymElement:
    """Algebra-map extension of a degree-0 generator map (gen -> SymElement)."""
    out = SymElement()
    for w, c in a.terms.items():
        acc = SymElement.unit()
        for g in w:
            acc = mul(acc, fmap(g))
            if not acc:
                break
        out.add_scaled(acc, c)
    return out


# -- pairings --------------------------------------------------------------


class PairingOracle:
    """(Anti-)symmetric pairing of homogeneous degree p on generators.

    evaluate(g1, g2) must satisfy tau(g2, g1) = s * (-1)^{|g1||g2|} tau(g1, g2)
    and vanish unless |g1| + |g2| + p = 0.  The closed forms `_bider_words`
    and `laplacian_apply` skip the pairs the degree rule forbids; the
    recursions do not, so the closed-vs-recursive checks catch a pairing that
    breaks it.  The Tier-1 test_lattice_pairings_vanish_off_degree checks the
    rule for the lattice pairings, the structures suite their symmetry.

    Values are cached under key(g1, g2), or under the pair itself when key is
    None.  A key may merge pairs that the pairing cannot tell apart, such as
    the translates of a lattice pair; evaluate runs on the first pair of each
    key, and every later pair with that key reads its value.  A caller that
    already holds the key reads through :meth:`at`, which shares the cache.
    """

    def __init__(self, degree: int, symmetry: int, evaluate: Callable, name: str = "",
                 key: Callable | None = None):
        self.degree = degree
        self.symmetry = symmetry  # +1 symmetric, -1 anti-symmetric
        self.evaluate = evaluate
        self.name = name
        self.key = key
        self._cache: dict = {}

    def __call__(self, g1, g2):
        key = (g1, g2) if self.key is None else self.key(g1, g2)
        val = self._cache.get(key)
        if val is None:
            val = self.evaluate(g1, g2)
            self._cache[key] = val
        return val

    def at(self, key, g1, g2):
        """tau(g1, g2), given key = key(g1, g2): evaluate runs only if the key
        is new.  A caller may pass any pair of that key."""
        val = self._cache.get(key)
        if val is None:
            val = self._cache[key] = self.evaluate(g1, g2)
        return val


def boundary_pairing(tau: PairingOracle, dmap: Callable, name: str = "") -> PairingOracle:
    """The differential of a pairing in the internal hom:
    (d tau)(v, w) = -(-1)^p [ tau(dv, w) + (-1)^{|v|} tau(v, dw) ],
    where dmap is the complex differential on generators.  tau and dmap are
    rational; the integer terms add as ints, only the others as Fractions."""

    def ev(g1, g2):
        whole = part = 0
        for (h1,), c in dmap(g1).terms.items():
            v = tau(h1, g2) * c
            if type(v) is int:
                whole += v
            else:
                part += v
        sign1 = -1 if g1[0] % 2 else 1
        for (h2,), c in dmap(g2).terms.items():
            v = tau(g1, h2) * c * sign1
            if type(v) is int:
                whole += v
            else:
                part += v
        acc = rational(whole + part) if part else whole
        return -acc if tau.degree % 2 == 0 else acc

    return PairingOracle(tau.degree + 1, tau.symmetry, ev, name=name or f"d({tau.name})")


class TensorElement(Combination):
    """Element of a tensor power of Sym V: {(word_1, ..., word_n): coeff}
    over Q[u]."""

    __slots__ = ()
    coerce = staticmethod(sym_coeff)

    @staticmethod
    def of(*elems: SymElement) -> "TensorElement":
        """elems[0] (x) elems[1] (x) ... (at least one factor)."""
        first, *rest = elems
        terms = {(w,): c for w, c in first.terms.items()}
        for e in rest:
            terms = {k + (w,): c * cw for k, c in terms.items() for w, cw in e.terms.items()}
        return TensorElement(terms)

    def permute(self, rho) -> "TensorElement":
        """Koszul action of the permutation: slot i of the output is slot
        rho[i] of the input."""
        out = TensorElement()
        for words, c in self.terms.items():
            degs = [word_degree(w) for w in words]
            sign = 1
            for i in range(len(rho)):
                for j in range(i + 1, len(rho)):
                    if rho[i] > rho[j] and degs[rho[i]] % 2 and degs[rho[j]] % 2:
                        sign = -sign
            out.add_term(tuple(words[r] for r in rho), c if sign > 0 else -c)
        return out

    def map_factor(self, index: int, fn, fdeg: int) -> "TensorElement":
        """Apply a linear map of degree fdeg to one slot, with the Koszul sign
        for carrying it past the earlier slots."""
        out = TensorElement()
        for words, c in self.terms.items():
            prefix = sum(word_degree(w) for w in words[:index])
            sign = -1 if (fdeg % 2) and (prefix % 2) else 1
            img = fn(SymElement({words[index]: 1}))
            for w, cw in img.terms.items():
                key = words[:index] + (w,) + words[index + 1 :]
                cc = c * cw
                out.add_term(key, cc if sign > 0 else -cc)
        return out


def tensor_mu(te: TensorElement) -> SymElement:
    """Multiply all tensor slots together."""
    out = SymElement()
    for words, c in te.terms.items():
        w, sign = normalize(sum(words, ()))
        if w is None:
            continue
        out.add_term(w, c if sign > 0 else -c)
    return out


def tensor_braiding(te: TensorElement) -> TensorElement:
    """gamma(a (x) b) = (-1)^{|a||b|} b (x) a on homogeneous words."""
    out = TensorElement()
    for (w1, w2), c in te.terms.items():
        sign = -1 if (word_degree(w1) % 2) and (word_degree(w2) % 2) else 1
        out.add_term((w2, w1), c if sign > 0 else -c)
    return out


def _bider_words(tau: PairingOracle, w1: Word, w2: Word, out: TensorElement, c) -> None:
    """out += c * <w1, w2>_tau, the closed-form biderivation on a pair of
    normalized words; c is a nonzero Sym coefficient."""
    p = tau.degree
    if not w1 or not w2:
        return
    deg2 = [g[0] for g in w2]
    v_after = word_degree(w1)
    v_before = 0
    for i, g in enumerate(w1):
        d1 = g[0]
        v_after -= d1
        want = -p - d1
        if want in deg2:
            rest1 = w1[:i] + w1[i + 1 :]
            w_before = 0
            for j, d2 in enumerate(deg2):
                if d2 == want:
                    val = tau(g, w2[j])
                    if val:
                        val *= c
                        exp = (d1 + p) * w_before + d2 * v_after + p * v_before
                        out.add_term((rest1, w2[:j] + w2[j + 1 :]), val if exp % 2 == 0 else -val)
                w_before += d2
        v_before += d1


def bider_apply(tau: PairingOracle, a: SymElement, b: SymElement) -> TensorElement:
    """<a, b>_tau in Sym V (x) Sym V (closed form)."""
    out = TensorElement()
    for w1, c1 in a.terms.items():
        for w2, c2 in b.terms.items():
            _bider_words(tau, w1, w2, out, c1 * c2)
    return out


def bider_tensor(tau: PairingOracle, te: TensorElement) -> TensorElement:
    """The biderivation as an endomorphism of Sym V (x) Sym V."""
    out = TensorElement()
    for (w1, w2), c in te.terms.items():
        _bider_words(tau, w1, w2, out, c)
    return out


def bider_recursive(tau: PairingOracle, a: SymElement, b: SymElement) -> TensorElement:
    """Independent oracle: evaluate <a,b>_tau through the defining properties
    only — the generator-pair base case, the second-slot derivation rule, and
    (anti-)symmetry to shorten the first slot.  The word-level recursions
    build plain {key: rational} dicts, which may hold zero sums; the
    TensorElement that wraps a word pair's result drops them."""
    out = TensorElement()
    for w1, c1 in a.terms.items():
        for w2, c2 in b.terms.items():
            out.add_scaled(TensorElement(_bider_rec_words(tau, w1, w2)), c1 * c2)
    return out


def _module_left(out: dict, b_word: Word, terms: dict, sign: int) -> None:
    """out += sign * (1 (x) b) * terms, with the Koszul sign of b passing the
    first slot."""
    bodd = word_degree(b_word) % 2
    for (u1, u2), c in terms.items():
        w, s2 = normalize(b_word + u2)
        if w is not None:
            if bodd and word_degree(u1) % 2:
                s2 = -s2
            key = (u1, w)
            out[key] = out.get(key, 0) + (c if s2 * sign > 0 else -c)


def _module_right(terms: dict, c_word: Word) -> dict:
    """terms * (1 (x) c); the unit in the first slot passes with no sign."""
    out = {}
    for (u1, u2), c in terms.items():
        w, s2 = normalize(u2 + c_word)
        if w is not None:
            out[(u1, w)] = c if s2 > 0 else -c
    return out


def _bider_rec_words(tau: PairingOracle, w1: Word, w2: Word) -> dict:
    if not w1 or not w2:
        return {}
    if len(w1) == 1 and len(w2) == 1:
        val = tau(w1[0], w2[0])
        return {(EMPTY_WORD, EMPTY_WORD): val} if val else {}
    if len(w2) >= 2:
        # <a, b c> = <a,b>(1 (x) c) + (-1)^{(|a|+p)|b|} (1 (x) b) <a,c>
        head, tail = (w2[0],), w2[1:]
        out = _module_right(_bider_rec_words(tau, w1, head), tail)
        sign = -1 if ((word_degree(w1) + tau.degree) % 2) and (head[0][0] % 2) else 1
        _module_left(out, head, _bider_rec_words(tau, w1, tail), sign)
        return out
    # len(w1) >= 2, len(w2) == 1: flip, <a, b> = s (-1)^{|a||b|} braiding(<b, a>)
    factor = -tau.symmetry if (word_degree(w1) % 2) and (word_degree(w2) % 2) else tau.symmetry
    out = {}
    for (u1, u2), c in _bider_rec_words(tau, w2, w1).items():
        sign = -factor if (word_degree(u1) % 2) and (word_degree(u2) % 2) else factor
        out[(u2, u1)] = c if sign > 0 else -c
    return out


def laplacian_apply(tau: PairingOracle, a: SymElement) -> SymElement:
    """Closed-form Laplacian of a symmetric pairing; drops word length by 2."""
    if tau.symmetry != 1:
        raise ValueError("laplacian needs a symmetric pairing")
    p = tau.degree
    out = SymElement()
    for w, c in a.terms.items():
        n = len(w)
        if n < 2:
            continue
        degs = [g[0] for g in w]
        before = 0  # V_<i
        for i in range(n - 1):
            di = degs[i]
            want = -p - di
            if want in degs[i + 1 :]:
                between = 0  # V_(i,j)
                for j in range(i + 1, n):
                    dj = degs[j]
                    if dj == want:
                        val = tau(w[i], w[j])
                        if val:
                            cc = c * val
                            if (p * before + dj * between) % 2:
                                cc = -cc
                            out.add_term(w[:i] + w[i + 1 : j] + w[j + 1 :], cc)
                    between += dj
            before += di
    return out


def laplacian_recursive(tau: PairingOracle, a: SymElement) -> SymElement:
    """Independent oracle: the modified Leibniz rule
    Delta(v b) = (-1)^{p|v|} v Delta(b) + mu(<v, b>_tau) with Delta = 0 on
    words of length < 2, using the recursive biderivation."""
    p = tau.degree
    out = SymElement()
    for w, c in a.terms.items():
        out.add_scaled(SymElement(_laplacian_rec_word(tau, w, p)), c)
    return out


def _laplacian_rec_word(tau: PairingOracle, w: Word, p: int) -> dict:
    if len(w) < 2:
        return {}
    if len(w) == 2:
        val = tau(w[0], w[1])
        return {EMPTY_WORD: val} if val else {}
    head, tail = (w[0],), w[1:]
    out: dict = {}
    for (u1, u2), c in _bider_rec_words(tau, head, tail).items():
        word, s = normalize(u1 + u2)
        if word is not None:
            out[word] = out.get(word, 0) + (c if s > 0 else -c)
    sign = -1 if (p % 2) and (head[0][0] % 2) else 1
    for u, c in _laplacian_rec_word(tau, tail, p).items():
        word, s = normalize(head + u)
        if word is not None:
            out[word] = out.get(word, 0) + (c if s * sign > 0 else -c)
    return out


def _exp_series(step, x, prefactor):
    """exp(prefactor * step) applied to x: the sum over k of
    prefactor^k / k! * step^k(x), which truncates because step shortens words."""
    total = type(x)()
    term = x
    k = 0
    while term:
        total.add_scaled(term)
        k += 1
        term = step(term)
        if term:
            term = term.scale(prefactor * Fraction(1, k))
    return total


def exp_bider(tau: PairingOracle, te: TensorElement, prefactor: HScalar) -> TensorElement:
    """exp(prefactor * <-,->_tau) applied to a tensor element; the series
    truncates because each application shortens both slots.  The reference
    for :func:`deformed_mul`."""
    return _exp_series(lambda t: bider_tensor(tau, t), te, prefactor)


def deformed_mul(tau: PairingOracle, a: SymElement, b: SymElement, prefactor: HScalar) -> SymElement:
    """mu o exp(prefactor * <-,->_tau)(a (x) b), order by order: order 0 is
    mul(a, b), order k is mu of <-,->_tau applied k times to a (x) b, scaled
    once, after mu, by prefactor^k / k!.  No order builds a (x) b or a
    running total in the tensor square."""
    out = mul(a, b)
    term = bider_apply(tau, a, b)
    scale = prefactor
    k = 1
    while term:
        out.add_scaled(tensor_mu(term), scale)
        k += 1
        term = bider_tensor(tau, term)
        if term:
            scale = scale * prefactor * Fraction(1, k)
    return out


def exp_laplacian(tau: PairingOracle, a: SymElement, prefactor: HScalar) -> SymElement:
    """exp(prefactor * Delta_tau) applied to an element (truncating series)."""
    return _exp_series(lambda t: laplacian_apply(tau, t), a, prefactor)


def laplacian_tensor(tau: PairingOracle, te: TensorElement) -> TensorElement:
    """Delta_{tau,(x)} = Delta (x) id + id (x) Delta on Sym V (x) Sym V."""
    p = tau.degree
    out = TensorElement()
    for (w1, w2), c in te.terms.items():
        left = laplacian_apply(tau, SymElement({w1: 1}))
        for u1, c1 in left.terms.items():
            out.add_term((u1, w2), c * c1)
        sign = -1 if (p % 2) and (word_degree(w1) % 2) else 1
        right = laplacian_apply(tau, SymElement({w2: 1}))
        for u2, c2 in right.terms.items():
            cc = c * c2
            out.add_term((w1, u2), cc if sign > 0 else -cc)
    return out
