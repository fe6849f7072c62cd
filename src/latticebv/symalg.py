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

from .scalars import Combination, HScalar, sym_coeff, u_coeffs

Word = tuple  # sorted tuple of generators

EMPTY_WORD: Word = ()


def word_degree(w: Word) -> int:
    return sum(g[0] for g in w)


def normalize(gens) -> tuple:
    """Sort a raw generator list; return (word, sign) or (None, 0) when a
    repeated odd generator forces the word to vanish."""
    gens = list(gens)
    sign = 1
    # insertion sort; each adjacent swap of odd-degree pairs flips the sign
    for i in range(1, len(gens)):
        j = i
        while j > 0 and gens[j - 1] > gens[j]:
            if gens[j - 1][0] % 2 and gens[j][0] % 2:
                sign = -sign
            gens[j - 1], gens[j] = gens[j], gens[j - 1]
            j -= 1
    for a, b in zip(gens, gens[1:]):
        if a == b and a[0] % 2:
            return None, 0
    return tuple(gens), sign


class SymElement(Combination):
    """Finite linear combination of normalized words over Q[u], u = i*h."""

    __slots__ = ()
    coerce = staticmethod(sym_coeff)

    @staticmethod
    def unit(coeff=1) -> "SymElement":
        c = sym_coeff(coeff)
        return SymElement({EMPTY_WORD: c} if c else {})

    @staticmethod
    def of_gen(g, coeff=1) -> "SymElement":
        c = sym_coeff(coeff)
        return SymElement({(g,): c} if c else {})

    def homogeneous_parts(self) -> dict:
        parts: dict = {}
        for w, c in self.terms.items():
            parts.setdefault(word_degree(w), {})[w] = c
        return {d: SymElement(t) for d, t in parts.items()}

    def coeff_at_order(self, k: int) -> "SymElement":
        """The u^k coefficient of each word, a rational.  The coefficient of
        h^k is i^k times it; i^k is a unit, so the two agree at k = 0 and
        vanish together at every k."""
        coeffs = {w: u_coeffs(c) for w, c in self.terms.items()}
        return SymElement({w: cs[k] for w, cs in coeffs.items() if k < len(cs)})


def mul(a: SymElement, b: SymElement) -> SymElement:
    """Graded-commutative product: concatenate and normalize."""
    out = SymElement()
    for w1, c1 in a.items():
        for w2, c2 in b.items():
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
    for w, c in a.items():
        prefix_deg = 0
        for i, g in enumerate(w):
            img = dmap(g)
            if img:
                cg = -c if (degree % 2) and (prefix_deg % 2) else c
                left, right = w[:i], w[i + 1 :]
                for u, cu in img.items():
                    word, sign = normalize(left + u + right)
                    if word is not None:
                        cc = cu * cg
                        out.add_term(word, cc if sign > 0 else -cc)
            prefix_deg += g[0]
    return out


def sym_map(fmap: Callable, a: SymElement) -> SymElement:
    """Algebra-map extension of a degree-0 generator map (gen -> SymElement)."""
    out = SymElement()
    for w, c in a.items():
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
    key, and every later pair with that key reads its value.
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


def boundary_pairing(tau: PairingOracle, dmap: Callable, name: str = "") -> PairingOracle:
    """The differential of a pairing in the internal hom:
    (d tau)(v, w) = -(-1)^p [ tau(dv, w) + (-1)^{|v|} tau(v, dw) ],
    where dmap is the complex differential on generators."""

    def ev(g1, g2):
        acc = 0
        for (h1,), c in dmap(g1).items():
            acc = acc + tau(h1, g2) * c
        sign1 = -1 if g1[0] % 2 else 1
        for (h2,), c in dmap(g2).items():
            v = tau(g1, h2) * c
            acc = acc + (v if sign1 > 0 else -v)
        outer = -1 if tau.degree % 2 else 1
        return -acc if outer > 0 else acc

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
        terms = {(w,): c for w, c in first.items()}
        for e in rest:
            terms = {k + (w,): c * cw for k, c in terms.items() for w, cw in e.items()}
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
            for w, cw in img.items():
                key = words[:index] + (w,) + words[index + 1 :]
                cc = c * cw
                out.add_term(key, cc if sign > 0 else -cc)
        return out


def tensor_mu(te: TensorElement) -> SymElement:
    """Multiply all tensor slots together."""
    out = SymElement()
    for words, c in te.items():
        w, sign = normalize(sum(words, ()))
        if w is None:
            continue
        out.add_term(w, c if sign > 0 else -c)
    return out


def tensor_braiding(te: TensorElement) -> TensorElement:
    """gamma(a (x) b) = (-1)^{|a||b|} b (x) a on homogeneous words."""
    out = TensorElement()
    for (w1, w2), c in te.items():
        sign = -1 if (word_degree(w1) % 2) and (word_degree(w2) % 2) else 1
        out.add_term((w2, w1), c if sign > 0 else -c)
    return out


def _bider_words(tau: PairingOracle, w1: Word, w2: Word) -> TensorElement:
    """Closed-form biderivation on a pair of normalized words."""
    p = tau.degree
    out = TensorElement()
    n, m = len(w1), len(w2)
    if n == 0 or m == 0:
        return out
    deg1 = [g[0] for g in w1]
    deg2 = [g[0] for g in w2]
    total1 = sum(deg1)
    prefix2 = [0]
    for d in deg2:
        prefix2.append(prefix2[-1] + d)
    prefix1 = [0]
    for d in deg1:
        prefix1.append(prefix1[-1] + d)
    for i in range(n):
        v_before = prefix1[i]
        v_after = total1 - prefix1[i + 1]
        want = -p - deg1[i]
        for j in range(m):
            if deg2[j] != want:
                continue
            val = tau(w1[i], w2[j])
            if not val:
                continue
            exp = (deg1[i] + p) * prefix2[j] + deg2[j] * v_after + p * v_before
            c = val if exp % 2 == 0 else -val
            out.add_term((w1[:i] + w1[i + 1 :], w2[:j] + w2[j + 1 :]), c)
    return out


def bider_apply(tau: PairingOracle, a: SymElement, b: SymElement) -> TensorElement:
    """<a, b>_tau in Sym V (x) Sym V (closed form)."""
    out = TensorElement()
    for w1, c1 in a.items():
        for w2, c2 in b.items():
            out.add_scaled(_bider_words(tau, w1, w2), c1 * c2)
    return out


def bider_tensor(tau: PairingOracle, te: TensorElement) -> TensorElement:
    """The biderivation as an endomorphism of Sym V (x) Sym V."""
    out = TensorElement()
    for (w1, w2), c in te.items():
        out.add_scaled(_bider_words(tau, w1, w2), c)
    return out


def bider_recursive(tau: PairingOracle, a: SymElement, b: SymElement) -> TensorElement:
    """Independent oracle: evaluate <a,b>_tau through the defining properties
    only — the generator-pair base case, the second-slot derivation rule, and
    (anti-)symmetry to shorten the first slot."""
    out = TensorElement()
    for w1, c1 in a.items():
        for w2, c2 in b.items():
            out.add_scaled(_bider_rec_words(tau, w1, w2), c1 * c2)
    return out


def _module_left(b_word: Word, te: TensorElement) -> TensorElement:
    """(1 (x) b) * te with Koszul sign past the first slot."""
    out = TensorElement()
    bdeg = word_degree(b_word)
    for (u1, u2), c in te.items():
        sign = -1 if (bdeg % 2) and (word_degree(u1) % 2) else 1
        w, s2 = normalize(b_word + u2)
        if w is None:
            continue
        cc = c if sign > 0 else -c
        if s2 < 0:
            cc = -cc
        out.add_term((u1, w), cc)
    return out


def _module_right(te: TensorElement, c_word: Word) -> TensorElement:
    """te * (1 (x) c); the unit in the first slot passes with no sign."""
    out = TensorElement()
    for (u1, u2), c in te.items():
        w, s2 = normalize(u2 + c_word)
        if w is None:
            continue
        out.add_term((u1, w), c if s2 > 0 else -c)
    return out


def _bider_rec_words(tau: PairingOracle, w1: Word, w2: Word) -> TensorElement:
    p = tau.degree
    s = tau.symmetry
    if not w1 or not w2:
        return TensorElement()
    if len(w1) == 1 and len(w2) == 1:
        out = TensorElement()
        val = tau(w1[0], w2[0])
        if val:
            out.add_term((EMPTY_WORD, EMPTY_WORD), val)
        return out
    if len(w2) >= 2:
        # <a, b c> = <a,b>(1 (x) c) + (-1)^{(|a|+p)|b|} (1 (x) b) <a,c>
        head, tail = (w2[0],), w2[1:]
        out = _module_right(_bider_rec_words(tau, w1, head), tail)
        sign = -1 if ((word_degree(w1) + p) % 2) and (head[0][0] % 2) else 1
        out.add_scaled(_module_left(head, _bider_rec_words(tau, w1, tail)), sign)
        return out
    # len(w1) >= 2, len(w2) == 1: flip through (anti-)symmetry
    flipped = _bider_rec_words(tau, w2, w1)
    sign = -1 if (word_degree(w1) % 2) and (word_degree(w2) % 2) else 1
    out = tensor_braiding(flipped)
    factor = s * sign
    return out if factor > 0 else out.scale(-1)


def laplacian_apply(tau: PairingOracle, a: SymElement) -> SymElement:
    """Closed-form Laplacian of a symmetric pairing; drops word length by 2."""
    if tau.symmetry != 1:
        raise ValueError("laplacian needs a symmetric pairing")
    p = tau.degree
    out = SymElement()
    for w, c in a.items():
        n = len(w)
        if n < 2:
            continue
        degs = [g[0] for g in w]
        prefix = [0]
        for d in degs:
            prefix.append(prefix[-1] + d)
        for i in range(n):
            want = -p - degs[i]
            for j in range(i + 1, n):
                if degs[j] != want:
                    continue
                val = tau(w[i], w[j])
                if not val:
                    continue
                exp = p * prefix[i] + degs[j] * (prefix[j] - prefix[i + 1])
                cc = c * val
                if exp % 2:
                    cc = -cc
                out.add_term(w[:i] + w[i + 1 : j] + w[j + 1 :], cc)
    return out


def laplacian_recursive(tau: PairingOracle, a: SymElement) -> SymElement:
    """Independent oracle: the modified Leibniz rule
    Delta(v b) = (-1)^{p|v|} v Delta(b) + mu(<v, b>_tau) with Delta = 0 on
    words of length < 2, using the recursive biderivation."""
    p = tau.degree
    out = SymElement()
    for w, c in a.items():
        out.add_scaled(_laplacian_rec_word(tau, w, p), c)
    return out


def _laplacian_rec_word(tau: PairingOracle, w: Word, p: int) -> SymElement:
    if len(w) < 2:
        return SymElement()
    if len(w) == 2:
        val = tau(w[0], w[1])
        return SymElement({EMPTY_WORD: val} if val else {})
    head, tail = (w[0],), w[1:]
    sign = -1 if (p % 2) and (head[0][0] % 2) else 1
    out = tensor_mu(_bider_rec_words(tau, head, tail))
    out.add_scaled(mul(SymElement({head: 1}), _laplacian_rec_word(tau, tail, p)), sign)
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
    truncates because each application shortens both slots."""
    return _exp_series(lambda t: bider_tensor(tau, t), te, prefactor)


def exp_laplacian(tau: PairingOracle, a: SymElement, prefactor: HScalar) -> SymElement:
    """exp(prefactor * Delta_tau) applied to an element (truncating series)."""
    return _exp_series(lambda t: laplacian_apply(tau, t), a, prefactor)


def laplacian_tensor(tau: PairingOracle, te: TensorElement) -> TensorElement:
    """Delta_{tau,(x)} = Delta (x) id + id (x) Delta on Sym V (x) Sym V."""
    p = tau.degree
    out = TensorElement()
    for (w1, w2), c in te.items():
        left = laplacian_apply(tau, SymElement({w1: 1}))
        for u1, c1 in left.items():
            out.add_term((u1, w2), c * c1)
        sign = -1 if (p % 2) and (word_degree(w1) % 2) else 1
        right = laplacian_apply(tau, SymElement({w2: 1}))
        for u2, c2 in right.items():
            cc = c * c2
            out.add_term((w1, u2), cc if sign > 0 else -cc)
    return out
