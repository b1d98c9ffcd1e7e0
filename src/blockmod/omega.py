"""Rank-1 polynomial modules over the Block algebra, and their Witt shadows.

For a parameter set (q, lambda1, lambda2, alpha) the carrier is the
polynomial ring in d1, d2, with d1 and d2 acting by multiplication and
the basis generator L(m) acting through

    L(m) . f  =  f(d - m) * g_m(d),
    g_m(d)    =  lambda1^m1 * lambda2^m2 * ((m2 + q)*d1 - m1*(d2 + q*alpha)).

Every L(m) image vanishes at the point (0, -q*alpha), so the polynomials
vanishing there form the distinguished codimension-1 submodule; its
membership test is a single exact evaluation.

A second, rejected placement of the q and alpha factors,

    (q*alpha + m2)*d1 - m1*(d2 + alpha),

is kept as :func:`action_on_one_alt`.  It fails the module axioms for
generic parameters (any alpha != 1 admits a witness pair) and is used as
a negative control by the verification suites.

Both placements have the one shape lambda^m * (A*d1 - m1*d2 + C), with
A = m2 + q and C = -m1*q*alpha for the adopted image and A = q*alpha + m2
and C = -m1*alpha for the variant.  :func:`generator_image` writes that
shape once, on integers; :func:`action_on_one` and
:func:`action_on_one_alt` call it, and the closure engine reads its
lambda-free form, which is affine in m, at m = (0,0), (1,0) and (0,1).

The module axioms reduce to the images: on L(m), L(n) the axiom
defect is -f(d - m - n) times the f-free commutator defect Delta(m, n)
of :func:`commutator_defect`, and every pair with D2 cancels
identically, so :func:`module_axiom_defect` sums that one closed form
over the term pairs of its two elements and never composes actions.

Restricting to the line Z*m with m1 != 0 gives a copy of the Witt
algebra; modulo the cross form X_m = m2*d1 - m1*d2, the action collapses
to the one-variable Witt module with parameters (lambda1^m1*lambda2^m2,
alpha).  :func:`witt_restrict` computes those parameters and checks the
reduction of each generator image; the tests hold the one-variable
action itself as an oracle.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from . import blockalg, poly
from .blockalg import AlgebraContext, AlgebraElement, _FrozenSlots
from .poly import IndexPair, Poly2, index_box, origin_first_key


class ParamSet(_FrozenSlots):
    """Exact parameters selecting one rank-1 module; q, lambda1, lambda2 nonzero."""

    _fields = ("q", "lambda1", "lambda2", "alpha")
    __slots__ = _fields + ("_context",)

    def __init__(self, q, lambda1, lambda2, alpha):
        for name, value in zip(self._fields, (q, lambda1, lambda2, alpha)):
            object.__setattr__(self, name, Fraction(value))
        # the context rejects q = 0; it is a slot but no field, so ==, hash,
        # the repr and pickling skip it
        object.__setattr__(self, "_context", AlgebraContext(self.q))
        if self.lambda1 == 0 or self.lambda2 == 0:
            raise ValueError("lambda1 and lambda2 must be nonzero")

    def context(self) -> AlgebraContext:
        return self._context

    def lam_ratio(self, m: IndexPair) -> tuple[int, int]:
        """lambda1^m1 * lambda2^m2 as integers (u, v) with v > 0, not
        necessarily in lowest terms; negative exponents included."""
        u = v = 1
        for lam, e in ((self.lambda1, m.m1), (self.lambda2, m.m2)):
            n, d = lam.numerator, lam.denominator
            if e < 0:
                n, d, e = d, n, -e
            u *= n ** e
            v *= d ** e
        return (-u, -v) if v < 0 else (u, v)

    def lam_pow(self, m: IndexPair) -> Fraction:
        """lambda1^m1 * lambda2^m2, negative exponents included."""
        return Fraction(*self.lam_ratio(m))

    def vanishing_point(self) -> tuple[Fraction, Fraction]:
        """The point (0, -q*alpha) cutting out the proper submodule."""
        return (Fraction(0), -self.q * self.alpha)

    def describe(self) -> str:
        return (f"q={self.q}, lambda=({self.lambda1},{self.lambda2}), "
                f"alpha={self.alpha}")


class WittParams(namedtuple("WittParams", "lam alpha")):
    """Parameters (lambda, alpha) of a rank-1 Witt module; lambda nonzero."""

    __slots__ = ()

    def __new__(cls, lam, alpha):
        self = super().__new__(cls, Fraction(lam), Fraction(alpha))
        if self.lam == 0:
            raise ValueError("lambda must be nonzero")
        return self


def generator_image(m: IndexPair, p: ParamSet, variant: bool = False) -> Poly2:
    """lambda^m * (A*d1 - m1*d2 + C), the image of 1 under L(m), on integers.

    A = m2 + q and C = -m1*q*alpha for the adopted placement; with
    ``variant``, A = q*alpha + m2 and C = -m1*alpha.  With q = qn/qd and
    alpha = an/ad, A, -m1 and C are integers over the one denominator
    qd*ad; they are multiplied by lambda^m = u/v (from
    :meth:`ParamSet.lam_ratio`), and one gcd pass (``Poly2._reduced``)
    puts the result in lowest terms.  At lambda1 = lambda2 = 1 the value
    is g_m / lambda^m for every lambda with the same q and alpha.
    """
    qn, qd = p.q.numerator, p.q.denominator
    an, ad = p.alpha.numerator, p.alpha.denominator
    den = qd * ad
    if variant:
        a, c = qn * an + m.m2 * den, -m.m1 * an * qd
    else:
        a, c = (m.m2 * qd + qn) * ad, -m.m1 * qn * an
    u, v = p.lam_ratio(m)
    nums = {key: n * u for key, n in (((1, 0), a), ((0, 1), -m.m1 * den), ((0, 0), c)) if n}
    return Poly2._reduced(nums, den * v)


def action_on_one(m: IndexPair, p: ParamSet) -> Poly2:
    """Image of the constant 1 under the generator L(m)."""
    return generator_image(m, p)


def action_on_one_alt(m: IndexPair, p: ParamSet) -> Poly2:
    """Rejected variant placement of q and alpha; negative control only."""
    return generator_image(m, p, variant=True)


def act(x: AlgebraElement, f: Poly2, p: ParamSet, image=action_on_one) -> Poly2:
    """Module action of an algebra element on a carrier polynomial.

    L(m) sends f to f(d - m) * g_m(d); the degree derivation acts by
    multiplication with d2.  ``image`` swaps in an alternative generator
    image (used only by the negative-control suites).
    """
    out = Poly2._of({}, 1)
    den = x._den
    for gen, n in x._nums.items():
        c = n if den == 1 else Fraction(n, den)
        if gen is blockalg.D2:
            out = out + c * (poly.D2 * f)
        else:
            out = out + c * (f.shifted(gen.m) * image(gen.m, p))
    return out


_AFFINE_KEYS = ((1, 0), (0, 1), (0, 0))


def commutator_defect(m: IndexPair, n: IndexPair, p: ParamSet,
                      image=action_on_one) -> Poly2:
    """Delta(m, n), the defect of the commutator identity

        g_n(d - m) * g_m(d) - g_m(d - n) * g_n(d) = c(m, n) * g_(m+n)(d).

    Contract for the adopted image: zero.  The images must have degree
    at most 1, as both placements of :func:`generator_image` do.  For
    g = a1*d1 + a2*d2 + c write <g, s> = a1*s1 + a2*s2; then
    g(d - s) = g(d) - <g, s>, so the products g_n*g_m cancel and the
    commutator factor on the left is

        (g_n - <g_n, m>)*g_m - (g_m - <g_m, n>)*g_n = <g_m, n>*g_n - <g_n, m>*g_m.

    With each image as integer numerators N over D, that is
    F/(D_m*D_n) with F = k_m*N_n - k_n*N_m for the integers
    k_m = D_m*<g_m, n> and k_n = D_n*<g_n, m>.  With q = a/b,
    C = b*c(m, n) from ``blockalg.structure_constant`` (read at call
    time) and g_(m+n) = N/D,

        Delta = (F*b*D - C*D_m*D_n*N) / (D_m*D_n*b*D),

    on integer numerators with one gcd pass; zero is ({}, 1).  Delta has
    degree at most 1 and does not depend on any carrier polynomial.
    """
    gm, gn, g = image(m, p), image(n, p), image(m + n, p)
    a, b = p.context().ratio
    km = gm._nums.get((1, 0), 0) * n.m1 + gm._nums.get((0, 1), 0) * n.m2
    kn = gn._nums.get((1, 0), 0) * m.m1 + gn._nums.get((0, 1), 0) * m.m2
    den = gm._den * gn._den
    keep, drop = b * g._den, blockalg.structure_constant(m, n, a, b) * den
    nums = {key: c for key in _AFFINE_KEYS
            if (c := (km * gn._nums.get(key, 0) - kn * gm._nums.get(key, 0)) * keep
                - drop * g._nums.get(key, 0))}
    return Poly2._reduced(nums, den * keep) if nums else Poly2._of(nums, 1)


def module_axiom_defect(x: AlgebraElement, y: AlgebraElement, f: Poly2,
                        p: ParamSet, image=action_on_one) -> Poly2:
    """act([x,y], f) - act(x, act(y, f)) + act(y, act(x, f)); contract: zero.

    The defect is bilinear in x and y, so it is the sum of the defects
    of the term pairs (a*L(m) or a*D2 from x, b*L(n) or b*D2 from y).

    On x = a*L(m), y = b*L(n) the defect is -a*b * f(d - m - n) *
    Delta(m, n), with Delta from :func:`commutator_defect`.  The shift
    S_s: h(d) -> h(d - s) is a substitution, so it is a ring
    homomorphism, and S_m(S_n(h)) = S_(m+n)(h).  Hence
    act(L(m), act(L(n), f)) = S_m(S_n(f)*g_n)*g_m = S_(m+n)(f)*S_m(g_n)*g_m,
    and with m and n swapped (m + n = n + m), act being linear in the element,

        act(x, act(y, f)) - act(y, act(x, f))
            = a*b * f(d-m-n) * [g_n(d-m)*g_m(d) - g_m(d-n)*g_n(d)].

    The bracket is [x, y] = a*b*c(m, n)*L(m + n), so
    act([x, y], f) = a*b*c(m, n) * f(d-m-n) * g_(m+n)(d), and the
    difference of the two is -a*b * f(d-m-n) * Delta(m, n).  This holds
    for any ``image``; the closed form of Delta needs images of degree
    at most 1.

    A pair with D2 has defect zero for every image and every f.  With
    x = a*D2, y = b*L(n): [D2, L(n)] = n2*L(n), and
    S_n(d2*h) = (d2 - n2)*S_n(h), so the three actions are
    a*b*f(d-n)*g_n times n2, -d2 and d2 - n2, which sum to zero.  The
    defect is antisymmetric in x and y, so (L(m), D2) cancels too; and
    [D2, D2] = 0 while both nested actions are a*b*d2^2*f.

    So the defect is the sum of -a*b * f(d-m-n) * Delta(m, n) over the
    pairs of L terms.  f is shifted and multiplied only for a nonzero
    Delta; for the adopted image no polynomial is touched at all.
    """
    den = x._den * y._den
    parts = []
    for gx, a in x._nums.items():
        if gx is blockalg.D2:
            continue
        for gy, b in y._nums.items():
            if gy is blockalg.D2:
                continue
            delta = commutator_defect(gx.m, gy.m, p, image)
            if delta:
                parts.append((-1, Fraction(a * b, den) * (f.shifted(gx.m + gy.m) * delta)))
    return Poly2._combination(parts)


def in_proper_submodule(f: Poly2, p: ParamSet) -> bool:
    """Membership in the unique proper submodule.

    That submodule is d1*M + (q*alpha + d2)*M, the vanishing ideal of
    the point (0, -q*alpha), so membership is one exact evaluation.
    """
    x1, x2 = p.vanishing_point()
    return f.eval_at(x1, x2) == 0


def witt_restrict(m: IndexPair, i_lo: int, i_hi: int,
                  p: ParamSet) -> tuple[WittParams, list[int]]:
    """Witt-line parameters for the line through m, with verification.

    Returns (lambda_m, alpha_m) = (lambda1^m1*lambda2^m2, alpha) and the
    list of i in [i_lo, i_hi] for which the reduction of the L(i*m)
    image modulo the cross form (substitute d2 -> (m2/m1)*d1) fails to
    equal q * lambda_m^i * (d1 - i*m1*alpha).  Empty list means every
    reduction matched exactly.
    """
    if m.m1 == 0:
        raise ValueError("Witt restriction needs m1 != 0")
    params = WittParams(lam=p.lam_pow(m), alpha=p.alpha)
    ratio = Fraction(m.m2, m.m1)
    failures = []
    for i in range(i_lo, i_hi + 1):
        g = action_on_one(i * m, p)
        reduced = poly.compose2(g, poly.D1, ratio * poly.D1)
        expected = p.q * params.lam ** i * (poly.D1 - i * m.m1 * params.alpha)
        if reduced != expected:
            failures.append(i)
    return params, failures


def iso_check(left: ParamSet, right: ParamSet) -> tuple[bool, IndexPair | None]:
    """Decide whether two parameter sets give isomorphic modules.

    Modules over the same algebra are isomorphic exactly when the
    parameters coincide: any isomorphism fixes 1 up to a nonzero scalar,
    and the generator images are degree-1 polynomials, so the scalar
    cancels and the images themselves must agree.  When the answer is
    no, also returns a witness index m whose generator images differ;
    a witness always exists within radius 1, so only that box is scanned.
    """
    if left.q != right.q:
        raise ValueError("parameter sets live over different algebras (q mismatch)")
    if left == right:
        return True, None
    for m in sorted(index_box(1), key=origin_first_key):
        if action_on_one(m, left) != action_on_one(m, right):
            return False, m
    raise AssertionError("distinct parameters admit a witness within radius 1")
