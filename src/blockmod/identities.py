"""Mechanical replay of the classification identities.

The canonical generator images g_m of the rank-1 modules satisfy a
small system of exact polynomial and scalar identities.  Each replay
returns one defect (left side minus right side), which the suites
require to vanish over parameter and index sweeps: a polynomial, or for
the coefficient identities three scalars, the coefficients of the one
commutator defect of :func:`omega.commutator_defect`.

Also here: the quadratic difference-equation lemma used to separate the
paired product into a cross-form part plus q^2*d1*(d1 + m1), with a
constructive solver and an exact checker that round-trip.
"""

from __future__ import annotations

from fractions import Fraction

from . import poly
from .omega import _ZERO, ParamSet, action_on_one, commutator_defect
from .poly import IndexPair, Poly1, Poly2


# --- difference-equation lemma ----------------------------------------------

def difference_solve(f_x: Poly1, a, b, c) -> Poly2:
    """Solve F(X,Y) - F(X,Y-c) = a*X + b*Y with prescribed X-part.

    Returns F = (f(X) + (2aX + bc)*Y + b*Y^2) / (2c), a Poly2 with slots
    (X, Y).  Requires c != 0.  A Poly1 stores t^k under (k, 0), so its
    integer carrier already is f(X) in slot X; being immutable, it is shared.
    """
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    if c == 0:
        raise ValueError("c must be nonzero")
    half_inv_c = Fraction(1, 2) / c
    return (Poly2._of(f_x._nums, f_x._den) * half_inv_c
            + Poly2({(1, 1): a / c, (0, 1): b / 2, (0, 2): b * half_inv_c}))


def difference_check(F: Poly2, a, b, c) -> bool:
    """True iff F(X,Y) - F(X,Y-c) = a*X + b*Y holds exactly.

    When true, the solution shape is forced: Y-degree at most 2, with
    Y^2 coefficient b/(2c) and Y coefficient (a/c)*X + b/2.  Proof: write
    F = sum_k F_k(X)*Y^k with top Y-degree n.  Y^k - (Y - c)^k is
    k*c*Y^(k-1) plus lower powers of Y, so for n >= 1 the difference has
    Y-degree exactly n - 1 (c != 0, and k*c*F_k != 0 over the rationals),
    and n - 1 <= 1 gives n <= 2.  With F = F_0 + F_1*Y + F_2*Y^2 the
    difference is 2c*F_2*Y + c*F_1 - c^2*F_2; matching b*Y gives
    F_2 = b/(2c), and matching a*X gives F_1 = (a/c)*X + c*F_2 =
    (a/c)*X + b/2.  :func:`difference_solve` builds exactly this shape.
    """
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    if c == 0:
        raise ValueError("c must be nonzero")
    # F._shift(0, c) is F(X, Y - c)
    return F - F._shift(0, c) == Poly2({(1, 0): a, (0, 1): b})


# --- identity replays ---------------------------------------------------------

def replay_commutator(m: IndexPair, n: IndexPair, p: ParamSet,
                      image=action_on_one) -> Poly2:
    """Defect of the bracket-compatibility identity on generator images:

        g_n(d - m) g_m(d) - g_m(d - n) g_n(d) = c(m, n) g_{m+n}(d)

    with c(m, n) the bracket structure constant.  Contract: zero.  The
    formula is :func:`omega.commutator_defect`'s.
    """
    return commutator_defect(m, n, p, image)


def paired_product(m: IndexPair, p: ParamSet, image=action_on_one) -> Poly2:
    """G_m(d) = g_m(d + m) * g_{-m}(d), with g_m = image(m, p)."""
    return image(m, p).shifted(-m) * image(-m, p)


def replay_pair_difference(m: IndexPair, p: ParamSet, G: Poly2 | None = None) -> Poly2:
    """Defect of G_m(d) - G_m(d - m) = 2*m1*q^2*d1.  Contract: zero.

    ``G`` is the paired product G_m when the caller has built it (the
    replay suite builds one per index for this replay and the separated
    form); when it is None, :func:`paired_product` builds it.
    """
    if G is None:
        G = paired_product(m, p)
    return G - G.shifted(m) - (2 * m.m1 * p.q * p.q) * poly.D1


def replay_separated_form(m: IndexPair, p: ParamSet, G: Poly2 | None = None) -> Poly2:
    """Defect of the separated form of the paired product,

        G_m - q^2*d1*(d1 + m1) = -(X - u*(alpha - 1)) * (X - u*alpha),

    with X = m2*d1 - m1*d2 and u = q*m1.  Contract: zero, for every m.
    It is zero exactly when the remainder R = G_m - q^2*d1*(d1 + m1) has
    no d1 residue and its X-part matches the closed form: if the defect is
    zero, R is the closed form, a polynomial in X alone; if R = h(X) with
    h the closed form, the defect is zero.  ``G`` is as in
    :func:`replay_pair_difference`.
    """
    if G is None:
        G = paired_product(m, p)
    u = p.q * m.m1
    X = m.m2 * poly.D1 - m.m1 * poly.D2
    return (G - p.q * p.q * poly.D1 * (poly.D1 + m.m1)
            + (X - u * (p.alpha - 1)) * (X - u * p.alpha))


# the three defects of a pair whose commutator defect is omega._ZERO;
# Fractions are immutable, so the one tuple is shared
_ZERO_DEFECTS = (Fraction(0),) * 3


def replay_coefficient_identities(m: IndexPair, n: IndexPair, p: ParamSet,
                                  image=action_on_one) -> tuple[Fraction, Fraction, Fraction]:
    """Defects of the three scalar identities: the d1, d2 and constant
    coefficients of the commutator identity, over lambda^(m+n).
    Contract: three zeros.  Both indices must be nonzero.

    With Delta = :func:`omega.commutator_defect`, they are
    (Delta[d1], -Delta[d2], -Delta[1]) / lambda^(m+n).  Proof: g_m is
    lambda^m * h_m with h_m = (m2 + q)*d1 - m1*d2 - q*m1*alpha, so with
    <g, s> = a1*s1 + a2*s2 for g = a1*d1 + a2*d2 + c, <g_m, n>/lambda^m is
    (m2 + q)*n1 - m1*n2 = q*n1 + G for G = n1*m2 - n2*m1, and
    <g_n, m>/lambda^n = q*m1 - G.
    As lambda^m * lambda^n = lambda^(m+n), Delta/lambda^(m+n) is
    (q*n1 + G)*h_n - (q*m1 - G)*h_m - c*h_(m+n) with c = c(m, n), whose
    d1, d2 and constant coefficients are

        (q*n1 + G)*(q + n2) - (q*m1 - G)*(q + m2) - c*(q + m2 + n2),
        -[(q*n1 + G)*n1 - (q*m1 - G)*m1 - c*(m1 + n1)],
        -q*alpha*[(q*n1 + G)*n1 - (q*m1 - G)*m1 - c*(m1 + n1)]:

    the paper's three defects at the canonical witness (linear coefficient
    1, constant 0, alpha_m = alpha), the last two negated.  ``image`` is
    as in :func:`replay_commutator`; a Delta that is ``omega._ZERO`` gives
    three ``Fraction(0)`` with no lambda power.
    """
    if m.is_zero() or n.is_zero():
        raise ValueError("indices must be nonzero")
    delta = commutator_defect(m, n, p, image)
    if delta is _ZERO:
        return _ZERO_DEFECTS
    lam = p.lam_pow(m + n)
    return (delta.coefficient(1, 0) / lam, -delta.coefficient(0, 1) / lam,
            -delta.coefficient(0, 0) / lam)
