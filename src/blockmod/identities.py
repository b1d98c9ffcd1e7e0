"""Mechanical replay of the classification identities.

The canonical generator images g_m of the rank-1 modules satisfy a
small system of exact polynomial and scalar identities; this module
recomputes each one from scratch and returns one defect (left side
minus right side), which the verification suites require to vanish
identically over parameter and index sweeps: one polynomial per
polynomial identity and three scalars for the coefficient identities.

Also here: the quadratic difference-equation lemma used to separate the
paired product into a cross-form part plus q^2*d1*(d1 + m1), with a
constructive solver and an exact checker that round-trip.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from . import blockalg, poly
from .omega import ParamSet, action_on_one, commutator_defect
from .poly import IndexPair, Poly1, Poly2


class ClassificationWitness(namedtuple("ClassificationWitness", "m lambda_m alpha_m a_m b_m")):
    """Per-index data (lambda_m, alpha_m, a_m, b_m) entering the scalar identities."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.lambda_m == 0:
            raise ValueError("lambda_m must be nonzero")
        return self


def canonical_witness(m: IndexPair, p: ParamSet) -> ClassificationWitness:
    """The witness realized by the canonical modules: geometric lambda,
    constant alpha, unit linear coefficient, zero constant."""
    return ClassificationWitness(m=m, lambda_m=p.lam_pow(m), alpha_m=p.alpha,
                                 a_m=Fraction(1), b_m=Fraction(0))


# --- difference-equation lemma ----------------------------------------------

def difference_solve(f_x: Poly1, a, b, c) -> Poly2:
    """Solve F(X,Y) - F(X,Y-c) = a*X + b*Y with prescribed X-part.

    Returns F = (f(X) + (2aX + bc)*Y + b*Y^2) / (2c), a Poly2 with slots
    (X, Y).  Requires c != 0.
    """
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    if c == 0:
        raise ValueError("c must be nonzero")
    half_inv_c = Fraction(1, 2) / c
    return (poly.from_single_variable(f_x, slot=0) * half_inv_c
            + Poly2({(1, 1): a / c, (0, 1): b / 2, (0, 2): b * half_inv_c}))


def difference_check(F: Poly2, a, b, c) -> bool:
    """True iff F(X,Y) - F(X,Y-c) = a*X + b*Y holds exactly.

    When true, the solution shape is forced: Y-degree at most 2 with
    Y^2 coefficient b/(2c) and Y coefficient (a/c)*X + b/2.  That is
    re-derived here as an internal consistency assertion.
    """
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    if c == 0:
        raise ValueError("c must be nonzero")
    X = Poly2({(1, 0): 1})
    Y = Poly2({(0, 1): 1})
    difference = F - F._shift(0, c)     # F(X, Y - c)
    if difference != a * X + b * Y:
        return False
    y_degree = max((e2 for (_, e2) in F.terms()), default=0)
    y2_part = Poly2({(e1, 0): coeff for (e1, e2), coeff in F.terms().items() if e2 == 2})
    y1_part = Poly2({(e1, 0): coeff for (e1, e2), coeff in F.terms().items() if e2 == 1})
    shape_ok = (y_degree <= 2
                and y2_part == Poly2.const(b / (2 * c))
                and y1_part == (a / c) * X + Poly2.const(b / 2))
    if not shape_ok:
        raise AssertionError("difference identity held but the forced shape did not")
    return True


# --- identity replays ---------------------------------------------------------

def _struct_const(m: IndexPair, n: IndexPair, q: Fraction) -> Fraction:
    """The bracket structure constant c(m, n) at q, from the integer form."""
    return Fraction(blockalg.structure_constant(m, n, q.numerator, q.denominator),
                    q.denominator)


def replay_commutator(m: IndexPair, n: IndexPair, p: ParamSet,
                      image=action_on_one) -> Poly2:
    """Defect of the bracket-compatibility identity on generator images:

        g_n(d - m) g_m(d) - g_m(d - n) g_n(d) = c(m, n) g_{m+n}(d)

    with c(m, n) the bracket structure constant.  Contract: zero.  The
    formula is :func:`omega.commutator_defect`'s.
    """
    return commutator_defect(m, n, p, image)


def paired_product(m: IndexPair, p: ParamSet) -> Poly2:
    """G_m(d) = g_m(d + m) * g_{-m}(d)."""
    return action_on_one(m, p).shifted(-m) * action_on_one(-m, p)


def replay_pair_difference(m: IndexPair, p: ParamSet) -> Poly2:
    """Defect of G_m(d) - G_m(d - m) = 2*m1*q^2*d1.  Contract: zero."""
    G = paired_product(m, p)
    return G - G.shifted(m) - (2 * m.m1 * p.q * p.q) * poly.D1


def replay_separated_form(m: IndexPair, p: ParamSet) -> Poly2:
    """Defect of the separated form of the paired product,

        G_m - q^2*d1*(d1 + m1) = -(X - u*(alpha - 1)) * (X - u*alpha),

    with X = m2*d1 - m1*d2 and u = q*m1.  Contract: zero, for every m.
    It is zero exactly when the remainder R = G_m - q^2*d1*(d1 + m1) has
    no d1 residue and its X-part matches the closed form: if the defect is
    zero, R is the closed form, a polynomial in X alone; if R = h(X) with
    h the closed form, the defect is zero.
    """
    u = p.q * m.m1
    X = m.m2 * poly.D1 - m.m1 * poly.D2
    return (paired_product(m, p) - p.q * p.q * poly.D1 * (poly.D1 + m.m1)
            + (X - u * (p.alpha - 1)) * (X - u * p.alpha))


def replay_coefficient_identities(m: IndexPair, n: IndexPair,
                                  p: ParamSet) -> tuple[Fraction, Fraction, Fraction]:
    """Defects of the three scalar identities tying the canonical witness
    data together: the d1 coefficient, the d2 coefficient, and the
    constant term of the commutator identity.  Contract: three zeros.
    Both indices must be nonzero.
    """
    if m.is_zero() or n.is_zero():
        raise ValueError("indices must be nonzero")
    w_m = canonical_witness(m, p)
    w_n = canonical_witness(n, p)
    w_mn = canonical_witness(m + n, p)
    q = p.q
    gamma_nm = n.dot(m.perp())       # (n | m-perp)
    gamma_mn = m.dot(n.perp())       # (m | n-perp) = -gamma_nm
    beta = _struct_const(m, n, q)
    lam_ratio = w_mn.lambda_m / (w_m.lambda_m * w_n.lambda_m)

    d1_defect = ((q + w_n.a_m * n.m2) * (q * n.m1 + w_m.a_m * gamma_nm)
                 - (q + w_m.a_m * m.m2) * (q * m.m1 + w_n.a_m * gamma_mn)
                 - lam_ratio * beta * (q + w_mn.a_m * (m.m2 + n.m2)))
    d2_defect = (w_n.a_m * n.m1 * (q * n.m1 + w_m.a_m * gamma_nm)
                 - w_m.a_m * m.m1 * (q * m.m1 + w_n.a_m * gamma_mn)
                 - lam_ratio * beta * (m.m1 + n.m1) * w_mn.a_m)
    const_defect = ((q * n.m1 + w_m.a_m * gamma_nm) * (q * n.m1 * w_n.alpha_m - w_n.b_m)
                    - (q * m.m1 + w_n.a_m * gamma_mn) * (q * m.m1 * w_m.alpha_m - w_m.b_m)
                    - lam_ratio * beta * (q * (m.m1 + n.m1) * w_mn.alpha_m - w_mn.b_m))
    return (d1_defect, d2_defect, const_defect)
