"""Mechanical replay of the classification identities.

The canonical generator images g_m of the rank-1 modules satisfy a
small system of exact polynomial and scalar identities; this module
recomputes each one from scratch and returns the defect (left side
minus right side), which the verification suites require to vanish
identically over parameter and index sweeps.

Also here: the quadratic difference-equation lemma used to separate the
paired product into a cross-form part plus q^2*d1*(d1 + m1), with a
constructive solver and an exact checker that round-trip.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from typing import NamedTuple

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


class SeparatedForm(NamedTuple):
    """Split of the paired product in (X, d1) coordinates.

    ``x_part`` is what remains of G_m after removing q^2*d1*(d1 + m1),
    as a polynomial in the cross form X alone; ``residual`` is any
    leftover d1 dependence (zero on success) and ``cross_delta`` is the
    difference against the closed form
    -(X - q*m1*(alpha - 1)) * (X - q*m1*alpha) (zero on success).
    """

    x_part: Poly1
    residual: Poly2
    cross_delta: Poly1

    @property
    def ok(self) -> bool:
        return not self.residual and not self.cross_delta


def replay_separated_form(m: IndexPair, p: ParamSet) -> SeparatedForm:
    """Rewrite G_m in (X, d1), peel off q^2*d1*(d1 + m1), check the rest.

    Requires m1 != 0 so that (X, d1) is a coordinate system.
    """
    if m.m1 == 0:
        raise ValueError("separated form needs m1 != 0")
    G = paired_product(m, p)
    F = poly.rewrite_in_xm(G, m)                       # slots (X, d1)
    d1_out = Poly2({(0, 1): 1})
    remainder = F - p.q * p.q * d1_out * (d1_out + m.m1)
    x_only = {}
    residual = {}
    for (ex, ed), coeff in remainder.terms().items():
        if ed == 0:
            x_only[ex] = coeff
        else:
            residual[(ex, ed)] = coeff
    h = Poly1(x_only)
    u = p.q * m.m1
    closed = Poly1({2: -1, 1: u * (2 * p.alpha - 1), 0: -u * u * p.alpha * (p.alpha - 1)})
    return SeparatedForm(x_part=h, residual=Poly2(residual), cross_delta=h - closed)


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
