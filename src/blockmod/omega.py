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
defect is -f(d - m - n) times the f-free commutator defect Delta(m, n),
and every pair with D2 cancels identically.  Delta is one closed form
on the integer carriers of three affine images, the d1, d2 and constant
numerators and the denominator (:func:`_affine_delta`); the one carrier
conversion refuses an image of degree above 1, which that form cannot
read.  :func:`commutator_defect` builds the three images per call; the
module-axiom scan builds one :class:`ImageTable` per parameter set, the
carriers of every image of the radius-2R box, and the defect is
bilinear, so :func:`module_axiom_defect` takes two positions into the
table's generators and reads three carriers by position, as
:func:`blockalg.jacobi_defect` reads its constants; it never composes
actions.

Restricting to the line Z*m with m1 != 0 gives a copy of the Witt
algebra; modulo the cross form X_m = m2*d1 - m1*d2, the action collapses
to the one-variable Witt module with parameters (lambda1^m1*lambda2^m2,
alpha).  :func:`witt_restrict` computes those parameters and reduces each
generator image g, which is affine, in one step: g - g[d2]*(d2 - (m2/m1)*d1),
as d2 - (m2/m1)*d1 = -X_m/m1.  The tests hold the one-variable action and
the general substitution as oracles.
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


# the one zero the kernels return: no operation mutates a term map, so it is shared
_ZERO = Poly2._of({}, 1)


def act(x: AlgebraElement, f: Poly2, p: ParamSet) -> Poly2:
    """Module action of an algebra element on a carrier polynomial.

    L(m) sends f to f(d - m) * g_m(d); the degree derivation acts by
    multiplication with d2.
    """
    out = _ZERO
    den = x._den
    for gen, n in x._nums.items():
        c = n if den == 1 else Fraction(n, den)
        if gen is blockalg.D2:
            out = out + c * (poly.D2 * f)
        else:
            out = out + c * (f.shifted(gen.m) * action_on_one(gen.m, p))
    return out


_AFFINE_KEYS = ((1, 0), (0, 1), (0, 0))
_AFFINE_SUPPORT = frozenset(_AFFINE_KEYS)


def _affine_carrier(m: IndexPair, g: Poly2) -> tuple[int, int, int, int]:
    """The integer carrier (N[d1], N[d2], N[1], D) of an image g = N/D of
    L(m); an image of degree above 1, which the closed form of Delta
    cannot read, raises ValueError naming m and the degree."""
    nums = g._nums
    if not nums.keys() <= _AFFINE_SUPPORT:
        raise ValueError(f"the image of L{m} has degree {g.total_degree()}; "
                         "the commutator defect needs images of degree at most 1")
    return nums.get((1, 0), 0), nums.get((0, 1), 0), nums.get((0, 0), 0), g._den


def _affine_delta(m: IndexPair, n: IndexPair, gm, gn, g, c: int, b: int) -> Poly2:
    """Delta(m, n) from the carriers gm, gn, g (:func:`_affine_carrier`)
    of the images of L(m), L(n), L(m + n), with c = b*c(m, n) and q = a/b
    (``blockalg.structure_constant``); the one closed form of Delta.

    For g = a1*d1 + a2*d2 + c0 write <g, s> = a1*s1 + a2*s2; then
    g(d - s) = g(d) - <g, s>, so the products g_n*g_m cancel and the
    commutator factor on the left of Delta is

        (g_n - <g_n, m>)*g_m - (g_m - <g_m, n>)*g_n = <g_m, n>*g_n - <g_n, m>*g_m.

    With each image as integer numerators N over D, that is
    F/(D_m*D_n) with F = k_m*N_n - k_n*N_m for the integers
    k_m = D_m*<g_m, n> and k_n = D_n*<g_n, m>.  With g_(m+n) = N/D,

        Delta = (F*b*D - c*D_m*D_n*N) / (D_m*D_n*b*D),

    on integer numerators with one gcd pass; a zero Delta is ``_ZERO``.
    """
    a1, a2, a0, dm = gm
    b1, b2, b0, dn = gn
    s1, s2, s0, ds = g
    km = a1 * n[0] + a2 * n[1]          # D_m*<g_m, n>
    kn = b1 * m[0] + b2 * m[1]          # D_n*<g_n, m>
    den = dm * dn
    keep, drop = b * ds, c * den
    e1 = (km * b1 - kn * a1) * keep - drop * s1
    e2 = (km * b2 - kn * a2) * keep - drop * s2
    e0 = (km * b0 - kn * a0) * keep - drop * s0
    if not (e1 or e2 or e0):
        return _ZERO
    return Poly2._reduced({key: e for key, e in zip(_AFFINE_KEYS, (e1, e2, e0)) if e},
                          den * keep)


def commutator_defect(m: IndexPair, n: IndexPair, p: ParamSet,
                      image=action_on_one) -> Poly2:
    """Delta(m, n), the defect of the commutator identity

        g_n(d - m) * g_m(d) - g_m(d - n) * g_n(d) = c(m, n) * g_(m+n)(d).

    Contract for the adopted image: zero.  The three images are read as
    integer carriers, so an image of degree above 1 raises ValueError;
    both placements of :func:`generator_image` are affine.  Delta is
    :func:`_affine_delta` of those carriers, with c(m, n) from
    ``blockalg.structure_constant``, read at call time.  It has degree at
    most 1 and does not depend on any carrier polynomial.
    """
    a, b = p.context().ratio
    k = m + n
    return _affine_delta(m, n, _affine_carrier(m, image(m, p)), _affine_carrier(n, image(n, p)),
                         _affine_carrier(k, image(k, p)),
                         blockalg.structure_constant(m, n, a, b), b)


class ImageTable:
    """The integer carriers of the generator images that the module-axiom
    scan of the radius-R box reads, built once per parameter set and image
    and then only read; the twin of :class:`blockalg.ConstantTable`.

    ``generators`` is ``blockalg.box_generators(R)``: the L(m) of the box in
    box order, then D2.  ``images`` holds the carrier
    (:func:`_affine_carrier`) of image(v, p) for every v of the radius-2R
    box in row-major order, (4R+1)^2 entries, with one ``image`` call per
    v; an image of degree above 1 raises ValueError here.  ``ratio`` is
    q's integer pair (a, b).

    Index.  ``indices[i]`` is the index m of ``generators[i]`` and
    ``cols[i]`` its position lin(m) in ``images``; ``origin`` is lin(0).
    By :func:`blockalg.box_columns`, lin(m + n) = lin(m) + lin(n) - lin(0),
    so the image of L(m + n) is ``images[cols[i] + cols[j] - origin]``.

    D2 slot.  ``indices`` and ``cols`` hold None at D2's position, the
    last, so all three lists line up: position p names ``generators[p]``,
    and ``cols[p] is None`` exactly when that generator is D2, for every p
    that a list accepts as an index, negative ones included.
    """

    __slots__ = ("generators", "indices", "cols", "origin", "images", "ratio")

    def __init__(self, p: ParamSet, radius: int, image):
        cols, origin = blockalg.box_columns(radius)
        self.generators = blockalg.box_generators(radius)
        self.indices = [gen.m for gen in self.generators[:-1]] + [None]
        self.cols = [col + origin for col in cols] + [None]
        self.origin = origin
        self.images = [_affine_carrier(v, image(v, p)) for v in index_box(2 * radius)]
        self.ratio = p.context().ratio


def module_axiom_defect(i: int, j: int, f: Poly2, table: ImageTable) -> Poly2:
    """act([x,y], f) - act(x, act(y, f)) + act(y, act(x, f)) for the
    generators x, y at positions i, j of ``table.generators``, under the
    image the table was built with; contract: zero.

    The defect is bilinear, as the bracket is and act is linear in the
    element, so on sums of generators it is the sum of the generator
    defects weighted by the products of the coefficients: the axioms hold
    on all of B(q) and D2 once they hold on every generator pair.

    On x = L(m), y = L(n) the defect is -f(d - m - n) * Delta(m, n),
    with Delta from :func:`_affine_delta`.  The shift
    S_s: h(d) -> h(d - s) is a substitution, so it is a ring
    homomorphism, and S_m(S_n(h)) = S_(m+n)(h).  Hence
    act(L(m), act(L(n), f)) = S_m(S_n(f)*g_n)*g_m = S_(m+n)(f)*S_m(g_n)*g_m,
    and with m and n swapped (m + n = n + m),

        act(x, act(y, f)) - act(y, act(x, f))
            = f(d-m-n) * [g_n(d-m)*g_m(d) - g_m(d-n)*g_n(d)].

    The bracket is [x, y] = c(m, n)*L(m + n), so
    act([x, y], f) = c(m, n) * f(d-m-n) * g_(m+n)(d), and the difference
    of the two is -f(d-m-n) * Delta(m, n).  The kernel reads the three
    carriers from ``table`` (see :class:`ImageTable` for the index and the
    D2 slot) and c(m, n) from ``blockalg.structure_constant``, read at
    call time, so a patched constant enters every defect.

    A pair with D2 has defect zero for every image and every f.  With
    x = D2, y = L(n): [D2, L(n)] = n2*L(n), and
    S_n(d2*h) = (d2 - n2)*S_n(h), so the three actions are
    f(d-n)*g_n times n2, -d2 and d2 - n2, which sum to zero.  The defect
    is antisymmetric in x and y, so (L(m), D2) cancels too; and
    [D2, D2] = 0 while both nested actions are d2^2*f.

    f is shifted and multiplied only for a nonzero Delta; for the adopted
    image no polynomial is touched at all.  A zero defect is ``_ZERO``.
    A position that is no index raises ``TypeError``, and one out of range
    ``IndexError``.
    """
    cols = table.cols
    ci, cj = cols[i], cols[j]
    if ci is None or cj is None:
        return _ZERO
    m, n = table.indices[i], table.indices[j]
    images = table.images
    a, b = table.ratio
    delta = _affine_delta(m, n, images[ci], images[cj], images[ci + cj - table.origin],
                          blockalg.structure_constant(m, n, a, b), b)
    return delta if delta is _ZERO else -(f.shifted(m + n) * delta)


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
    image g modulo the cross form X_m = m2*d1 - m1*d2 fails to equal
    q * lambda_m^i * (d1 - i*m1*alpha).  Empty list means every
    reduction matched exactly.

    The reduction is g - g[d2] * (d2 - (m2/m1)*d1).  Proof: the subtracted
    term is -g[d2] * X_m/m1, so the reduction is congruent to g modulo X_m.
    For affine g = a1*d1 + a2*d2 + c, as every :func:`generator_image` is,
    it is (a1 + a2*m2/m1)*d1 + c, the substitution d2 -> (m2/m1)*d1.  A
    term of degree 2 survives the step, so an image that is not affine
    fails even where it is congruent to the expected one.
    """
    if m.m1 == 0:
        raise ValueError("Witt restriction needs m1 != 0")
    params = WittParams(lam=p.lam_pow(m), alpha=p.alpha)
    along = poly.D2 - Fraction(m.m2, m.m1) * poly.D1     # -X_m/m1
    failures = []
    for i in range(i_lo, i_hi + 1):
        g = action_on_one(i * m, p)
        reduced = g - g.coefficient(0, 1) * along
        expected = p.q * params.lam ** i * (poly.D1 - i * m.m1 * params.alpha)
        if reduced != expected:
            failures.append(i)
    return params, failures


# the radius-1 box, origin first: the order in which iso_check looks for a witness
ISO_INDICES = tuple(sorted(index_box(1), key=origin_first_key))


def iso_images(p: ParamSet) -> list[Poly2]:
    """The images of 1 under L(m) for the m of :data:`ISO_INDICES`, in order."""
    return [action_on_one(m, p) for m in ISO_INDICES]


def iso_check(left: ParamSet, right: ParamSet,
              images: tuple[list[Poly2], list[Poly2]] | None = None
              ) -> tuple[bool, IndexPair | None]:
    """Decide whether two parameter sets give isomorphic modules.

    Modules over the same algebra are isomorphic exactly when the
    parameters coincide: any isomorphism fixes 1 up to a nonzero scalar,
    and the generator images are degree-1 polynomials, so the scalar
    cancels and the images themselves must agree.  When the answer is
    no, also returns a witness index m whose generator images differ;
    a witness always exists within radius 1, so only that box is scanned,
    in the order of :data:`ISO_INDICES`.  ``images`` is the pair of
    :func:`iso_images` of left and right, for a caller that decides many
    pairs; when it is None they are built here.
    """
    if left.q != right.q:
        raise ValueError("parameter sets live over different algebras (q mismatch)")
    if left == right:
        return True, None
    if images is None:
        images = iso_images(left), iso_images(right)
    for m, g, h in zip(ISO_INDICES, *images):
        if g != h:
            return False, m
    raise AssertionError("distinct parameters admit a witness within radius 1")
