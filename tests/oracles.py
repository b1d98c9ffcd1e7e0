"""Test oracles that the package itself never calls.

* The one-variable Witt module action, with its variable t, which the
  Witt-line restriction of :mod:`blockmod.omega` is checked against.
* The cross form X_m of a Witt line.
* The one-variable polynomial grammar over t, and the re-keying of a
  two-variable polynomial that uses one slot only, which it needs.
"""

from __future__ import annotations

from blockmod.omega import WittParams
from blockmod.poly import IndexPair, Poly1, Poly2, _PolyParser

T = Poly1({1: 1})


def witt_act(i: int, f: Poly1, w: WittParams) -> Poly1:
    """One-variable Witt module action: lambda^i * (t - i*alpha) * f(t - i)."""
    return w.lam ** i * (T - i * w.alpha) * f.shifted(i)


def cross_form(m: IndexPair) -> Poly2:
    """The linear form X_m = m2*d1 - m1*d2, vanishing on the line through m."""
    return Poly2({(1, 0): m.m2, (0, 1): -m.m1})


def to_single_variable(f: Poly2, keep: int) -> Poly1:
    """Collapse a Poly2 that only uses one slot into a Poly1.

    ``keep`` is 0 or 1, the slot whose exponents survive.  Raises if the
    other slot actually occurs.
    """
    if keep not in (0, 1):
        raise ValueError("keep must be 0 or 1")
    if any(mono[1 - keep] for mono in f._nums):
        raise ValueError(f"polynomial depends on slot {1 - keep}: {f}")
    return Poly1._of({mono[::-1] if keep else mono: n for mono, n in f._nums.items()}, f._den)


def parse_poly1(text: str) -> Poly1:
    """Parse an expression in the single variable t."""
    return to_single_variable(_PolyParser(text, {"t": (1, 0)}).parse(), keep=0)
