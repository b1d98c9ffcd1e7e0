"""Record semantics of the package's immutable value types."""

import copy
import pickle
from fractions import Fraction

import pytest

from blockmod.blockalg import AlgebraContext
from blockmod.cli import RunConfig
from blockmod.closure import ClosureResult, ClosureTag
from blockmod.omega import ParamSet, WittParams
from blockmod.suites import Check


def records():
    """One instance of each record, paired with the name of one of its fields."""
    params = ParamSet(Fraction(5, 7), 2, 3, Fraction(1, 2))
    return [
        (params, "alpha"),
        (AlgebraContext(Fraction(5, 7)), "q"),
        (WittParams(2, 3), "lam"),
        (Check("name", "anchor", "pass"), "status"),
        (ClosureResult(ClosureTag.FULL, 10, "diagnostics"), "dimension"),
        (RunConfig(params, 3, 5, 1, 10), "degree_bound"),
    ]


@pytest.mark.parametrize("record, field", records())
def test_record_fields_cannot_be_assigned(record, field):
    value = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, value)
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert getattr(record, field) == value


def test_derived_values_cannot_go_stale():
    # the context of a parameter set and q's integer pair are derived from
    # q; neither can be replaced after construction
    p = ParamSet(Fraction(5, 7), 2, 3, Fraction(1, 2))
    with pytest.raises(AttributeError):
        p._context = AlgebraContext(3)
    with pytest.raises(AttributeError):
        p.q = Fraction(3)
    assert p.context().q == p.q == Fraction(5, 7)
    ctx = AlgebraContext(Fraction(5, 7))
    with pytest.raises(AttributeError):
        ctx.ratio = (3, 1)
    assert ctx.ratio == (5, 7)


def test_param_set_and_context_compare_by_fields():
    p = ParamSet(Fraction(5, 7), 2, 3, Fraction(1, 2))
    same = ParamSet(Fraction(10, 14), Fraction(2), 3, Fraction(2, 4))
    assert p == same and hash(p) == hash(same) and not p != same
    assert p != ParamSet(Fraction(-5, 7), 2, 3, Fraction(1, 2))
    assert p != (p.q, p.lambda1, p.lambda2, p.alpha)
    assert len({p, same, ParamSet(3, 2, 3, Fraction(1, 2))}) == 2

    ctx = AlgebraContext(Fraction(5, 7))
    assert ctx == AlgebraContext(Fraction(10, 14)) and hash(ctx) == hash(AlgebraContext(Fraction(10, 14)))
    assert ctx != AlgebraContext(Fraction(-5, 7))
    assert ctx != (ctx.q,) and ctx != ctx.q
    assert ctx != p and p != ctx


@pytest.mark.parametrize("record, field", records())
def test_records_survive_pickle_and_deepcopy(record, field):
    for twin in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
        assert twin == record and hash(twin) == hash(record) and repr(twin) == repr(record)


def test_copies_rebuild_derived_values():
    p = ParamSet(Fraction(-5, 7), 2, 3, Fraction(1, 2))
    for twin in (pickle.loads(pickle.dumps(p)), copy.deepcopy(p)):
        assert twin.context() == p.context() and twin.context().ratio == (-5, 7)
