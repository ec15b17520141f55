"""The value classes' contract: equality, hash, repr, immutability, copies and checks.

PrivacyParams, OptPrimitive, TsgdParams, LaplacePrimitive and GaussianPrimitive
compare by type and value, print the repr a frozen dataclass of the same
fields printed, hold their values in slots, refuse assignment and deletion,
and rebuild their copies through the constructor.
"""

import copy
import math
import pickle

import pytest

from partsel import Neighboring, OptPrimitive, PrivacyParams
from partsel.baselines import GaussianPrimitive, LaplacePrimitive
from partsel.truncated_geometric import TsgdParams, tsgd_cutoff, tsgd_params

BUDGET = PrivacyParams(1.0, 1e-5)


def _tsgd_with_bounds() -> TsgdParams:
    # A TsgdParams whose lazy bounds hold an entry computed on use, which no field or copy carries.
    t = tsgd_params(BUDGET)
    tsgd_cutoff(t, 3)
    return t


# name: (make, a different value of the same class, the fields == and repr see)
RECORDS = {
    "PrivacyParams": (
        lambda: PrivacyParams(1.0, 1e-5),
        lambda: PrivacyParams(1.0, 1e-5, Neighboring.REPLACE),
        ("epsilon", "delta", "neighboring"),
    ),
    "OptPrimitive": (
        lambda: OptPrimitive(BUDGET),
        lambda: OptPrimitive(PrivacyParams(1.0, 1e-6)),
        ("params", "n1", "n2", "pi_n1"),
    ),
    "TsgdParams": (_tsgd_with_bounds, lambda: TsgdParams(0.5, 3), ("p", "k", "delta", "c")),
    "LaplacePrimitive": (
        lambda: LaplacePrimitive(1.0, 1e-5),
        lambda: LaplacePrimitive(2.0, 1e-5),
        ("epsilon", "delta", "threshold"),
    ),
    "GaussianPrimitive": (
        lambda: GaussianPrimitive(1.0, 5e-06, 5e-06, 5.5, 26.0, 2),
        lambda: GaussianPrimitive(1.0, 5e-06, 5e-06, 5.5, 26.0, 3),
        ("epsilon", "delta_noise", "delta_threshold", "sigma", "threshold", "kappa"),
    ),
}

records = pytest.mark.parametrize("name", sorted(RECORDS))


@records
def test_equality_is_by_type_and_value_and_hash_agrees(name):
    make, other, fields = RECORDS[name]
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert a != other()
    values = tuple(getattr(a, field) for field in fields)
    assert a != values  # no tuple semantics
    assert a.__eq__(values) is NotImplemented


def test_equal_values_of_different_classes_differ():
    assert LaplacePrimitive(1.0, 0.5) != PrivacyParams(1.0, 0.5)


@pytest.mark.parametrize(
    ("value", "text"),
    [
        (
            PrivacyParams(1.0, 1e-5),
            "PrivacyParams(epsilon=1.0, delta=1e-05, neighboring=<Neighboring.ADD_REMOVE: 'add-remove'>)",
        ),
        (
            PrivacyParams(0.5, 0.25, Neighboring.REPLACE),
            "PrivacyParams(epsilon=0.5, delta=0.25, neighboring=<Neighboring.REPLACE: 'replace'>)",
        ),
        (
            OptPrimitive(PrivacyParams(0.0, 1e-5)),
            "OptPrimitive(params=PrivacyParams(epsilon=0.0, delta=1e-05, "
            "neighboring=<Neighboring.ADD_REMOVE: 'add-remove'>), n1=0, n2=0, pi_n1=0.0)",
        ),
        (TsgdParams(0.5, 3), "TsgdParams(p=0.5, k=3, delta=1.0, c=0.36363636363636365)"),
        (LaplacePrimitive(1.0, 0.5), "LaplacePrimitive(epsilon=1.0, delta=0.5, threshold=1.0)"),
        (
            GaussianPrimitive(1.0, 5e-06, 5e-06, 5.5, 26.0, 2),
            "GaussianPrimitive(epsilon=1.0, delta_noise=5e-06, delta_threshold=5e-06, "
            "sigma=5.5, threshold=26.0, kappa=2)",
        ),
    ],
    ids=["privacy-params", "replace", "opt-primitive", "tsgd-params", "laplace", "gaussian"],
)
def test_repr_is_the_frozen_dataclass_repr(value, text):
    assert repr(value) == text


def test_derived_fields_are_in_the_repr():
    prim = OptPrimitive(BUDGET)
    assert repr(prim) == f"OptPrimitive(params={BUDGET!r}, n1=11, n2=22, pi_n1={prim.pi_n1!r})"
    t = tsgd_params(BUDGET)
    assert repr(t) == f"TsgdParams(p={t.p!r}, k=11, delta=1e-05, c={t.c!r})"


@records
def test_attributes_cannot_be_assigned_or_deleted(name):
    make, _, fields = RECORDS[name]
    value = make()
    before = repr(value)
    for attr in (*fields, "_eps", "_bounds", "unknown"):
        with pytest.raises(AttributeError):
            setattr(value, attr, 1)
        with pytest.raises(AttributeError):
            delattr(value, attr)
    assert repr(value) == before


@records
def test_instances_have_no_dict(name):
    value = RECORDS[name][0]()
    assert not hasattr(value, "__dict__")


@records
@pytest.mark.parametrize(
    "clone",
    [copy.copy, copy.deepcopy, *(lambda v, p=p: pickle.loads(pickle.dumps(v, p)) for p in (0, 2, 5))],
    ids=["copy", "deepcopy", "pickle-0", "pickle-2", "pickle-5"],
)
def test_copies_are_equal(name, clone):
    value = RECORDS[name][0]()
    copied = clone(value)
    assert type(copied) is type(value)
    assert copied == value and hash(copied) == hash(value) and repr(copied) == repr(value)


def test_copies_keep_working():
    prim = pickle.loads(pickle.dumps(OptPrimitive(BUDGET)))
    assert (prim._eps, prim._delta, prim._em1) == (1.0, 1e-5, math.expm1(1.0))
    t = copy.deepcopy(_tsgd_with_bounds())
    assert tsgd_cutoff(t, 3) == tsgd_cutoff(tsgd_params(BUDGET), 3)


# With test_params.py::test_validation, test_primitive.py's
# test_built_from_its_budget_alone, test_truncated_geometric.py's
# test_direct_construction_validates and test_baselines.py's
# TestLaplace::test_validation: every value a constructor refused as a dataclass.
@pytest.mark.parametrize(
    ("build", "error"),
    [
        (lambda: PrivacyParams(1.0, math.nan), ValueError),
        (lambda: PrivacyParams(1.0), TypeError),
        (lambda: OptPrimitive(), TypeError),
        (lambda: TsgdParams(1.0, 3), ValueError),
        (lambda: TsgdParams(math.nan, 3), ValueError),
        (lambda: TsgdParams(0.5, 2.5), ValueError),
        (lambda: TsgdParams(0.5, True), ValueError),
        (lambda: TsgdParams(0.5, 3, 0.0), ValueError),
        (lambda: TsgdParams(0.5, 3, 1.5), ValueError),
        (lambda: TsgdParams(0.5, 3, math.nan), ValueError),
        (lambda: TsgdParams(p=0.5, k=3, c=1.0), TypeError),
        (lambda: LaplacePrimitive(math.nan, 1e-5), ValueError),
        (lambda: LaplacePrimitive(1.0, 1.0), ValueError),
        (lambda: LaplacePrimitive(1.0, math.nan), ValueError),
        (lambda: LaplacePrimitive(1.0, 1e-5, 12.0), TypeError),
        (lambda: GaussianPrimitive(1.0, 5e-06, 5e-06, 5.5, 26.0), TypeError),
    ],
)
def test_constructors_reject_what_they_rejected(build, error):
    with pytest.raises(error):
        build()


def test_keyword_construction():
    assert PrivacyParams(epsilon=1.0, delta=1e-5, neighboring=Neighboring.ADD_REMOVE) == BUDGET
    assert OptPrimitive(params=BUDGET) == OptPrimitive.from_params(BUDGET)
    assert TsgdParams(p=0.5, k=3, delta=1.0) == TsgdParams(0.5, 3)
    assert LaplacePrimitive(epsilon=1.0, delta=1e-5) == LaplacePrimitive.from_params(BUDGET)
