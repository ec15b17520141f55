import math
import random
from fractions import Fraction

import pytest

from partsel import Neighboring, PrivacyParams


def test_validation():
    with pytest.raises(ValueError):
        PrivacyParams(-0.1, 1e-5)
    with pytest.raises(ValueError):
        PrivacyParams(math.inf, 1e-5)
    with pytest.raises(ValueError):
        PrivacyParams(math.nan, 1e-5)
    with pytest.raises(ValueError):
        PrivacyParams(1.0, -1e-9)
    with pytest.raises(ValueError):
        PrivacyParams(1.0, 1.5)
    with pytest.raises(ValueError):
        PrivacyParams(1.0, 1e-5, "replace")  # must be the enum


def test_boundary_budgets_accepted():
    PrivacyParams(0.0, 0.0)
    PrivacyParams(0.0, 1.0)


def test_replace_model_halves_effective_budget():
    params = PrivacyParams(1.0, 1e-4, Neighboring.REPLACE)
    assert params.effective_epsilon == 0.5
    assert params.effective_delta == 5e-5
    plain = PrivacyParams(1.0, 1e-4)
    assert plain.effective_epsilon == 1.0
    assert plain.effective_delta == 1e-4


def test_split_divides_both_parameters():
    params = PrivacyParams(1.0, 1e-4, Neighboring.REPLACE)
    third = params.split(3)
    assert third.epsilon == pytest.approx(1.0 / 3.0)
    assert third.delta == pytest.approx(1e-4 / 3.0)
    assert third.neighboring is Neighboring.REPLACE
    assert params.split(1) == params


@pytest.mark.parametrize("x", [1e-5, 1.0])
@pytest.mark.parametrize("kappa", [3, 5])
def test_split_never_overspends(x, kappa):
    # 1e-5 / 3, 1e-5 / 5 and 1.0 / 5 round up, so kappa of them add up to more than x;
    # 1.0 / 3 rounds down.
    share = PrivacyParams(x, x).split(kappa)
    for part in (share.epsilon, share.delta):
        assert kappa * Fraction(part) <= Fraction(x)
        assert math.isclose(part, x / kappa, rel_tol=1e-15)


def test_split_never_overspends_random_budgets():
    rng = random.Random(4)
    for _ in range(2000):
        x = rng.random() * 10.0 ** rng.randint(-15, 1)
        kappa = rng.randint(2, 12)
        part = PrivacyParams(x, min(x, 1.0)).split(kappa).epsilon
        assert kappa * Fraction(part) <= Fraction(x)
        assert part == x / kappa or math.nextafter(part, math.inf) == x / kappa


def test_split_validation():
    params = PrivacyParams(1.0, 1e-4)
    with pytest.raises(ValueError):
        params.split(0)
    with pytest.raises(ValueError):
        params.split(2.5)
