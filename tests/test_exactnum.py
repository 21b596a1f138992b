import random
from fractions import Fraction as F

import pytest

from singlip.errors import InputError
from singlip.exactnum import PlusContinuedFraction, cf_approximants, cf_expand


def test_cf_expand_paper_values():
    assert cf_expand(F(5, 3)).terms == (1, 1, 2)
    assert cf_expand(F(1, 2)).terms == (0, 2)
    assert cf_expand(F(1)).terms == (1,)


def test_cf_expand_rejects_negative():
    with pytest.raises(InputError):
        cf_expand(F(-1, 2))


def test_cf_value_round_trip():
    rng = random.Random(1)
    for _ in range(300):
        r = F(rng.randint(0, 400), rng.randint(1, 40))
        cf = cf_expand(r)
        assert cf.value() == r
        if len(cf.terms) >= 2:
            assert cf.terms[-1] >= 2
        assert all(a >= 1 for a in cf.terms[1:])


def test_prefix_approximants():
    assert cf_approximants(cf_expand(F(3, 2))) == (F(1), F(3, 2))
    assert cf_approximants(cf_expand(F(3))) == (F(3),)
    assert cf_approximants(PlusContinuedFraction((1, 1, 2))) == (F(1), F(2), F(5, 3))


def test_blowup_approximants_match_resolution_rates():
    # one value per point blow-up resolving a single characteristic exponent
    assert cf_expand(F(5, 3)).blowup_approximants() == (F(1), F(2), F(3, 2), F(5, 3))
    assert cf_expand(F(3, 2)).blowup_approximants() == (F(1), F(2), F(3, 2))
    assert cf_expand(F(3)).blowup_approximants() == (F(1), F(2), F(3))


def test_approximant_denominators_nondecreasing():
    rng = random.Random(2)
    for _ in range(300):
        r = F(rng.randint(1, 500), rng.randint(1, 48))
        approx = cf_approximants(cf_expand(r))
        dens = [a.denominator for a in approx]
        assert dens == sorted(dens)
        assert approx[-1] == r


def test_noncanonical_terms_rejected():
    with pytest.raises(InputError):
        PlusContinuedFraction((1, 1))  # final term must be >= 2
    with pytest.raises(InputError):
        PlusContinuedFraction((1, 0, 2))
    with pytest.raises(InputError):
        PlusContinuedFraction(())
