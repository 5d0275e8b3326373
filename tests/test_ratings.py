import random

import pytest
from hypothesis import given, strategies as st

from caresim import RatingLedger


def ledger_with(*entries):
    ledger = RatingLedger()
    for doctor, patient, rating in entries:
        ledger.add_rating(doctor, patient, rating)
    return ledger


def test_single_entry_mean():
    ledger = ledger_with((1, 1, 5))
    assert ledger.mean_rating(1) == 5


def test_rerating_overwrites_and_recent_feedback_follows_arrival():
    ledger = ledger_with((1, 1, 2), (1, 2, 1), (1, 1, 4))
    assert ledger.rating_by_patient(1, 1) == 4
    assert ledger.ratings_for(1) == {1: 4, 2: 1}
    assert ledger.mean_rating(1) == pytest.approx(2.5, abs=1e-12)
    assert ledger.recent_feedback(1) == 4
    ledger.add_rating(1, 2, 3)
    assert ledger.recent_feedback(1) == 3


def test_out_of_range_ratings_rejected():
    ledger = RatingLedger()
    with pytest.raises(ValueError):
        ledger.add_rating(1, 1, 6.0)
    with pytest.raises(ValueError):
        ledger.add_rating(1, 1, -0.1)


def test_mean_rating_cases():
    assert RatingLedger().mean_rating(1) == 0
    assert ledger_with((1, 1, 5), (1, 2, 3)).mean_rating(1) == pytest.approx(4, abs=1e-9)
    assert ledger_with((1, 1, 5)).mean_rating(1) == 5


def test_rating_by_patient_absent_pairs():
    ledger = ledger_with((1, 1, 3))
    assert ledger.rating_by_patient(1, 1) == 3
    assert ledger.rating_by_patient(1, 2) is None
    assert ledger.rating_by_patient(2, 1) is None


def test_recent_feedback_tracks_log_order():
    assert ledger_with((1, 1, 5), (1, 2, 2)).recent_feedback(1) == 2
    assert RatingLedger().recent_feedback(1) == 3
    assert ledger_with((1, 1, 1)).recent_feedback(1) == 1


def test_recent_feedback_is_per_doctor():
    ledger = ledger_with((1, 1, 5), (2, 1, 2))
    assert ledger.recent_feedback(1) == 5
    assert ledger.recent_feedback(2) == 2


def test_mean_weighted_ratings_hand_cases():
    ledger = ledger_with((1, 1, 5), (1, 2, 3))
    assert ledger.mean_weighted_ratings(1, [0.0, 0.5, 0.5]) == pytest.approx(4.0, abs=1e-9)
    assert ledger.mean_weighted_ratings(1, [0.0, 0.0, 0.0]) == 0
    sparse = ledger_with((1, 7, 4))
    assert sparse.mean_weighted_ratings(1, [0.0] * 7 + [0.2]) == pytest.approx(4.0, abs=1e-9)
    assert RatingLedger().mean_weighted_ratings(1, [1.0, 1.0]) == 0


def test_weighted_valuation_hand_cases():
    ledger = ledger_with((1, 1, 5), (1, 2, 3))
    assert ledger.weighted_valuation(1, [0.0, 0.5, 0.5]) == pytest.approx(4.0, abs=1e-9)
    assert ledger.weighted_valuation(1, [0.0, 0.0, 0.0]) == 0
    assert RatingLedger().weighted_valuation(1, []) == 0


def test_weighted_valuation_is_a_left_fold_on_every_interpreter():
    # sum() of floats is compensated since CPython 3.12 and reads
    # 28.939155935105294 on these terms; adding them one by one in rating
    # order gives the same value on every interpreter.
    rng = random.Random(5)
    ratings = [round(rng.uniform(0, 5), 1) for _ in range(21)]
    ties = [rng.random() for _ in range(21)]
    ledger = ledger_with(*((0, patient, rating) for patient, rating in enumerate(ratings)))
    assert ledger.weighted_valuation(0, ties) == 28.93915593510529


ratings_maps = st.dictionaries(
    st.integers(min_value=0, max_value=30),
    st.floats(min_value=0, max_value=5, allow_nan=False),
    min_size=1,
    max_size=12,
)


@given(ratings_maps, st.floats(min_value=0.01, max_value=1.0, allow_nan=False))
def test_equal_strengths_reduce_to_plain_mean(ratings, strength):
    ledger = RatingLedger()
    for patient, rating in ratings.items():
        ledger.add_rating(0, patient, rating)
    ties = [strength] * 31
    assert abs(ledger.mean_weighted_ratings(0, ties) - ledger.mean_rating(0)) <= 1e-12


@given(ratings_maps)
def test_weighted_valuation_linear_in_each_strength(ratings):
    ledger = RatingLedger()
    for patient, rating in ratings.items():
        ledger.add_rating(0, patient, rating)
    target = next(iter(ratings))
    base = [0.5] * 31
    bumped = list(base)
    bumped[target] = 0.75
    delta = ledger.weighted_valuation(0, bumped) - ledger.weighted_valuation(0, base)
    assert delta == pytest.approx(0.25 * ratings[target], abs=1e-9)


@given(ratings_maps, st.lists(st.floats(0, 1, allow_nan=False), min_size=31, max_size=31))
def test_aggregate_bounds(ratings, ties):
    ledger = RatingLedger()
    for patient, rating in ratings.items():
        ledger.add_rating(0, patient, rating)
    assert 0 <= ledger.mean_rating(0) <= 5
    assert 0 <= ledger.mean_weighted_ratings(0, ties) <= 5
    assert 0 <= ledger.weighted_valuation(0, ties) <= 5 * len(ratings)
