import pytest
from hypothesis import given, settings, strategies as st

from caresim import Credential, RatingLedger, RngStream
from caresim.classical import (
    choose_doctor,
    health_score,
    judge_doctor,
    rate_doctor,
    receive_treatment,
    treat_patient,
    treatment_effectiveness,
    update_health_level,
    upgrade_credential,
)
from support import exhaustive_choose, make_doctor, make_patient


def test_effectiveness_hand_cases():
    doctor = make_doctor(credential=Credential.HIGH, empathy=0.7, technological_resource_constraint=0.5)
    assert treatment_effectiveness(doctor, 0.0) == pytest.approx(0.5, abs=1e-9)
    doctor.technological_resource_constraint = 0.0
    assert treatment_effectiveness(doctor, 0.0) == pytest.approx(0.7, abs=1e-9)
    zero = make_doctor(credential=Credential.LOW, empathy=0.0, technological_resource_constraint=1.0)
    assert treatment_effectiveness(zero, 0.0) == 0.0


@given(
    st.sampled_from(list(Credential)),
    st.floats(min_value=0, max_value=1, allow_nan=False),
    st.floats(min_value=0, max_value=1, allow_nan=False),
)
def test_effectiveness_always_capped(credential, empathy, trc):
    doctor = make_doctor(credential=credential, empathy=empathy, technological_resource_constraint=trc)
    assert 0.0 <= treatment_effectiveness(doctor, 0.0) <= 0.7


def test_upgrade_boundary_and_single_step():
    doctor = make_doctor(credential=Credential.LOW, research_ability=0.5, experience=50)
    upgrade_credential(doctor)
    assert doctor.credential is Credential.MEDIUM

    overqualified = make_doctor(credential=Credential.LOW, research_ability=0.9, experience=100)
    upgrade_credential(overqualified)
    assert overqualified.credential is Credential.MEDIUM

    top = make_doctor(credential=Credential.HIGH, research_ability=1.0, experience=999)
    upgrade_credential(top)
    assert top.credential is Credential.HIGH


def test_upgrade_requires_both_thresholds():
    doctor = make_doctor(credential=Credential.LOW, research_ability=0.49, experience=500)
    upgrade_credential(doctor)
    assert doctor.credential is Credential.LOW
    doctor = make_doctor(credential=Credential.MEDIUM, research_ability=0.79, experience=500)
    upgrade_credential(doctor)
    assert doctor.credential is Credential.MEDIUM


@settings(max_examples=50)
@given(st.integers(min_value=0, max_value=2**31))
def test_credential_monotone_under_treatments(seed):
    rng = RngStream(seed)
    doctor = make_doctor(
        credential=rng.choice(list(Credential)),
        research_ability=rng.uniform(0, 1),
    )
    order = list(Credential)
    rank = order.index(doctor.credential)
    for _ in range(120):
        treat_patient(doctor, 0.0)
        assert order.index(doctor.credential) >= rank
        rank = order.index(doctor.credential)


def test_treat_gains_experience():
    doctor = make_doctor()
    effectiveness = treat_patient(doctor, 0.0)
    assert effectiveness == pytest.approx(treatment_effectiveness(doctor, 0.0), abs=1e-12)
    assert doctor.experience == 1


def test_fiftieth_treatment_upgrades_after_the_call():
    doctor = make_doctor(credential=Credential.LOW, research_ability=0.6, experience=49,
                         empathy=0.5, technological_resource_constraint=0.4)
    effectiveness = treat_patient(doctor, 0.0)
    # The treatment itself still used the low-credential factor.
    assert effectiveness == pytest.approx((0.1 + 0.5) * 0.6, abs=1e-9)
    assert doctor.experience == 50
    assert doctor.credential is Credential.MEDIUM


def test_judge_hand_cases():
    ledger = RatingLedger()
    ledger.add_rating(0, 5, 3)
    ledger.add_rating(0, 1, 4)
    ledger.add_rating(0, 2, 2)
    patient = make_patient(1)
    doctor = make_doctor(0, credential=Credential.MEDIUM)
    assert judge_doctor(patient, doctor, ledger) == pytest.approx((0.5 + 3 + 4) / 3, abs=1e-9)

    lone = make_patient(9, cred_weight=1.0, mean_rating_weight=0.0, past_rating_weight=0.0)
    low = make_doctor(3, credential=Credential.LOW)
    assert judge_doctor(lone, low, RatingLedger()) == pytest.approx(0.1, abs=1e-9)

    past_only = make_patient(9, cred_weight=0.0, mean_rating_weight=0.0, past_rating_weight=1.0)
    rated = RatingLedger()
    rated.add_rating(3, 1, 5)
    assert judge_doctor(past_only, low, rated) == 0.0


def free_map(doctors, busy=()):
    """The round's map of free doctors: every doctor not in ``busy``, by id."""
    return {d.doctor_id: d for d in doctors if d.doctor_id not in busy}


def test_choose_none_when_all_busy():
    patient = make_patient(health_level=0.4)
    assert choose_doctor(patient, {}, RatingLedger(), judge_doctor) is None


def test_choose_none_when_healthy():
    patient = make_patient(health_level=0.9)
    doctors = [make_doctor(0)]
    assert choose_doctor(patient, free_map(doctors), RatingLedger(), judge_doctor) is None


def test_loyalty_overrides_judgment():
    patient = make_patient(1, health_level=0.4, last_doctor_id=2)
    ledger = RatingLedger()
    ledger.add_rating(2, 1, 5)
    mediocre = make_doctor(2, credential=Credential.LOW, empathy=0.2)
    star = make_doctor(0, credential=Credential.HIGH, empathy=0.7)
    ledger.add_rating(0, 9, 5)
    assert choose_doctor(patient, free_map([star, mediocre]), ledger, judge_doctor) == 2


def test_loyalty_requires_exact_five_and_free_doctor():
    # Cred-only weights isolate the loyalty rule from judgment effects.
    patient = make_patient(1, health_level=0.4, last_doctor_id=2,
                           cred_weight=1.0, mean_rating_weight=0.0, past_rating_weight=0.0)
    ledger = RatingLedger()
    ledger.add_rating(2, 1, 4)
    star = make_doctor(0, credential=Credential.HIGH)
    old = make_doctor(2, credential=Credential.LOW)
    assert choose_doctor(patient, free_map([star, old]), ledger, judge_doctor) == 0

    ledger.add_rating(2, 1, 5)
    assert choose_doctor(patient, free_map([star, old]), ledger, judge_doctor) == 2
    assert choose_doctor(patient, free_map([star, old], {2}), ledger, judge_doctor) == 0


def test_choose_breaks_ties_by_lowest_id():
    patient = make_patient(1, health_level=0.4)
    # The map need not be in id order: the lowest id wins wherever it sits.
    doctors = [make_doctor(i, credential=Credential.MEDIUM) for i in (3, 1, 2)]
    assert choose_doctor(patient, free_map(doctors), RatingLedger(), judge_doctor) == 1


def _random_choice_instance(rng):
    num_doctors = 1 + rng.index(10)
    doctors = []
    busy = set()
    for i in range(num_doctors):
        doctors.append(
            make_doctor(
                i,
                credential=rng.choice(list(Credential)),
                empathy=rng.uniform(0, 1),
            )
        )
        if rng.chance(0.3):
            busy.add(i)
    ledger = RatingLedger()
    patient = make_patient(0, health_level=rng.uniform(0.1, 0.7))
    raw = [rng.uniform(0, 1) for _ in range(3)]
    total = sum(raw)
    patient.cred_weight, patient.mean_rating_weight, patient.past_rating_weight = (
        raw[0] / total, raw[1] / total, raw[2] / total,
    )
    for doctor in doctors:
        for rater in range(4):
            if rng.chance(0.5):
                ledger.add_rating(doctor.doctor_id, rater, rng.index(6))
    if rng.chance(0.6):
        last = rng.index(num_doctors)
        patient.last_doctor_id = last
        if rng.chance(0.7):
            ledger.add_rating(last, patient.patient_id, 5)
    return patient, doctors, ledger, busy


def test_choose_matches_exhaustive_oracle():
    rng = RngStream(1234)
    for _ in range(400):
        patient, doctors, ledger, busy = _random_choice_instance(rng)
        assert choose_doctor(patient, free_map(doctors, busy), ledger, judge_doctor) == (
            exhaustive_choose(patient, doctors, ledger, judge_doctor, busy)
        )


def test_update_health_level_clamps_and_records():
    patient = make_patient(health_level=0.05)
    update_health_level(patient, 0.0)
    assert patient.health_level == 0.1
    patient = make_patient(health_level=0.5)
    update_health_level(patient, 0.3)
    assert patient.health_level == pytest.approx(0.8, abs=1e-9)
    assert patient.times_treated == 1
    update_health_level(patient, 0.5)
    assert patient.health_level == 1.0
    assert patient.times_treated == 2
    assert patient.treated_health_total == pytest.approx(1.8, abs=1e-9)


def test_rate_doctor_hand_cases():
    doctor = make_doctor(4)
    patient = make_patient(health_level=0.8)
    assert rate_doctor(patient, doctor) == 5
    assert patient.last_doctor_id is None  # rating is pure; the exchange remembers the doctor
    patient.health_level = 0.4
    assert rate_doctor(patient, doctor) == 2
    patient.health_level = 0.0
    assert rate_doctor(patient, doctor) == 0


def test_health_score_hand_cases():
    assert health_score(make_patient(health_level=1.0)) == 5.0
    assert health_score(make_patient(health_level=0.8)) == 5.0
    assert health_score(make_patient(health_level=0.4)) == 2.5
    assert health_score(make_patient(health_level=0.7)) == pytest.approx(4.375, abs=1e-12)
    assert health_score(make_patient(health_level=0.0)) == 0.0


@given(st.floats(min_value=0, max_value=1, allow_nan=False), st.floats(min_value=0, max_value=1, allow_nan=False))
def test_rate_doctor_bounded_and_monotone(h1, h2):
    doctor = make_doctor()
    lo, hi = sorted((h1, h2))
    low_rating = rate_doctor(make_patient(health_level=lo), doctor)
    high_rating = rate_doctor(make_patient(health_level=hi), doctor)
    assert 0 <= low_rating <= high_rating <= 5


def test_receive_treatment_full_exchange():
    # Doctor effectiveness 0.5 scaled by resilience 0.2 heals 0.4.
    doctor = make_doctor(3, credential=Credential.HIGH, empathy=0.7,
                         technological_resource_constraint=0.5)
    patient = make_patient(1, health_level=0.4, resilience=0.2, is_infected=True)
    patient.infected_order = 0
    ledger = RatingLedger()
    rating = receive_treatment(patient, doctor, ledger, 0.0)
    assert patient.health_level == pytest.approx(0.8, abs=1e-9)
    assert rating == 5
    assert not patient.is_infected
    assert patient.last_doctor_id == 3
    assert ledger.rating_by_patient(3, 1) == 5
    assert doctor.experience == 1


def test_receive_treatment_health_capped_at_one():
    doctor = make_doctor(0, credential=Credential.HIGH, empathy=0.4,
                         technological_resource_constraint=0.5)
    patient = make_patient(health_level=0.95, resilience=0.0)
    receive_treatment(patient, doctor, RatingLedger(), 0.0)
    assert patient.health_level == 1.0


def test_receive_treatment_resilience_scales_linearly():
    doctor_kwargs = dict(credential=Credential.HIGH, empathy=0.7,
                         technological_resource_constraint=0.5)
    tough = make_patient(health_level=0.3, resilience=0.4)
    receive_treatment(tough, make_doctor(0, **doctor_kwargs), RatingLedger(), 0.0)
    assert tough.health_level == pytest.approx(0.3 + 0.5 * 0.6, abs=1e-9)
