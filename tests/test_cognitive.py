import copy

import pytest
from hypothesis import given, settings, strategies as st

from caresim import (
    Credential, ModelKind, RatingLedger, SimulationConfig, engine, init_run_state,
    run_round,
)
from caresim.classical import TREATMENT_FACTOR, judge_doctor, rate_doctor, treatment_effectiveness
from caresim.cognitive import (
    judge_doctor_css,
    mean_weighted_respects,
    rate_doctor_css,
    receive_treatment_css,
    round_to_tenth,
    update_confidence,
    update_respect_for_colleagues,
)
from caresim.evolution import crossover_doctor
from caresim.ratings import tie_weighted_mean
from support import StubRng, make_doctor, make_patient


def test_round_to_tenth_half_away_from_zero():
    assert round_to_tenth(2.625) == pytest.approx(2.6)
    assert round_to_tenth(0.25) == pytest.approx(0.3)
    assert round_to_tenth(0.05) == pytest.approx(0.1)
    assert round_to_tenth(4.99) == pytest.approx(5.0)
    assert round_to_tenth(0.0) == 0.0


def test_mean_weighted_respects_hand_cases():
    d0 = make_doctor(0, social_ties_doctors=[0.0, 0.5, 0.5])
    respect = [[0.0] * 3, [2.0, 0.0, 0.0], [4.0, 0.0, 0.0]]
    assert mean_weighted_respects(d0, respect) == pytest.approx(3.0, abs=1e-9)

    d0.social_ties_doctors = [0.0, 0.0, 0.0]
    assert mean_weighted_respects(d0, respect) == 0.0

    solo = make_doctor(0, social_ties_doctors=[0.0, 0.3])
    assert mean_weighted_respects(solo, [[0.0, 0.0], [1.7, 0.0]]) == pytest.approx(1.7, abs=1e-9)


def test_update_respect_for_colleagues_hand_cases():
    ledger = RatingLedger()
    ledger.add_rating(1, 0, 5)
    ledger.add_rating(1, 1, 3)
    evaluator = make_doctor(
        0,
        social_ties_doctors=[0.0, 0.5, 0.0],
        social_ties_patients=[0.5, 0.5],
    )
    colleague = make_doctor(1, credential=Credential.MEDIUM)
    stranger = make_doctor(2, credential=Credential.HIGH)
    row = update_respect_for_colleagues(evaluator, [evaluator, colleague, stranger], ledger)
    # valuation for colleague: 5*0.5 + 3*0.5 = 4.0 -> 0.5 * (0.2 + 4.0)
    assert row == [0.0, pytest.approx(2.1, abs=1e-9), 0.0]


def test_respect_for_unrated_colleague_uses_credential_only():
    evaluator = make_doctor(0, social_ties_doctors=[0.0, 0.4], social_ties_patients=[1.0])
    colleague = make_doctor(1, credential=Credential.HIGH)
    row = update_respect_for_colleagues(evaluator, [evaluator, colleague], RatingLedger())
    assert row == [0.0, pytest.approx(0.4 * 0.3, abs=1e-9)]


def test_update_confidence_combines_both_parts():
    ledger = RatingLedger()
    ledger.add_rating(0, 0, 4)
    doctor = make_doctor(0, social_ties_patients=[0.8], social_ties_doctors=[0.0, 1.0],
                         weight_wmrat=0.5, weight_mwres=0.5)
    confidence = update_confidence(doctor, ledger, [[0.0, 0.0], [2.0, 0.0]])
    assert confidence == pytest.approx(0.5 * 4.0 + 0.5 * 2.0, abs=1e-9)

    silent = make_doctor(0, social_ties_patients=[0.0], social_ties_doctors=[0.0])
    assert update_confidence(silent, RatingLedger(), [[0.0]]) == 0.0


def test_update_confidence_projection():
    ledger = RatingLedger()
    ledger.add_rating(0, 0, 4)
    doctor = make_doctor(0, social_ties_patients=[0.8], social_ties_doctors=[0.0, 1.0],
                         weight_wmrat=1.0, weight_mwres=0.0)
    confidence = update_confidence(doctor, ledger, [[0.0, 0.0], [2.0, 0.0]])
    assert confidence == pytest.approx(4.0, abs=1e-9)


def test_effectiveness_css_hand_cases():
    # Zero confidence leaves the classical value (0.2 + 0.5) x (1 - 0.3).
    calm = make_doctor()
    assert treatment_effectiveness(calm, 0.0) == pytest.approx(0.49, abs=1e-12)

    boosted = make_doctor(credential=Credential.MEDIUM, empathy=0.3,
                          technological_resource_constraint=0.5)
    assert treatment_effectiveness(boosted, 3.0) == pytest.approx(0.7, abs=1e-9)


@given(
    st.sampled_from(list(Credential)),
    st.floats(min_value=0, max_value=1, allow_nan=False),
    st.floats(min_value=0, max_value=1, allow_nan=False),
    st.floats(min_value=0, max_value=50, allow_nan=False),
)
def test_effectiveness_css_always_capped(credential, empathy, trc, confidence):
    doctor = make_doctor(credential=credential, empathy=empathy,
                         technological_resource_constraint=trc)
    assert 0.0 <= treatment_effectiveness(doctor, confidence) <= 0.7


def test_judge_css_all_ties_zero_leaves_past_term():
    patient = make_patient(1, past_rating_weight=0.6, cred_weight=0.2, mean_rating_weight=0.2,
                           social_ties_doctors=[0.0], social_ties_patients=[0.0] * 3)
    doctor = make_doctor(0, credential=Credential.HIGH)
    ledger = RatingLedger()
    ledger.add_rating(0, 1, 4)
    ledger.add_rating(0, 2, 5)
    assert judge_doctor_css(patient, doctor, ledger) == pytest.approx(0.6 * 4, abs=1e-9)


def test_judge_css_hand_case():
    patient = make_patient(
        1,
        social_ties_doctors=[0.5],
        social_ties_patients=[0.0, 0.0, 0.5, 0.5],
    )
    doctor = make_doctor(0, credential=Credential.HIGH)
    ledger = RatingLedger()
    ledger.add_rating(0, 2, 5)
    ledger.add_rating(0, 3, 3)
    ledger.add_rating(0, 1, 4)
    expected = (0.5 + 4.0 + 4.0) / 3
    assert judge_doctor_css(patient, doctor, ledger) == pytest.approx(expected, abs=1e-9)


def test_judge_css_zero_tie_peer_contributes_nothing():
    patient = make_patient(1, social_ties_doctors=[0.5],
                           social_ties_patients=[0.0, 0.0, 0.5, 0.0])
    doctor = make_doctor(0, credential=Credential.HIGH)
    with_peer = RatingLedger()
    with_peer.add_rating(0, 2, 5)
    with_peer.add_rating(0, 3, 1)
    without_peer = RatingLedger()
    without_peer.add_rating(0, 2, 5)
    assert judge_doctor_css(patient, doctor, with_peer) == pytest.approx(
        judge_doctor_css(patient, doctor, without_peer), abs=1e-12
    )


def test_rate_css_hand_cases():
    doctor = make_doctor(0)
    perfect = make_patient(1, health_level=0.8, social_ties_doctors=[1.0])
    assert rate_doctor_css(perfect, doctor) == 5.0

    partial = make_patient(1, health_level=0.4, social_ties_doctors=[0.5])
    assert rate_doctor_css(partial, doctor) == pytest.approx(2.6)

    untied = make_patient(1, health_level=0.4, social_ties_doctors=[0.0])
    assert rate_doctor_css(untied, doctor) == pytest.approx(round_to_tenth(2.5))


def test_rate_css_monotone_in_tie_and_tenth_stepped():
    doctor = make_doctor(0)
    previous = 0.0
    for i in range(11):
        strength = i / 10
        patient = make_patient(1, health_level=0.5, social_ties_doctors=[strength])
        rating = rate_doctor_css(patient, doctor)
        assert 0.0 <= rating <= 5.0
        assert round(rating * 10) == pytest.approx(rating * 10, abs=1e-9)
        assert rating >= previous
        previous = rating


def test_receive_treatment_css_records_and_returns_rating():
    doctor = make_doctor(3, credential=Credential.HIGH, empathy=0.7,
                         technological_resource_constraint=0.5)
    patient = make_patient(
        1, health_level=0.4, resilience=0.2, is_infected=True,
        social_ties_doctors=[0.0, 0.0, 0.0, 1.0],
    )
    patient.infected_order = 0
    ledger = RatingLedger()
    rating = receive_treatment_css(patient, doctor, ledger, 0.0)
    assert patient.health_level == pytest.approx(0.8, abs=1e-9)
    assert rating == 5.0
    assert ledger.rating_by_patient(3, 1) == 5.0
    assert not patient.is_infected
    assert patient.last_doctor_id == 3
    assert doctor.experience == 1


def test_zero_ties_reduce_css_to_classical():
    # With every tie strength at zero the css operations coincide with the
    # classical ones, save for rating granularity.
    doctor = make_doctor(0, credential=Credential.MEDIUM, empathy=0.45,
                         technological_resource_constraint=0.35, social_ties_doctors=[0.0, 0.0],
                         social_ties_patients=[0.0] * 5)
    peer = make_doctor(1, social_ties_doctors=[0.0, 0.0], social_ties_patients=[0.0] * 5)
    ledger = RatingLedger()
    ledger.add_rating(0, 4, 3)
    respect = [update_respect_for_colleagues(d, [doctor, peer], ledger) for d in (doctor, peer)]
    assert respect == [[0.0, 0.0], [0.0, 0.0]]
    confidence = update_confidence(doctor, ledger, respect)
    assert confidence == 0.0
    # (0.2 + 0.45 + 0.0) x (1 - 0.35), the classical value.
    assert treatment_effectiveness(doctor, confidence) == pytest.approx(0.4225, abs=1e-12)
    for health in (0.15, 0.43, 0.79, 0.8, 1.0):
        css_patient = make_patient(1, health_level=health, social_ties_doctors=[0.0, 0.0])
        classical_patient = make_patient(1, health_level=health)
        css_rating = rate_doctor_css(css_patient, doctor)
        base_rating = rate_doctor(classical_patient, doctor)
        assert abs(css_rating - 5 * min(1.0, health / 0.8)) <= 0.05 + 1e-9
        assert base_rating <= css_rating + 1e-9


@settings(max_examples=60)
@given(
    st.lists(st.floats(0.01, 1, allow_nan=False), min_size=1, max_size=9),
    st.floats(min_value=0.05, max_value=20, allow_nan=False),
)
def test_weighted_means_invariant_under_tie_scaling(ties, scale):
    ledger = RatingLedger()
    for pid in range(len(ties)):
        ledger.add_rating(0, pid, (pid % 6))
    doctor = make_doctor(0, social_ties_patients=list(ties), social_ties_doctors=[0.0, 0.5],
                         weight_wmrat=1.0, weight_mwres=0.0)
    baseline = update_confidence(doctor, ledger, [[0.0, 0.0]])
    doctor.social_ties_patients = [v * scale for v in ties]
    assert update_confidence(doctor, ledger, [[0.0, 0.0]]) == pytest.approx(baseline, abs=1e-9)


def test_respect_nonnegative_and_zero_when_untied():
    ledger = RatingLedger()
    ledger.add_rating(1, 0, 5)
    evaluator = make_doctor(0, social_ties_doctors=[0.0, 0.0], social_ties_patients=[1.0])
    colleague = make_doctor(1, credential=Credential.HIGH)
    assert update_respect_for_colleagues(evaluator, [evaluator, colleague], ledger) == [0.0, 0.0]


# A sweep recomputes every respect value from the current ratings, ties
# and credentials, however those changed since the last sweep (new
# ratings, tie edits, GA variation, an elite restore); these tests compare
# every respect row, and the confidence list the sweep returned from them,
# exactly, against a direct recomputation (the own slot's zero tie gives
# the 0.0 it must hold).

def assert_respect_fresh(doctors, ledger, confidence):
    expected = [
        [
            doctor.social_ties_doctors[colleague.doctor_id] * (
                TREATMENT_FACTOR[colleague.credential]
                + ledger.weighted_valuation(colleague.doctor_id, doctor.social_ties_patients)
            )
            for colleague in doctors
        ]
        for doctor in doctors
    ]
    assert [update_respect_for_colleagues(d, doctors, ledger) for d in doctors] == expected
    assert len(confidence) == len(doctors)
    for doctor in doctors:
        respects = tie_weighted_mean(
            (expected[colleague.doctor_id][doctor.doctor_id],
             doctor.social_ties_doctors[colleague.doctor_id])
            for colleague in doctors
        )
        ratings = ledger.mean_weighted_ratings(doctor.doctor_id, doctor.social_ties_patients)
        expected_confidence = doctor.weight_wmrat * ratings + doctor.weight_mwres * respects
        assert confidence[doctor.doctor_id] == expected_confidence


def rated_clinic():
    """Three doctors tied to four patients; every doctor rated by two of them."""
    doctors = [
        make_doctor(
            i,
            credential=credential,
            social_ties_doctors=[0.0 if j == i else 0.3 + 0.2 * j for j in range(3)],
            social_ties_patients=[0.1 + 0.15 * ((p + i) % 4) for p in range(4)],
        )
        for i, credential in enumerate((Credential.LOW, Credential.MEDIUM, Credential.HIGH))
    ]
    ledger = RatingLedger()
    for doctor_id, raters in ((0, (0, 1)), (1, (1, 2)), (2, (2, 3))):
        for patient_id in raters:
            ledger.add_rating(doctor_id, patient_id, 2.5 + patient_id * 0.5)
    return doctors, ledger


def assert_sweep_fresh(doctors, ledger):
    assert_respect_fresh(doctors, ledger, engine.refresh_social_perception(doctors, ledger))


def busy_css_state():
    """A 6-doctor css run whose GA varies ties often; 4 of 12 rounds have a seeker."""
    config = SimulationConfig(
        model=ModelKind.CSS, num_doctors=6, num_patients=30, num_rounds=12,
        num_infected_per_round=12, mutation_chance=0.6, crossover_chance=0.6,
        tournaments_per_round=3, base_seed=11,
    )
    return init_run_state(config, run_seed=11)


def test_respect_matches_direct_valuation_every_round(monkeypatch):
    state = busy_css_state()
    original = engine.refresh_social_perception
    refreshed = []

    def checked(doctors, ledger):
        confidence = original(doctors, ledger)
        assert_respect_fresh(doctors, ledger, confidence)
        refreshed.append(round_index)
        return confidence

    monkeypatch.setattr(engine, "refresh_social_perception", checked)
    with_seeker = []
    for round_index in range(1, 13):
        metrics = run_round(state, round_index)
        if metrics.treatments_performed + metrics.untreated_seekers > 0:
            with_seeker.append(round_index)
    assert refreshed == with_seeker
    assert len(with_seeker) == 4


def test_respect_follows_new_rater_and_changed_rerating():
    doctors, ledger = rated_clinic()
    ledger.add_rating(1, 3, 0.5)
    assert_sweep_fresh(doctors, ledger)
    ledger.add_rating(1, 2, 4.5)
    assert_sweep_fresh(doctors, ledger)


def test_respect_follows_in_place_tie_edit():
    doctors, ledger = rated_clinic()
    doctors[0].social_ties_patients[2] = 0.95
    assert_sweep_fresh(doctors, ledger)


def test_respect_follows_tie_map_replacement():
    doctors, ledger = rated_clinic()
    doctors[2].social_ties_patients = [1.0 - 0.2 * p for p in range(4)]
    assert_sweep_fresh(doctors, ledger)


def test_respect_follows_crossover():
    doctors, ledger = rated_clinic()
    crossover_doctor(doctors[1], doctors[2], StubRng(chance=[True]))
    assert_sweep_fresh(doctors, ledger)


def test_respect_follows_elite_style_object_swap():
    doctors, ledger = rated_clinic()
    elite = copy.deepcopy(doctors[0])
    doctors[0].social_ties_patients[1] = 0.0
    assert_sweep_fresh(doctors, ledger)
    doctors[0] = elite
    assert_sweep_fresh(doctors, ledger)
