import copy
import dataclasses
import math
from enum import Enum

import pytest
from hypothesis import given, settings, strategies as st

from caresim import (
    Credential,
    ModelKind,
    RngStream,
    derive_run_seed,
    init_doctor,
    init_patient,
    init_run_state,
    preset_single_run,
    run_round,
)
from caresim.agents import _peer_ties
from support import (
    check_doctor_invariants,
    check_patient_invariants,
    comprehension_peer_ties,
    make_doctor,
    make_patient,
)

NUM_DOCTORS = 4
NUM_PATIENTS = 6


def fresh_doctor(seed, model=ModelKind.CLASSICAL, doctor_id=0):
    return init_doctor(doctor_id, RngStream(seed), model, NUM_DOCTORS, NUM_PATIENTS)


def fresh_patient(seed, model=ModelKind.CLASSICAL, patient_id=0):
    return init_patient(patient_id, RngStream(seed), model, NUM_DOCTORS, NUM_PATIENTS)


def test_doctor_draw_ranges():
    for seed in range(200):
        doctor = fresh_doctor(seed)
        assert 0.2 <= doctor.research_ability <= 0.6
        assert 0.2 <= doctor.empathy <= 0.7
        assert 0.2 <= doctor.technological_resource_constraint <= 0.5
        assert doctor.personal_resource == pytest.approx(0.2)
        assert doctor.experience == 0
        assert doctor.credential in (Credential.LOW, Credential.MEDIUM, Credential.HIGH)


def test_classical_doctor_has_no_social_state():
    doctor = fresh_doctor(3)
    assert doctor.social_ties_doctors == []
    assert doctor.social_ties_patients == []


def test_css_doctor_social_state():
    doctor = fresh_doctor(3, ModelKind.CSS, doctor_id=1)
    assert len(doctor.social_ties_doctors) == NUM_DOCTORS
    assert doctor.social_ties_doctors[1] == 0.0
    assert all(0.0 < s < 1.0 for i, s in enumerate(doctor.social_ties_doctors) if i != 1)
    assert len(doctor.social_ties_patients) == NUM_PATIENTS
    assert all(0.0 <= s <= 1.0 for s in doctor.social_ties_patients)
    # Respect is built by each perception sweep, so ties are a doctor's only lists.
    lists = [name for name, value in vars(doctor).items() if type(value) is list]
    assert lists == ["social_ties_doctors", "social_ties_patients"]
    assert doctor.weight_wmrat == 0.5
    assert doctor.weight_mwres == 0.5


def test_same_seed_same_doctor():
    assert fresh_doctor(42, ModelKind.CSS) == fresh_doctor(42, ModelKind.CSS)
    assert fresh_doctor(42) == fresh_doctor(42)


def test_doctor_id_outside_population_rejected():
    for doctor_id in (-1, NUM_DOCTORS):
        with pytest.raises(ValueError):
            init_doctor(doctor_id, RngStream(0), ModelKind.CLASSICAL, NUM_DOCTORS, NUM_PATIENTS)


def test_css_doctor_draws_peers_in_ascending_id_skipping_self():
    doctor = fresh_doctor(8, ModelKind.CSS, doctor_id=2)
    rng = RngStream(8)
    draws = [rng.random() for _ in range(4 + NUM_DOCTORS - 1 + NUM_PATIENTS)][4:]
    assert doctor.social_ties_doctors == [*draws[:2], 0.0, draws[2]]
    assert doctor.social_ties_patients == draws[3:]


def test_peer_ties_match_the_comprehension_oracle():
    # One bulk draw of size - 1 values with the own 0.0 slot inserted must
    # equal drawing per peer and skipping self, and leave the stream at
    # the same next draw, for every own id.
    for seed in (0, 1, 7, 2024):
        for size in range(1, 61):
            for self_id in range(size):
                rng, oracle = RngStream(seed), RngStream(seed)
                ties = _peer_ties(self_id, size, rng)
                assert ties == comprehension_peer_ties(self_id, size, oracle)
                assert ties[self_id] == 0.0
                assert rng.random() == oracle.random()


def test_patient_draw_ranges_and_weight_sum():
    for seed in range(200):
        patient = fresh_patient(seed)
        assert 0.5 <= patient.health_level <= 1.0
        assert 0.1 <= patient.resilience <= 0.4
        total = patient.cred_weight + patient.mean_rating_weight + patient.past_rating_weight
        assert abs(total - 1.0) <= 1e-9
        assert not patient.is_infected
        assert patient.infected_order is None
        assert (patient.treated_health_total, patient.times_treated) == (0.0, 0)


def test_classical_patient_has_no_ties():
    patient = fresh_patient(5)
    assert patient.social_ties_doctors == []
    assert patient.social_ties_patients == []


def test_css_patient_ties_cover_everyone_else():
    patient = fresh_patient(5, ModelKind.CSS, patient_id=2)
    rng = RngStream(5)
    draws = [rng.random() for _ in range(5 + NUM_DOCTORS + NUM_PATIENTS - 1)][5:]
    assert patient.social_ties_doctors == draws[:NUM_DOCTORS]
    assert patient.social_ties_patients == [*draws[4:6], 0.0, *draws[6:]]


def test_patient_id_outside_population_rejected():
    for patient_id in (-1, NUM_PATIENTS):
        with pytest.raises(ValueError):
            init_patient(patient_id, RngStream(0), ModelKind.CLASSICAL, NUM_DOCTORS, NUM_PATIENTS)


def test_past_weight_expectation_monte_carlo():
    # Independent oracle: simulate the raw-draw scheme directly.  The
    # normalized past weight's true mean is ~0.4742 (the ratio's mean sits
    # below the naive 2/(1+1+2) = 0.5 because of the random denominator).
    import random as stdlib_random

    gen = stdlib_random.Random(99)
    oracle = 0.0
    for _ in range(10_000):
        cred, mean, past = gen.random(), gen.random(), 2.0 * gen.random()
        oracle += past / (cred + mean + past)
    oracle /= 10_000
    assert abs(oracle - 0.4742) <= 0.01

    rng = RngStream(2024)
    total = 0.0
    for _ in range(10_000):
        patient = init_patient(0, rng, ModelKind.CLASSICAL, NUM_DOCTORS, 2)
        total += patient.past_rating_weight
    assert abs(total / 10_000 - oracle) <= 0.02


def _three_se(lo, hi, n):
    return 3 * (hi - lo) / math.sqrt(12) / math.sqrt(n)


def test_initialization_statistics_within_three_standard_errors():
    n = 10_000
    rng = RngStream(77)
    doctors = [init_doctor(0, rng, ModelKind.CLASSICAL, 2, 1) for _ in range(n)]
    patients = [init_patient(0, rng, ModelKind.CLASSICAL, 1, 2) for _ in range(n)]
    fields = [
        ([d.research_ability for d in doctors], 0.2, 0.6),
        ([d.empathy for d in doctors], 0.2, 0.7),
        ([d.technological_resource_constraint for d in doctors], 0.2, 0.5),
        ([p.health_level for p in patients], 0.5, 1.0),
        ([p.resilience for p in patients], 0.1, 0.4),
    ]
    for values, lo, hi in fields:
        assert abs(sum(values) / n - (lo + hi) / 2) <= _three_se(lo, hi, n)


@settings(max_examples=60)
@given(st.integers(min_value=0, max_value=2**32), st.sampled_from(list(ModelKind)))
def test_initialization_satisfies_invariants(seed, model):
    check_doctor_invariants(fresh_doctor(seed, model), NUM_DOCTORS, NUM_PATIENTS)
    check_patient_invariants(fresh_patient(seed, model), NUM_DOCTORS, NUM_PATIENTS)


@pytest.mark.parametrize("model", list(ModelKind))
def test_deepcopy_is_equal_and_independent(model):
    # The GA's elite snapshot is a deepcopy; its hook slices the lists and
    # shares every other field, which is only a deep copy while those
    # fields are immutable.  A new mutable field must fail here.
    cfg = preset_single_run(model, base_seed=3)
    state = init_run_state(cfg, derive_run_seed(cfg.base_seed, 0))
    for round_index in range(1, 4):
        run_round(state, round_index)
    assert any(p.times_treated for p in state.patients)
    assert any(d.experience for d in state.doctors)
    if model is ModelKind.CSS:
        assert all(p.social_ties_patients for p in state.patients)
    for agent in state.doctors + state.patients:
        lists = {}
        for name, value in vars(agent).items():
            if type(value) is list:
                assert all(type(item) is float for item in value), name
                lists[name] = value
            else:
                assert value is None or isinstance(value, (int, float, str, Enum)), name
        before = dataclasses.asdict(agent)
        clone = copy.deepcopy(agent)
        assert type(clone) is type(agent)
        assert clone == agent
        for name, value in lists.items():
            cloned = getattr(clone, name)
            assert cloned is not value
            cloned[:] = [item / 2 + 0.25 for item in cloned]
            cloned.append(0.5)
        assert dataclasses.asdict(agent) == before


@pytest.mark.parametrize("build, removed", [
    (make_patient, {"health_history": [0.3]}),
    (make_doctor, {"is_busy": True}),
])
def test_builders_reject_removed_field_names(build, removed):
    # A test left on a removed field name must fail, not build an agent
    # that silently carries an extra attribute.
    with pytest.raises(TypeError):
        build(0, **removed)
