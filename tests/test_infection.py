import copy

import pytest
from hypothesis import given, strategies as st

from caresim import RngStream
from caresim.infection import (
    INFECTION_ELIGIBLE_ABOVE,
    infect,
    needs_doctor,
    priority,
    spread_infection,
)
from support import make_patient


def test_infect_reduces_health_and_records_order():
    patient = make_patient(health_level=0.9)
    infect(patient, 4)
    assert patient.health_level == pytest.approx(0.7, abs=1e-9)
    assert patient.is_infected
    assert patient.infected_order == 4


# One patient: (already infected, health level), with floor-health levels
# (at or below 0.1, the boundary included) as likely as healthy ones.
mixed_patient = st.tuples(
    st.booleans(),
    st.one_of(st.floats(0.0, INFECTION_ELIGIBLE_ABOVE), st.just(INFECTION_ELIGIBLE_ABOVE),
              st.floats(INFECTION_ELIGIBLE_ABOVE, 1.0)),
)


@given(st.lists(mixed_patient, max_size=25), st.integers(0, 30), st.integers(0, 2**32 - 1))
def test_spread_infects_only_eligible_patients_and_keeps_earlier_orders(kinds, n, seed):
    patients = [make_patient(i, health_level=health) for i, (_, health) in enumerate(kinds)]
    earlier = [p for (infected, _), p in zip(kinds, patients) if infected]
    for order, patient in enumerate(earlier):
        patient.is_infected, patient.infected_order = True, order
    eligible = {p.patient_id for p in patients
                if not p.is_infected and p.health_level > INFECTION_ELIGIBLE_ABOVE}
    before = copy.deepcopy(patients)
    applied = spread_infection(patients, n, len(earlier), RngStream(seed))
    assert applied == min(n, len(eligible))
    for patient, old in zip(patients, before):
        if patient.patient_id not in eligible:
            assert patient == old
    assert [p.infected_order for p in earlier] == list(range(len(earlier)))
    new_orders = sorted(p.infected_order for p in patients if p.patient_id in eligible and p.is_infected)
    assert new_orders == list(range(len(earlier), len(earlier) + applied))


def test_infect_never_drives_health_below_zero():
    patient = make_patient(health_level=0.15)
    infect(patient, 0)
    assert patient.health_level == 0.0


def test_spread_zero_changes_nothing():
    patients = [make_patient(i, health_level=0.9) for i in range(5)]
    assert spread_infection(patients, 0, 7, RngStream(1)) == 0
    assert all(not p.is_infected and p.infected_order is None for p in patients)


def test_spread_negative_count_raises_before_any_draw():
    patients = [make_patient(i, health_level=0.9) for i in range(5)]
    patients[2].health_level = 0.05
    before = copy.deepcopy(patients)
    rng = RngStream(1)
    state = rng.getstate()
    with pytest.raises(ValueError):
        spread_infection(patients, -1, 0, rng)
    assert rng.getstate() == state
    assert patients == before


def test_spread_exhausts_eligible_pool():
    patients = [make_patient(i, health_level=0.9) for i in range(5)]
    patients[2].health_level = 0.05
    applied = spread_infection(patients, 50, 0, RngStream(1))
    assert applied == 4
    assert not patients[2].is_infected
    assert all(p.is_infected for p in patients if p.patient_id != 2)


def test_spread_exact_count_on_fresh_population():
    patients = [make_patient(i, health_level=0.9) for i in range(1000)]
    applied = spread_infection(patients, 200, 0, RngStream(3))
    assert applied == 200
    assert sum(p.is_infected for p in patients) == 200


def test_spread_orders_are_gap_free_prefix():
    patients = [make_patient(i, health_level=0.9) for i in range(30)]
    assert spread_infection(patients, 10, 0, RngStream(9)) == 10
    assert spread_infection(patients, 10, 10, RngStream(10)) == 10
    orders = sorted(p.infected_order for p in patients if p.is_infected)
    assert orders == list(range(20))


def test_priority_triples():
    infected = make_patient(health_level=0.9)
    infect(infected, 3)
    infected.health_level = 0.5
    assert priority(infected) == (False, 3, 0.5)
    healthy = make_patient(health_level=0.9)
    assert priority(healthy) == (True, float("inf"), 0.9)


def test_priority_sort_order():
    first = make_patient(1, health_level=0.9)
    second = make_patient(2, health_level=0.9)
    infect(first, 1)
    infect(second, 2)
    weak = make_patient(3, health_level=0.3)
    strong = make_patient(4, health_level=0.8)
    ordered = sorted([strong, weak, second, first], key=lambda p: (*priority(p), p.patient_id))
    assert [p.patient_id for p in ordered] == [1, 2, 3, 4]


def test_priority_id_breaks_exact_ties():
    twin_a = make_patient(7, health_level=0.5)
    twin_b = make_patient(3, health_level=0.5)
    ordered = sorted([twin_a, twin_b], key=lambda p: (*priority(p), p.patient_id))
    assert [p.patient_id for p in ordered] == [3, 7]


def test_needs_doctor_threshold():
    assert needs_doctor(make_patient(health_level=0.59))
    assert not needs_doctor(make_patient(health_level=0.6))
    assert not needs_doctor(make_patient(health_level=1.0))
