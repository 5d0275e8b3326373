"""Shared test helpers: invariant checks, independent oracles, scripted RNG,
a round driver that keeps the final populations, and a peak-memory probe."""

from __future__ import annotations

import gc
import tracemalloc

from caresim import (
    Credential,
    DoctorState,
    PatientState,
    RatingLedger,
    SimulationConfig,
    init_run_state,
    run_round,
)
from caresim import cognitive
from caresim.classical import PERFECT_RATING
from caresim.infection import NEEDS_DOCTOR_THRESHOLD

WEIGHT_SUM_TOL = 1e-9


class StubRng:
    """Replays scripted draws per primitive; raises when a queue runs dry."""

    def __init__(self, uniform=(), random=(), sign=(), chance=(), choice_index=(), sample=()):
        self._uniform = list(uniform)
        self._random = list(random)
        self._sign = list(sign)
        self._chance = list(chance)
        self._choice_index = list(choice_index)
        self._sample = list(sample)

    def uniform(self, lo, hi):
        return self._uniform.pop(0)

    def random(self):
        return self._random.pop(0)

    def sign(self):
        return self._sign.pop(0)

    def chance(self, probability):
        return self._chance.pop(0)

    def index(self, n):
        return self._choice_index.pop(0)

    def choice(self, items):
        return items[self._choice_index.pop(0)]

    def sample(self, items, k):
        indices = self._sample.pop(0)
        assert len(indices) == k
        return [items[i] for i in indices]


def copying_sample(rng, items, k: int) -> list:
    """Reference for ``RngStream.sample``: the same partial Fisher-Yates
    draws, run on a full copy of ``items``."""
    pool = list(items)
    picked = []
    for i in range(k):
        j = i + rng.index(len(pool) - i)
        pool[i], pool[j] = pool[j], pool[i]
        picked.append(pool[i])
    return picked


def comprehension_peer_ties(self_id: int, size: int, rng) -> list:
    """Reference for ``agents._peer_ties``: one ``random()`` per peer in
    ascending id, the own slot left at 0.0 and not drawn."""
    return [0.0 if peer == self_id else rng.random() for peer in range(size)]


def make_doctor(doctor_id=0, **overrides) -> DoctorState:
    """A doctor with fixed test traits; an override naming no field raises ``TypeError``."""
    defaults = dict(research_ability=0.4, empathy=0.5,
                    technological_resource_constraint=0.3, credential=Credential.MEDIUM)
    return DoctorState(doctor_id=doctor_id, **{**defaults, **overrides})


def make_patient(patient_id=0, **overrides) -> PatientState:
    """A patient with fixed test traits; an override naming no field raises ``TypeError``."""
    defaults = dict(health_level=0.5, resilience=0.2, cred_weight=1 / 3,
                    mean_rating_weight=1 / 3, past_rating_weight=1 / 3)
    return PatientState(patient_id=patient_id, **{**defaults, **overrides})


def ga_config(**overrides) -> SimulationConfig:
    """A classical config for calling ``evolve_population`` directly; only
    its GA fields matter there."""
    base = dict(
        model="classical",
        num_doctors=10,
        num_patients=10,
        num_rounds=1,
        num_infected_per_round=0,
    )
    base.update(overrides)
    return SimulationConfig(**base)


def run_to_end(config: SimulationConfig, run_seed: int):
    """Drive every round as ``run_simulation`` does, for tests that read the
    final populations it drops; returns the final state and the metrics."""
    state = init_run_state(config, run_seed)
    metrics = [run_round(state, r) for r in range(1, config.num_rounds + 1)]
    return state, metrics


def check_tie_format(ties: list[float], size: int, self_id: int | None = None) -> None:
    """A tie list has one slot per member of the peer population (or none,
    for classical agents), each in [0, 1]; the agent's own slot is 0.0."""
    assert isinstance(ties, list)
    assert len(ties) in (0, size)
    for strength in ties:
        assert 0.0 <= strength <= 1.0
    if ties and self_id is not None:
        assert ties[self_id] == 0.0


def check_doctor_invariants(doctor: DoctorState, num_doctors: int, num_patients: int) -> None:
    assert 0.0 <= doctor.research_ability <= 1.0
    assert 0.0 <= doctor.empathy <= 1.0
    assert 0.0 <= doctor.weight_wmrat <= 1.0
    assert 0.0 <= doctor.weight_mwres <= 1.0
    assert doctor.personal_resource >= 0.0
    assert doctor.experience >= 0
    assert isinstance(doctor.credential, Credential)
    check_tie_format(doctor.social_ties_doctors, num_doctors, doctor.doctor_id)
    check_tie_format(doctor.social_ties_patients, num_patients)
    assert bool(doctor.social_ties_patients) == bool(doctor.social_ties_doctors)


def check_respect_rows(doctors: list[DoctorState], ledger: RatingLedger) -> None:
    """Each css doctor's respect row has one slot per doctor, none negative,
    and its own slot at 0.0."""
    for doctor in doctors:
        row = cognitive.update_respect_for_colleagues(doctor, doctors, ledger)
        assert len(row) == len(doctors)
        assert min(row) >= 0.0
        assert row[doctor.doctor_id] == 0.0


def check_patient_invariants(patient: PatientState, num_doctors: int, num_patients: int) -> None:
    assert 0.0 <= patient.health_level <= 1.0
    assert 0.1 <= patient.resilience <= 0.4
    for weight in (patient.cred_weight, patient.mean_rating_weight, patient.past_rating_weight):
        assert 0.0 <= weight <= 1.0
    total = patient.cred_weight + patient.mean_rating_weight + patient.past_rating_weight
    assert abs(total - 1.0) <= WEIGHT_SUM_TOL
    if patient.is_infected:
        assert patient.infected_order is not None
    # Post-treatment levels lie in [0.1, 1.0], so their total is at most the count.
    assert 0.0 <= patient.treated_health_total <= patient.times_treated
    check_tie_format(patient.social_ties_doctors, num_doctors)
    check_tie_format(patient.social_ties_patients, num_patients, patient.patient_id)
    assert bool(patient.social_ties_doctors) == bool(patient.social_ties_patients)


def exhaustive_choose(
    patient: PatientState,
    doctors: list[DoctorState],
    ledger: RatingLedger,
    judge,
    busy: set[int],
) -> int | None:
    """Brute-force reference for choose_doctor: score every candidate not in
    ``busy``, pick the max by (judgment, lowest id), honoring the loyalty
    rule first."""
    if patient.health_level >= NEEDS_DOCTOR_THRESHOLD:
        return None
    free = [d for d in doctors if d.doctor_id not in busy]
    if not free:
        return None
    last = patient.last_doctor_id
    if last is not None and ledger.rating_by_patient(last, patient.patient_id) == PERFECT_RATING:
        if any(d.doctor_id == last for d in free):
            return last
        pool = [d for d in free if d.doctor_id != last] or free
    else:
        pool = free
    scored = [(judge(patient, d, ledger), -d.doctor_id, d.doctor_id) for d in pool]
    return max(scored)[2]


def peak_traced_bytes(call) -> int:
    """Peak of the memory that ``tracemalloc`` sees allocated during ``call()``."""
    gc.collect()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
