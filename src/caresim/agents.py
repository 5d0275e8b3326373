"""Agent state types and seeded initialization.

Doctors and patients are plain mutable dataclasses.  Social ties are
directed: each agent holds its own strength lists toward peers, indexed
by peer id (ids run 0..n-1 per population), and A's tie to B is drawn
independently of B's tie to A.  In a same-kind list the agent's own slot
stays 0.0: it is never drawn, mutated, averaged or exported, and a
zero weight adds nothing to a tie-weighted sum.  Classical-model agents
simply carry empty tie lists; every tie-weighted aggregation then reads
as zero, and the shared GA operators find no tie to perturb or average.
Their doctors also keep both confidence weights at 0.5 for the whole
run (only css mutation moves them), so averaging two of them in
crossover changes nothing.  A doctor stores no round-local state: each
css perception sweep builds the respect matrix and returns confidence,
and the round keeps a map of the doctors still free to treat.  A patient
keeps its last doctor and the running total and count of its
post-treatment health levels, the only inputs of its fitness.

Initialization draw order (one :class:`~caresim.rng.RngStream` per run):

* doctor: research ability U(0.2, 0.6), empathy U(0.2, 0.7),
  technological resource constraint U(0.2, 0.5), credential uniform over
  {low, medium, high}; css only: one U(0, 1) tie per peer doctor in
  ascending id, skipping self, then one per patient in ascending id.
* patient: health U(0.5, 1.0), resilience U(0.1, 0.4), raw judgment
  weights U(0, 1), U(0, 1), U(0, 2) normalized to sum 1; css only: one
  U(0, 1) tie per doctor, then one per peer patient, in ascending id,
  skipping self.

Each tie list is one :meth:`~caresim.rng.RngStream.randoms` call; in a
same-kind list the own 0.0 slot is inserted afterwards, not drawn.

The past-rating weight is drawn on a doubled range so its expected
normalized share is about one half, twice the other two weights.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from enum import Enum

from .config import ModelKind
from .rng import RngStream


class Credential(str, Enum):
    LOW = "low"
    MEDIUM = "medium"
    HIGH = "high"

PERSONAL_RESOURCE_CONSTRAINT = 0.8


class _Agent:
    """Base of both agent types.  ``copy.deepcopy`` (the GA's elite
    snapshot) copies the fields and slices each list: every other field
    is immutable (number, bool, str, enum or None) and lists hold floats."""

    def __deepcopy__(self, memo):
        clone = copy.copy(self)
        for name, value in vars(self).items():
            if type(value) is list:
                setattr(clone, name, value[:])
        return clone


@dataclass
class DoctorState(_Agent):
    doctor_id: int
    experience: int = 0
    research_ability: float = 0.0
    empathy: float = 0.0
    personal_resource: float = 1.0 - PERSONAL_RESOURCE_CONSTRAINT
    technological_resource_constraint: float = 0.2
    credential: Credential = Credential.LOW
    social_ties_doctors: list[float] = field(default_factory=list)
    social_ties_patients: list[float] = field(default_factory=list)
    weight_wmrat: float = 0.5
    weight_mwres: float = 0.5


@dataclass
class PatientState(_Agent):
    patient_id: int
    health_level: float = 1.0
    resilience: float = 0.1
    cred_weight: float = 1 / 3
    mean_rating_weight: float = 1 / 3
    past_rating_weight: float = 1 / 3
    is_infected: bool = False
    infected_order: int | None = None
    last_doctor_id: int | None = None
    treated_health_total: float = 0.0
    times_treated: int = 0
    social_ties_doctors: list[float] = field(default_factory=list)
    social_ties_patients: list[float] = field(default_factory=list)


def _peer_ties(self_id: int, size: int, rng: RngStream) -> list[float]:
    ties = rng.randoms(size - 1)
    ties.insert(self_id, 0.0)
    return ties


def init_doctor(
    doctor_id: int, rng: RngStream, model: ModelKind, num_doctors: int, num_patients: int
) -> DoctorState:
    """Draw a fresh doctor; ``doctor_id`` must lie in ``range(num_doctors)``."""
    if not 0 <= doctor_id < num_doctors:
        raise ValueError(f"doctor id {doctor_id} outside 0..{num_doctors - 1}")
    doctor = DoctorState(
        doctor_id=doctor_id,
        research_ability=rng.uniform(0.2, 0.6),
        empathy=rng.uniform(0.2, 0.7),
        technological_resource_constraint=rng.uniform(0.2, 0.5),
        credential=rng.choice((Credential.LOW, Credential.MEDIUM, Credential.HIGH)),
    )
    if model is ModelKind.CSS:
        doctor.social_ties_doctors = _peer_ties(doctor_id, num_doctors, rng)
        doctor.social_ties_patients = rng.randoms(num_patients)
    return doctor


def init_patient(
    patient_id: int, rng: RngStream, model: ModelKind, num_doctors: int, num_patients: int
) -> PatientState:
    """Draw a fresh patient; ``patient_id`` must lie in ``range(num_patients)``."""
    if not 0 <= patient_id < num_patients:
        raise ValueError(f"patient id {patient_id} outside 0..{num_patients - 1}")
    health = rng.uniform(0.5, 1.0)
    resilience = rng.uniform(0.1, 0.4)
    raw_cred = rng.uniform(0.0, 1.0)
    raw_mean = rng.uniform(0.0, 1.0)
    raw_past = rng.uniform(0.0, 2.0)
    total = raw_cred + raw_mean + raw_past
    patient = PatientState(
        patient_id=patient_id,
        health_level=health,
        resilience=resilience,
        cred_weight=raw_cred / total,
        mean_rating_weight=raw_mean / total,
        past_rating_weight=raw_past / total,
    )
    if model is ModelKind.CSS:
        patient.social_ties_doctors = rng.randoms(num_doctors)
        patient.social_ties_patients = _peer_ties(patient_id, num_patients, rng)
    return patient
