"""Classical-model care loop: treatment, credential progression, judgment,
doctor choice, health update, and integer rating.

Busy semantics: a doctor serves exactly one patient per round.  The
engine's round keeps the set of ids that have treated, and
:func:`choose_doctor` skips every id in it.
"""

from __future__ import annotations

from typing import Callable

from .agents import Credential, DoctorState, PatientState
from .infection import needs_doctor
from .ratings import RatingLedger

EFFECTIVENESS_CAP = 0.7
PERFECT_RATING_THRESHOLD = 0.8
PERFECT_RATING = 5

# Credential contribution to treatment effectiveness.
TREATMENT_FACTOR = {
    Credential.LOW: 0.1,
    Credential.MEDIUM: 0.2,
    Credential.HIGH: 0.3,
}

# Credential score patients use when judging a doctor.
JUDGMENT_SCORE = {
    Credential.LOW: 0.1,
    Credential.MEDIUM: 0.5,
    Credential.HIGH: 1.0,
}

JudgeFn = Callable[[PatientState, DoctorState, RatingLedger], float]
RateFn = Callable[[PatientState, DoctorState], float]


def treatment_effectiveness(doctor: DoctorState, confidence: float) -> float:
    """Capped (credential factor + empathy + confidence) x (1 - technology
    constraint).  Confidence is the css sweep's value; classical passes 0.0."""
    raw = (TREATMENT_FACTOR[doctor.credential] + doctor.empathy + confidence) * (
        1.0 - doctor.technological_resource_constraint
    )
    return min(EFFECTIVENESS_CAP, raw)


def upgrade_credential(doctor: DoctorState) -> None:
    """Promote at most one credential step when research and experience allow."""
    if (
        doctor.credential is Credential.LOW
        and doctor.research_ability >= 0.5
        and doctor.experience >= 50
    ):
        doctor.credential = Credential.MEDIUM
    elif (
        doctor.credential is Credential.MEDIUM
        and doctor.research_ability >= 0.8
        and doctor.experience >= 80
    ):
        doctor.credential = Credential.HIGH


def treat_patient(doctor: DoctorState, confidence: float) -> float:
    """Deliver one treatment: gains experience, and may upgrade the credential."""
    effectiveness = treatment_effectiveness(doctor, confidence)
    doctor.experience += 1
    upgrade_credential(doctor)
    return effectiveness


def judge_doctor(patient: PatientState, doctor: DoctorState, ledger: RatingLedger) -> float:
    past = ledger.rating_by_patient(doctor.doctor_id, patient.patient_id)
    return (
        patient.cred_weight * JUDGMENT_SCORE[doctor.credential]
        + patient.mean_rating_weight * ledger.mean_rating(doctor.doctor_id)
        + patient.past_rating_weight * (past if past is not None else 0.0)
    )


def choose_doctor(
    patient: PatientState,
    doctors: list[DoctorState],
    ledger: RatingLedger,
    judge: JudgeFn,
    busy: set[int],
) -> int | None:
    """Pick a doctor id for a patient who needs care, or None.

    A doctor whose id is in ``busy`` (ids of ``doctors`` only) has treated
    this round and is not free.  Loyalty first: when the patient's last
    doctor carries their stored perfect rating of 5 and is free, that
    doctor is kept regardless of judgment scores.  Otherwise the free
    doctor with the highest judgment wins.  Score ties break toward the
    lowest doctor id.
    """
    if not needs_doctor(patient) or len(busy) == len(doctors):
        return None
    last = patient.last_doctor_id
    if (last is not None and last not in busy
            and ledger.rating_by_patient(last, patient.patient_id) == PERFECT_RATING):
        return last
    best_id = None
    best_score = float("-inf")
    for doctor in doctors:
        if doctor.doctor_id in busy:
            continue
        score = judge(patient, doctor, ledger)
        if score > best_score or (score == best_score and doctor.doctor_id < best_id):
            best_id = doctor.doctor_id
            best_score = score
    return best_id


def update_health_level(patient: PatientState, effectiveness: float) -> None:
    patient.health_level = max(0.1, min(1.0, patient.health_level + effectiveness))
    patient.health_history.append(patient.health_level)


def rate_doctor(patient: PatientState, doctor: DoctorState) -> int:
    """Integer rating 0..5 from post-treatment health; remembers the doctor."""
    if patient.health_level >= PERFECT_RATING_THRESHOLD:
        rating = PERFECT_RATING
    else:
        rating = max(0, int(PERFECT_RATING * patient.health_level / PERFECT_RATING_THRESHOLD))
    patient.last_doctor_id = doctor.doctor_id
    return rating


def exchange_treatment(
    patient: PatientState, doctor: DoctorState, ledger: RatingLedger, confidence: float, rate: RateFn
) -> float:
    """Treat, heal, clear the infection, and record and return ``rate``'s rating."""
    effectiveness = treat_patient(doctor, confidence) * (1.0 - patient.resilience)
    update_health_level(patient, effectiveness)
    patient.is_infected = False
    rating = rate(patient, doctor)
    ledger.add_rating(doctor.doctor_id, patient.patient_id, rating)
    return float(rating)


def receive_treatment(
    patient: PatientState, doctor: DoctorState, ledger: RatingLedger, confidence: float
) -> float:
    """Full treatment exchange with the integer rating."""
    return exchange_treatment(patient, doctor, ledger, confidence, rate_doctor)
