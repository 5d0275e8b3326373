"""Classical-model care loop: treatment, credential progression, judgment,
doctor choice, health update, and integer rating.

Free doctors: a doctor serves exactly one patient per round.  The round
keeps a map of its free doctors by id, drops each one that treats, and
:func:`choose_doctor` looks only at that map.

Both models rate from one scale, :func:`health_score`; the classical
rating truncates it to an integer.  :func:`exchange_treatment` is the one
place a patient remembers the doctor who treated it.
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
    free: dict[int, DoctorState],
    ledger: RatingLedger,
    judge: JudgeFn,
) -> int | None:
    """Pick a free doctor's id for a patient who needs care, or None.

    ``free`` maps each doctor id not yet treating this round to its
    doctor.  Loyalty first: when the patient's last doctor carries their
    stored perfect rating of 5 and is free, that doctor is kept
    regardless of judgment scores.  Otherwise the free doctor with the
    highest judgment wins.  Score ties break toward the lowest doctor
    id, in whatever order the map holds its doctors.
    """
    if not needs_doctor(patient) or not free:
        return None
    last = patient.last_doctor_id
    if last in free and ledger.rating_by_patient(last, patient.patient_id) == PERFECT_RATING:
        return last
    best_id = None
    best_score = float("-inf")
    for doctor_id, doctor in free.items():
        score = judge(patient, doctor, ledger)
        if score > best_score or (score == best_score and doctor_id < best_id):
            best_id = doctor_id
            best_score = score
    return best_id


def update_health_level(patient: PatientState, effectiveness: float) -> None:
    """Heal within [0.1, 1.0] and add the new level to the treated-health total."""
    patient.health_level = max(0.1, min(1.0, patient.health_level + effectiveness))
    patient.treated_health_total += patient.health_level
    patient.times_treated += 1


def health_score(patient: PatientState) -> float:
    """Health on the 0..5 rating scale: 5 from the perfect-rating threshold up."""
    if patient.health_level >= PERFECT_RATING_THRESHOLD:
        return float(PERFECT_RATING)
    return max(0.0, PERFECT_RATING * patient.health_level / PERFECT_RATING_THRESHOLD)


def rate_doctor(patient: PatientState, doctor: DoctorState) -> int:
    """Integer rating 0..5 from post-treatment health."""
    return int(health_score(patient))


def exchange_treatment(
    patient: PatientState, doctor: DoctorState, ledger: RatingLedger, confidence: float, rate: RateFn
) -> float:
    """Treat, heal, clear the infection, remember the doctor, and record and
    return ``rate``'s rating."""
    effectiveness = treat_patient(doctor, confidence) * (1.0 - patient.resilience)
    update_health_level(patient, effectiveness)
    patient.is_infected = False
    patient.last_doctor_id = doctor.doctor_id
    rating = rate(patient, doctor)
    ledger.add_rating(doctor.doctor_id, patient.patient_id, rating)
    return float(rating)


def receive_treatment(
    patient: PatientState, doctor: DoctorState, ledger: RatingLedger, confidence: float
) -> float:
    """Full treatment exchange with the integer rating."""
    return exchange_treatment(patient, doctor, ledger, confidence, rate_doctor)
