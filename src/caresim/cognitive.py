"""Cognitive-social-system extensions to the care loop.

Directed tie strengths modulate everything a classical agent would take
at face value: colleague respect feeds doctor confidence, confidence
feeds treatment effectiveness, and patients judge and rate doctors
through their own tie strengths.  Ratings here are one-decimal reals.

Ties and respect rows are lists indexed by peer id.  An agent's own slot
is 0.0, so a weighted sum over every slot needs no self-exclusion.

Respect and confidence are no agent state: the engine's perception
sweep builds the respect matrix, one row per doctor, and returns each
doctor's confidence from it for the round's treatments.
"""

from __future__ import annotations

import math

from .agents import DoctorState, PatientState
from .classical import JUDGMENT_SCORE, PERFECT_RATING, TREATMENT_FACTOR, exchange_treatment, health_score
from .ratings import RatingLedger, tie_weighted_mean

RATING_TIE_BONUS = 0.1


def round_to_tenth(value: float) -> float:
    """Round a non-negative value to one decimal, halves away from zero."""
    return math.floor(value * 10.0 + 0.5) / 10.0


def mean_weighted_respects(doctor: DoctorState, respect: list[list[float]]) -> float:
    """Average respect colleagues hold for this doctor (``respect[c]`` is
    colleague c's row), weighted by the doctor's own tie to each colleague
    in ascending colleague id; zero when all ties are zero."""
    own = doctor.doctor_id
    return tie_weighted_mean(zip((row[own] for row in respect), doctor.social_ties_doctors))


def update_respect_for_colleagues(
    doctor: DoctorState,
    all_doctors: list[DoctorState],
    ledger: RatingLedger,
) -> list[float]:
    """This doctor's respect row over ``all_doctors`` (``all_doctors[i]``
    has id i), with the own slot at 0.0.

    Respect = own tie to the colleague x (colleague's treatment-factor
    credential score + the colleague's ratings weighted by own ties to
    the rating patients).
    """
    own = doctor.doctor_id
    return [
        0.0 if colleague.doctor_id == own else doctor.social_ties_doctors[colleague.doctor_id] * (
            TREATMENT_FACTOR[colleague.credential]
            + ledger.weighted_valuation(colleague.doctor_id, doctor.social_ties_patients)
        )
        for colleague in all_doctors
    ]


def update_confidence(
    doctor: DoctorState,
    ledger: RatingLedger,
    respect: list[list[float]],
) -> float:
    """The doctor's confidence from its tie-weighted ratings and the
    sweep's respect matrix."""
    ratings_part = ledger.mean_weighted_ratings(doctor.doctor_id, doctor.social_ties_patients)
    respects_part = mean_weighted_respects(doctor, respect)
    return doctor.weight_wmrat * ratings_part + doctor.weight_mwres * respects_part


def judge_doctor_css(patient: PatientState, doctor: DoctorState, ledger: RatingLedger) -> float:
    """Tie-weighted judgment of a doctor.

    The credential score is scaled by the patient's tie to the doctor;
    the peer-rating term averages the doctor's stored ratings weighted by
    the patient's ties to the raters (the patient's own rating meets its
    0.0 self slot, so it adds nothing); the past-rating term is the
    patient's own stored rating, unweighted.
    """
    s_doc = patient.social_ties_doctors[doctor.doctor_id]
    peers_part = ledger.mean_weighted_ratings(doctor.doctor_id, patient.social_ties_patients)
    past = ledger.rating_by_patient(doctor.doctor_id, patient.patient_id)
    return (
        patient.cred_weight * (JUDGMENT_SCORE[doctor.credential] * s_doc)
        + patient.mean_rating_weight * peers_part
        + patient.past_rating_weight * (past if past is not None else 0.0)
    )


def rate_doctor_css(patient: PatientState, doctor: DoctorState) -> float:
    """One-decimal rating: the health score boosted by the patient's tie to
    the doctor, capped at 5."""
    strength = patient.social_ties_doctors[doctor.doctor_id]
    adjusted = health_score(patient) * (1.0 + RATING_TIE_BONUS * strength)
    return min(float(PERFECT_RATING), round_to_tenth(adjusted))


def receive_treatment_css(
    patient: PatientState, doctor: DoctorState, ledger: RatingLedger, confidence: float
) -> float:
    """Full treatment exchange with the tie-boosted one-decimal rating;
    the engine passes the doctor's confidence from the round's sweep."""
    return exchange_treatment(patient, doctor, ledger, confidence, rate_doctor_css)
