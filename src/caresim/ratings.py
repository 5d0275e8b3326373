"""Rating store shared by all doctors and patients in a run.

Holds the latest rating each patient gave each doctor, plus each
doctor's most recently arrived rating, which defines recency.
Re-rating a doctor overwrites that patient's entry in the map.
"""

from __future__ import annotations

from types import MappingProxyType

RATING_MIN = 0.0
RATING_MAX = 5.0

# Returned by recent_feedback() for a doctor nobody has rated yet.  It
# sits exactly on the low-feedback branch boundary (< 3), so unrated
# doctors take the gentle mutation path.
NEUTRAL_FEEDBACK = 3.0

_EMPTY: dict[int, float] = {}


def tie_weighted_mean(pairs) -> float:
    """Mean of ``value`` weighted by ``strength`` over ``(value, strength)``
    pairs, summed in iteration order; zero when the strengths sum to zero."""
    weighted = 0.0
    strengths = 0.0
    for value, strength in pairs:
        weighted += value * strength
        strengths += strength
    return weighted / strengths if strengths > 0.0 else 0.0


class RatingLedger:
    def __init__(self):
        self._by_doctor: dict[int, dict[int, float]] = {}
        self._last: dict[int, float] = {}

    def add_rating(self, doctor_id: int, patient_id: int, rating: float) -> None:
        if not RATING_MIN <= rating <= RATING_MAX:
            raise ValueError(f"rating {rating} outside [{RATING_MIN}, {RATING_MAX}]")
        self._by_doctor.setdefault(doctor_id, {})[patient_id] = rating
        self._last[doctor_id] = rating

    def mean_rating(self, doctor_id: int) -> float:
        current = self._by_doctor.get(doctor_id)
        if not current:
            return 0.0
        return sum(current.values()) / len(current)

    def rating_by_patient(self, doctor_id: int, patient_id: int) -> float | None:
        return self._by_doctor.get(doctor_id, _EMPTY).get(patient_id)

    def recent_feedback(self, doctor_id: int) -> float:
        """Most recently arrived rating for the doctor, neutral 3 if none."""
        return self._last.get(doctor_id, NEUTRAL_FEEDBACK)

    def mean_weighted_ratings(self, doctor_id: int, ties: list[float]) -> float:
        """Mean of the doctor's current ratings weighted by ``ties[patient_id]``;
        zero when the doctor is unrated or every rater's tie is zero."""
        return tie_weighted_mean(
            (rating, ties[patient_id])
            for patient_id, rating in self._by_doctor.get(doctor_id, _EMPTY).items()
        )

    def weighted_valuation(self, doctor_id: int, ties: list[float]) -> float:
        """Unnormalized sum of the doctor's ratings weighted by ``ties[patient_id]``,
        a left fold in rating order: ``sum()`` of floats is compensated since
        CPython 3.12, so it would round differently between interpreters."""
        total = 0.0
        for patient_id, rating in self._by_doctor.get(doctor_id, _EMPTY).items():
            total += rating * ties[patient_id]
        return total

    def ratings_for(self, doctor_id: int):
        """Read-only view of the doctor's current per-patient ratings."""
        return MappingProxyType(self._by_doctor.get(doctor_id, _EMPTY))
