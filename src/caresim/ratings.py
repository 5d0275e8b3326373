"""Rating store shared by all doctors and patients in a run.

Holds the latest rating each patient gave each doctor, plus each
doctor's most recently arrived rating, which defines recency.
Re-rating a doctor overwrites that patient's entry in the map.

It also caches each evaluating doctor's css respect valuations (see
``cached_valuations``), keyed to a per-doctor revision that every
``add_rating`` bumps.
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
        self._revision: dict[int, int] = {}
        # evaluator id -> (ties valued against, {doctor id: revision}, {doctor id: valuation})
        self._valuation_rows: dict[int, tuple[dict, dict[int, int], dict[int, float]]] = {}

    def add_rating(self, doctor_id: int, patient_id: int, rating: float) -> None:
        if not RATING_MIN <= rating <= RATING_MAX:
            raise ValueError(f"rating {rating} outside [{RATING_MIN}, {RATING_MAX}]")
        self._by_doctor.setdefault(doctor_id, {})[patient_id] = rating
        self._last[doctor_id] = rating
        self._revision[doctor_id] = self._revision.get(doctor_id, 0) + 1

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

    def mean_weighted_ratings(self, doctor_id: int, ties: dict[int, float]) -> float:
        """Tie-weighted mean of the doctor's current ratings; zero when the
        doctor is unrated or every rater's tie is zero."""
        return tie_weighted_mean(
            (rating, ties.get(patient_id, 0.0))
            for patient_id, rating in self._by_doctor.get(doctor_id, _EMPTY).items()
        )

    def weighted_valuation(self, doctor_id: int, ties: dict[int, float]) -> float:
        """Unnormalized sum of the doctor's ratings weighted by the evaluator's ties."""
        current = self._by_doctor.get(doctor_id)
        if not current:
            return 0.0
        return sum(rating * ties.get(patient_id, 0.0) for patient_id, rating in current.items())

    def cached_valuations(
        self, evaluator_id: int, doctor_ids, ties: dict[int, float]
    ) -> dict[int, float]:
        """``weighted_valuation(d, ties)`` by doctor id for every ``d`` in
        ``doctor_ids``.  A value computed for this evaluator is reused while
        doctor ``d`` has not been rated since and ``ties`` still equals the
        ties the evaluator's row was valued against.  The returned map is
        the cache row itself: read it, do not modify it."""
        row = self._valuation_rows.get(evaluator_id)
        if row is None or row[0] != ties:
            row = self._valuation_rows[evaluator_id] = (dict(ties), {}, {})
        _, revisions, values = row
        for doctor_id in doctor_ids:
            revision = self._revision.get(doctor_id, 0)
            if revisions.get(doctor_id) != revision:
                values[doctor_id] = self.weighted_valuation(doctor_id, ties)
                revisions[doctor_id] = revision
        return values

    def ratings_for(self, doctor_id: int):
        """Read-only view of the doctor's current per-patient ratings."""
        return MappingProxyType(self._by_doctor.get(doctor_id, _EMPTY))
