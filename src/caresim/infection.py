"""Infection spread, triage priority, and the care-seeking predicate."""

from __future__ import annotations

from .agents import PatientState
from .rng import RngStream

INFECTION_SEVERITY = 0.2
NEEDS_DOCTOR_THRESHOLD = 0.6

# A patient is only eligible for a new infection above this health level,
# which keeps everyone alive; the hit itself is still floored at zero.
INFECTION_ELIGIBLE_ABOVE = 0.1


def infect(patient: PatientState, order: int) -> None:
    """Apply one infection; :func:`spread_infection` picks only eligible patients."""
    patient.health_level = max(0.0, patient.health_level - INFECTION_SEVERITY)
    patient.is_infected = True
    patient.infected_order = order


def spread_infection(
    patients: list[PatientState],
    n: int,
    first_order: int,
    rng: RngStream,
) -> int:
    """Infect up to ``n`` distinct eligible patients, sampled uniformly.

    Eligible means not infected and above the health floor; the pool's
    size sets how many draws the sample takes.  Orders run consecutively
    from ``first_order`` in pick order.  Returns the number of infections
    applied.
    """
    eligible = [
        p for p in patients
        if not p.is_infected and p.health_level > INFECTION_ELIGIBLE_ABOVE
    ]
    chosen = rng.sample(eligible, min(n, len(eligible)))
    for order, patient in enumerate(chosen, first_order):
        infect(patient, order)
    return len(chosen)


def priority(patient: PatientState) -> tuple[bool, float, float]:
    """Triage key; populations sort ascending, so infected come first,
    earlier infections before later, lower health before higher."""
    if patient.is_infected:
        return (False, patient.infected_order, patient.health_level)
    return (True, float("inf"), patient.health_level)


def needs_doctor(patient: PatientState) -> bool:
    return patient.health_level < NEEDS_DOCTOR_THRESHOLD
