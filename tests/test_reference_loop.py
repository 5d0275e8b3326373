"""The engine against the plain round loop in ``reference_loop``, at full
precision, on random small configs of both models."""

import ast
import dataclasses
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from caresim import ModelKind, SimulationConfig, capture_snapshot, init_run_state, run_round, run_simulation
from caresim.infection import needs_doctor
from reference_loop import reference_run

ORCHESTRATION = {"run_round", "evolve_population", "tournament_select", "choose_doctor",
                 "spread_infection", "sample"}

chances = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@st.composite
def configs(draw):
    model = draw(st.sampled_from(list(ModelKind)))
    num_doctors = draw(st.integers(1, 12))
    num_patients = draw(st.integers(1, 40))
    num_rounds = draw(st.integers(0, 12))
    smallest = min(num_doctors, num_patients)
    return SimulationConfig(
        model=model,
        num_doctors=num_doctors,
        num_patients=num_patients,
        num_rounds=num_rounds,
        # None or all: a run without infections (where seekers alone decide
        # the tie skip) or one that infects everyone and goes latent soon.
        num_infected_per_round=draw(st.sampled_from([0, num_patients]) | st.integers(0, num_patients)),
        mutation_chance=draw(chances),
        crossover_chance=draw(chances),
        tournament_size=draw(st.integers(1, smallest)),
        num_elites=draw(st.integers(0, smallest - 1)),
        tournaments_per_round=draw(st.none() | st.integers(1, 12)),
        snapshot_every=draw(st.integers(0, num_rounds + 1)) if model is ModelKind.CSS else 0,
    )


def ledger_view(ledger, num_doctors, num_patients):
    return [
        (ledger.mean_rating(d), ledger.recent_feedback(d),
         [ledger.rating_by_patient(d, p) for p in range(num_patients)])
        for d in range(num_doctors)
    ]


# Hand cases that every run checks, so a tie skip or a score freeze in a
# round that still changes health fails every time: css runs that go
# all-latent in round 5 with every patient infected (seed 2) or with no
# infection at all, where seekers alone keep rounds 1-4 active (seed 4),
# and a classical run whose one infection a round often lands in a round
# without a seeker (seed 0).
HAND = SimulationConfig(model="css", num_doctors=4, num_patients=16, num_rounds=10,
                        num_infected_per_round=16, tournament_size=2, crossover_chance=1.0)


@settings(max_examples=300, deadline=None)
@given(configs(), st.integers(0, 2**64 - 1))
@example(HAND, 2)
@example(dataclasses.replace(HAND, num_doctors=2, num_patients=20, num_rounds=6, num_infected_per_round=0), 4)
@example(dataclasses.replace(HAND, model="classical", num_infected_per_round=1), 0)
def test_engine_matches_the_reference_loop(cfg, run_seed):
    reference = reference_run(cfg, run_seed)

    # The public round driver on the config itself: every round's metrics,
    # then the final agents, ledger and RNG state.  The reference recomputes
    # every score in every round and skips tie averaging by its own rule, so
    # a score table frozen or a tie skip taken in the wrong round shows here.
    state = init_run_state(cfg, run_seed)
    snapshots = {}
    for round_index, expected in enumerate(reference.metrics, 1):
        assert run_round(state, round_index) == expected, f"round {round_index}"
        if cfg.snapshot_every and round_index % cfg.snapshot_every == 0:
            snapshots[round_index] = capture_snapshot(state, round_index)
    assert state.doctors == reference.doctors
    assert state.patients == reference.patients
    sizes = (cfg.num_doctors, cfg.num_patients)
    assert ledger_view(state.ledger, *sizes) == ledger_view(reference.ledger, *sizes)
    assert state.rng.getstate() == reference.rng.getstate()

    # run_simulation makes the same rounds; its metrics and snapshots stay
    # those of the plain loop.
    taken = []
    result = run_simulation(cfg, run_seed, taken.append if cfg.snapshot_every else None)
    assert result.metrics == reference.metrics
    assert result.latent_infected == sum(
        1 for p in reference.patients if p.is_infected and not needs_doctor(p))
    assert {s.round_index: s for s in taken} == snapshots


def test_reference_loop_calls_no_engine_orchestration():
    tree = ast.parse(Path(__file__).with_name("reference_loop.py").read_text())
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    names |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
              for alias in node.names}
    assert names & ORCHESTRATION == set()

