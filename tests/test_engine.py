import dataclasses

import pytest

from caresim import (
    ModelKind,
    SimulationConfig,
    capture_snapshot,
    derive_run_seed,
    init_run_state,
    preset_single_run,
    run_batch,
    run_round,
    run_simulation,
)
from caresim import classical, cognitive, engine, evolution
from caresim.cli import main as cli_main
from caresim.config import ConfigError
from caresim.engine import METRIC_FIELDS, aggregate_rounds
from caresim.evolution import fitness_doctor, fitness_patient
from caresim.infection import needs_doctor
from support import (
    check_doctor_invariants, check_patient_invariants, check_respect_rows, peak_traced_bytes, run_to_end,
)


def small_config(model="classical", **overrides):
    base = dict(
        model=model,
        num_doctors=6,
        num_patients=20,
        num_rounds=8,
        num_infected_per_round=10,
        num_repeats=1,
        base_seed=5,
    )
    base.update(overrides)
    return SimulationConfig(**base)


def test_invalid_configs_rejected():
    with pytest.raises(ConfigError, match=r"model must be one of \['classical', 'css'\], got 'bogus'"):
        small_config("bogus")
    with pytest.raises(ConfigError):
        small_config(num_doctors=0)
    with pytest.raises(ConfigError):
        small_config(num_infected_per_round=21)
    with pytest.raises(ConfigError):
        small_config(tournament_size=7)
    with pytest.raises(ConfigError):
        small_config(num_elites=6)
    with pytest.raises(ConfigError):
        small_config(snapshot_every=2)  # classical cannot snapshot
    with pytest.raises(ConfigError):
        run_simulation(small_config(num_rounds=-1), 1)
    for field, value in (
        ("tournament_size", 2.5),
        ("num_elites", 0.5),
        ("tournaments_per_round", 1.5),
        ("base_seed", 1.5),
        ("snapshot_every", 2.5),
    ):
        with pytest.raises(ConfigError, match=f"{field} must be an integer"):
            small_config("css", **{field: value})
    # bool is an int subclass, but no count or chance takes one.
    for field, value in (
        ("num_repeats", True),
        ("num_elites", False),
        ("snapshot_every", True),
    ):
        with pytest.raises(ConfigError, match=f"{field} must be an integer"):
            small_config("css", **{field: value})
    for field, value in (
        ("crossover_chance", True),
        ("mutation_chance", "0.5"),
    ):
        with pytest.raises(ConfigError, match=f"{field} must be a number"):
            small_config("css", **{field: value})
    # The RNG masks seeds to 64 bits, so 2**64 would alias seed 0.
    small_config(base_seed=2**64 - 1)
    for seed in (-1, 2**64):
        with pytest.raises(ConfigError, match="base_seed must be a non-negative 64-bit integer"):
            small_config(base_seed=seed)


@pytest.mark.parametrize("field, value, message", [
    ("num_repeats", 0, "num_repeats must be at least 1"),
    ("num_infected_per_round", -1, "num_infected_per_round must be non-negative"),
    ("mutation_chance", 1.5, "mutation_chance must lie in [0, 1]"),
    ("crossover_chance", -0.1, "crossover_chance must lie in [0, 1]"),
    ("tournaments_per_round", 0, "tournaments_per_round must be positive when given"),
    ("snapshot_every", -1, "snapshot_every must be non-negative"),
])
def test_out_of_range_value_is_rejected_with_its_message(field, value, message):
    with pytest.raises(ConfigError) as info:
        small_config("css", **{field: value})
    assert str(info.value) == message


# The integer fields in the order the config checks them, written out here
# so that a reordered check changes which field an error names.
INTEGER_CHECK_ORDER = ("num_doctors", "num_patients", "num_rounds", "num_infected_per_round",
                       "num_repeats", "tournament_size", "num_elites", "base_seed",
                       "snapshot_every", "tournaments_per_round")


def test_first_non_integer_in_check_order_is_named():
    for first, name in enumerate(INTEGER_CHECK_ORDER):
        bad = {later: 1.5 for later in INTEGER_CHECK_ORDER[first:]}
        with pytest.raises(ConfigError) as info:
            small_config("css", **bad)
        assert str(info.value) == f"{name} must be an integer, got 1.5"


def test_config_fields_cannot_be_assigned():
    # Configs are checked only when built, so none may change afterwards.
    cfg = small_config()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.num_doctors = 0
    assert cfg.num_doctors == 6


def test_replace_checks_the_new_config():
    with pytest.raises(ConfigError, match="population sizes must be positive"):
        dataclasses.replace(small_config(), num_doctors=0)


def test_default_chances_follow_model():
    assert small_config("classical").mutation_chance == 0.5
    assert small_config("classical").crossover_chance == 0.3
    assert small_config("css").mutation_chance == 0.01
    assert small_config("css").crossover_chance == 0.5


def test_tournaments_per_round_default_scales_with_population():
    cfg = small_config()
    assert cfg.tournaments_for(100) == 10
    assert cfg.tournaments_for(15) == 2
    assert small_config(tournaments_per_round=4).tournaments_for(1000) == 4


@pytest.mark.parametrize("model", ["classical", "css"])
def test_round_fitness_means_match_end_of_round_populations(model):
    # run_round scores each agent once, before the GA step, and reuses the
    # scores for the metric means.  That is only sound if neither variation
    # nor the elite restore moves a fitness input; high chances and pairwise
    # tournaments against two elites exercise both.
    cfg = small_config(model, num_rounds=15, num_elites=2, tournament_size=2,
                       mutation_chance=1.0, crossover_chance=1.0)
    state = init_run_state(cfg, derive_run_seed(cfg.base_seed, 0))
    for round_index in range(1, cfg.num_rounds + 1):
        metrics = run_round(state, round_index)
        doctor_scores = [fitness_doctor(d, state.ledger) for d in state.doctors]
        patient_scores = [fitness_patient(p) for p in state.patients]
        assert metrics.doctor_fitness == sum(doctor_scores) / len(doctor_scores)
        assert metrics.patient_fitness == sum(patient_scores) / len(patient_scores)


def test_round_treatments_bounded_by_doctors():
    cfg = preset_single_run("classical", base_seed=11)
    state = init_run_state(cfg, derive_run_seed(11, 0))
    for round_index in range(1, 21):
        metrics = run_round(state, round_index)
        assert metrics.treatments_performed <= cfg.num_doctors
        assert metrics.infections_applied <= cfg.num_infected_per_round
        assert metrics.untreated_seekers <= cfg.num_patients


def test_empty_round_still_emits_metrics():
    cfg = small_config(num_infected_per_round=0)
    state = init_run_state(cfg, 42)
    for patient in state.patients:
        patient.health_level = 0.9
    metrics = run_round(state, 1)
    assert metrics.treatments_performed == 0
    assert metrics.untreated_seekers == 0
    assert metrics.infections_applied == 0
    assert 0.0 <= metrics.patient_fitness <= 1.0


def test_saturated_round_leaves_seekers_untreated():
    cfg = small_config(num_doctors=3, num_infected_per_round=20, tournament_size=3)
    state = init_run_state(cfg, 1)
    for patient in state.patients:
        patient.health_level = 0.5
    metrics = run_round(state, 1)
    assert metrics.treatments_performed == 3
    assert metrics.untreated_seekers == 20 - 3


@pytest.mark.parametrize("model", ["classical", "css"])
def test_round_treats_each_doctor_once_with_the_sweep_confidence(monkeypatch, model):
    # The round owns the map of free doctors and the confidence list: each
    # doctor treats at most once per round, with the round sweep's
    # confidence for it (css) or exactly 0.0 (classical).  Another doctor's
    # treatment changes only that doctor's ratings and credential, which
    # this doctor's confidence does not read, so a sweep at the moment of
    # the treatment must give the value the round's sweep passed.  Early
    # rounds have more seekers than doctors, so the free map empties.
    cfg = small_config(model, num_patients=30, num_rounds=12, num_infected_per_round=12,
                       mutation_chance=0.6, crossover_chance=0.6, tournaments_per_round=3)
    state = init_run_state(cfg, 11)
    owner, name = ((cognitive, "receive_treatment_css") if model == "css"
                   else (classical, "receive_treatment"))
    original = getattr(owner, name)
    treated = []

    def checked(patient, doctor, ledger, confidence):
        assert doctor.doctor_id not in treated
        if model == "css":
            fresh = engine.refresh_social_perception(state.doctors, ledger)
            assert confidence == fresh[doctor.doctor_id]
        else:
            assert confidence == 0.0
        treated.append(doctor.doctor_id)
        return original(patient, doctor, ledger, confidence)

    monkeypatch.setattr(owner, name, checked)
    saturated = 0
    for round_index in range(1, cfg.num_rounds + 1):
        treated.clear()
        metrics = run_round(state, round_index)
        assert len(treated) == metrics.treatments_performed
        saturated += metrics.untreated_seekers > 0
    assert saturated >= 3


@pytest.mark.parametrize("model", ["classical", "css"])
def test_infection_orders_continue_the_run_count(model):
    # Triage ranks infected patients by infection order, so the orders of a
    # run's infected patients must stay distinct across rounds: each round
    # continues from the run's count.  Seekers go untreated only once every
    # doctor has treated.
    cfg = small_config(model, num_patients=30, num_rounds=12, num_infected_per_round=12)
    state = init_run_state(cfg, 11)
    metrics = []
    for round_index in range(1, cfg.num_rounds + 1):
        metrics.append(run_round(state, round_index))
        orders = [p.infected_order for p in state.patients if p.is_infected]
        assert len(set(orders)) == len(orders)
        assert all(order < state.infections for order in orders)
        assert state.infections == sum(m.infections_applied for m in metrics)
        if metrics[-1].untreated_seekers > 0:
            assert metrics[-1].treatments_performed == cfg.num_doctors
    assert sum(m.untreated_seekers > 0 for m in metrics) >= 3
    assert state.infections > cfg.num_patients


def test_run_simulation_zero_rounds():
    cfg = small_config(num_rounds=0)
    result = run_simulation(cfg, 9)
    assert result.metrics == []
    assert result.last_active_round == 0
    assert result.latent_infected == 0
    state, metrics = run_to_end(cfg, 9)
    assert metrics == []
    assert len(state.doctors) == 6
    assert len(state.patients) == 20


@pytest.mark.parametrize("model, last_active", [("classical", 10), ("css", 5)])
def test_paper_single_care_drains_into_latent_infection(model, last_active):
    # Pins the absorbing state: after the last treatment every patient is
    # infected yet at or above the care threshold, so nobody seeks care again.
    config = preset_single_run(model, base_seed=123)
    run = run_batch(config).runs[0]
    assert run.last_active_round == last_active
    assert all(m.treatments_performed == 0 for m in run.metrics[last_active:])
    assert run.latent_infected == 100 == config.num_patients


# A small css run whose round 5 is the first with no infection and no
# seeker: every patient is infected and none is below the care threshold.
LATENT_CSS = small_config("css", num_doctors=4, num_patients=16, num_rounds=10,
                          num_infected_per_round=16, tournament_size=2, crossover_chance=1.0)
LATENT_SEED = 2
# No infections at all: rounds 1-4 still have seekers (patients that start
# below the care threshold wait for the two doctors), and round 5 has none.
UNINFECTED_CSS = dataclasses.replace(LATENT_CSS, num_doctors=2, num_patients=20, num_rounds=6,
                                     num_infected_per_round=0)


def all_latent_onset(metrics) -> int:
    """First round with no infection and no seeker (treated or not)."""
    return next(m.round_index for m in metrics
                if m.infections_applied == m.treatments_performed == m.untreated_seekers == 0)


def count_tie_averaging(monkeypatch) -> list[list[int]]:
    """Per round driven through ``engine.run_round``: [applied crossovers,
    ``_average_ties`` calls].  A crossover applies when its inner chance hits."""
    rounds = []
    real_average, real_run_round = evolution._average_ties, engine.run_round

    class InnerChance:
        def __init__(self, rng):
            self.rng = rng

        def chance(self, probability):
            hit = self.rng.chance(probability)
            rounds[-1][0] += hit
            return hit

    def average(*args):
        rounds[-1][1] += 1
        return real_average(*args)

    def counted_round(state, round_index):
        rounds.append([0, 0])
        return real_run_round(state, round_index)

    def recording(crossover):
        return lambda loser, winner, rng, average_ties: crossover(
            loser, winner, InnerChance(rng), average_ties)

    monkeypatch.setattr(evolution, "_average_ties", average)
    monkeypatch.setattr(engine, "run_round", counted_round)
    monkeypatch.setattr(engine, "crossover_patient", recording(evolution.crossover_patient))
    monkeypatch.setattr(engine, "crossover_doctor", recording(evolution.crossover_doctor))
    return rounds


@pytest.mark.parametrize("cfg, seed", [(LATENT_CSS, LATENT_SEED), (UNINFECTED_CSS, 4)])
def test_run_simulation_skips_tie_averaging_once_all_latent(monkeypatch, cfg, seed):
    onset = all_latent_onset(run_simulation(cfg, seed).metrics)
    assert onset == 5 < cfg.num_rounds
    rounds = count_tie_averaging(monkeypatch)
    run_simulation(cfg, seed)
    assert len(rounds) == cfg.num_rounds
    # Each applied crossover averages its two tie lists until the state
    # begins, and none does from then on, though crossovers still apply.
    before, after = rounds[:onset - 1], rounds[onset - 1:]
    assert [calls for _, calls in before] == [2 * applied for applied, _ in before]
    assert [calls for _, calls in after] == [0] * len(after)
    assert min(sum(applied for applied, _ in part) for part in (before, after)) > 0

    # Driven round by round, the public API makes the same calls in every round.
    simulated = rounds.copy()
    rounds.clear()
    state = init_run_state(cfg, seed)
    for round_index in range(1, cfg.num_rounds + 1):
        engine.run_round(state, round_index)
    assert rounds == simulated


def test_snapshot_after_the_all_latent_state_begins_holds_averaged_ties():
    cfg = dataclasses.replace(LATENT_CSS, snapshot_every=4)  # rounds 4 and 8
    taken = []
    result = run_simulation(cfg, LATENT_SEED, taken.append)
    onset = all_latent_onset(result.metrics)
    assert [s.round_index for s in taken] == [4, 8]
    assert onset < 8 < cfg.num_rounds  # the state began before the last snapshot

    state = init_run_state(cfg, LATENT_SEED)
    skipped = init_run_state(dataclasses.replace(cfg, snapshot_every=0), LATENT_SEED)
    expected = []
    for round_index in range(1, 9):
        run_round(state, round_index)
        run_round(skipped, round_index)
        if round_index % 4 == 0:
            expected.append(capture_snapshot(state, round_index))
    assert taken == expected
    # The run without a schedule skipped averaging from the onset on, so
    # its round-8 capture would hold other ties; it is refused instead.
    assert skipped.ties_unaveraged_from == onset
    with pytest.raises(ValueError, match=f"round {onset} on.*snapshot_every"):
        capture_snapshot(skipped, 8)


def plain_snapshot_edges(state):
    """Capture's edge layout, slot by slot: sources doctors then patients,
    each agent's doctor ties then patient ties, without its own slot."""
    edges = []
    for kind, agents in (("d", state.doctors), ("p", state.patients)):
        for own, agent in enumerate(agents):
            for peer_kind, ties in (("d", agent.social_ties_doctors), ("p", agent.social_ties_patients)):
                for slot, strength in enumerate(ties):
                    if (peer_kind, slot) != (kind, own):
                        edges.append((f"{kind}{own}", f"{peer_kind}{slot}", round(strength, 6)))
    return edges


@pytest.mark.parametrize("doctors, patients, rounds", [(1, 7, 3), (2, 1, 0), (3, 17, 4), (11, 5, 2)])
def test_capture_matches_a_plain_nested_loop(doctors, patients, rounds):
    cfg = small_config("css", num_doctors=doctors, num_patients=patients, num_rounds=rounds,
                       num_infected_per_round=min(patients, 3), tournament_size=1,
                       num_elites=0, crossover_chance=1.0, snapshot_every=max(rounds, 1))
    state = init_run_state(cfg, 11)
    for round_index in range(1, rounds + 1):
        run_round(state, round_index)
    snapshot = capture_snapshot(state, rounds)
    assert snapshot.round_index == rounds
    assert snapshot.nodes == ([(f"d{i}", "doctor") for i in range(doctors)]
                              + [(f"p{i}", "patient") for i in range(patients)])
    expected = plain_snapshot_edges(state)
    assert len(expected) == (doctors + patients) * (doctors + patients - 1)
    assert snapshot.edges == expected


def test_run_is_deterministic():
    cfg = small_config("css")
    a = run_simulation(cfg, 123)
    b = run_simulation(cfg, 123)
    assert a.metrics == b.metrics
    assert a.latent_infected == b.latent_infected
    state_a, metrics_a = run_to_end(cfg, 123)
    state_b, metrics_b = run_to_end(cfg, 123)
    assert metrics_a == metrics_b == a.metrics
    assert state_a.doctors == state_b.doctors
    assert state_a.patients == state_b.patients


def test_different_seeds_differ():
    cfg = small_config()
    a = run_simulation(cfg, 1)
    b = run_simulation(cfg, 2)
    assert a.metrics != b.metrics


def test_metrics_stay_within_trait_bounds():
    for model in ("classical", "css"):
        result = run_simulation(small_config(model), 77)
        for row in result.metrics:
            assert 0.0 <= row.doctor_fitness <= 5.0
            assert 0.0 <= row.patient_fitness <= 1.0
            for name in ("research_ability", "empathy", "weight_wmrat", "weight_mwres",
                         "cred_weight", "mean_rating_weight", "past_rating_weight"):
                assert 0.0 <= getattr(row, name) <= 1.0
            assert 0.1 <= row.resilience <= 0.4


def test_invariants_hold_after_full_run():
    for model in ("classical", "css"):
        cfg = small_config(model)
        sizes = (cfg.num_doctors, cfg.num_patients)
        state, metrics = run_to_end(cfg, 31)
        result = run_simulation(cfg, 31)
        assert result.metrics == metrics
        # run_simulation counts the latent patients of the population it drops.
        assert result.latent_infected == sum(
            p.is_infected and not needs_doctor(p) for p in state.patients
        )
        for doctor in state.doctors:
            check_doctor_invariants(doctor, *sizes)
            if model == "classical":
                # The shared crossover averages weights and ties, so a
                # classical doctor must never hold ties, and its weights
                # must stay at 0.5.
                assert doctor.social_ties_doctors == []
                assert doctor.social_ties_patients == []
                assert (doctor.weight_wmrat, doctor.weight_mwres) == (0.5, 0.5)
        if model == "css":
            check_respect_rows(state.doctors, state.ledger)
        for patient in state.patients:
            check_patient_invariants(patient, *sizes)
            if model == "classical":
                # The shared patient mutation skips the tie step (and its
                # draw) only for a patient without ties.
                assert patient.social_ties_doctors == []
                assert patient.social_ties_patients == []


def test_snapshots_follow_interval():
    cfg = preset_single_run("css", base_seed=3, snapshot_every=5)
    snapshots = []
    run_simulation(cfg, derive_run_seed(3, 0), snapshots.append)
    assert [s.round_index for s in snapshots] == [5, 10, 15, 20]
    snapshot = snapshots[0]
    assert len(snapshot.nodes) == 115
    assert len(snapshot.edges) == 115 * 114
    assert all(0.0 <= strength <= 1.0 for _, _, strength in snapshot.edges)


def test_classical_run_never_snapshots():
    snapshots = []
    run_simulation(small_config(), 3, snapshots.append)
    assert snapshots == []


def test_snapshot_schedule_without_sink_is_rejected_before_round_one(monkeypatch):
    rounds = []
    inits = []
    real_run_round = engine.run_round
    real_init = engine.init_run_state
    monkeypatch.setattr(engine, "run_round",
                        lambda state, r: rounds.append(r) or real_run_round(state, r))
    # Full-scale css init draws 1.2M ties, so the sink is checked before it.
    monkeypatch.setattr(engine, "init_run_state",
                        lambda config, seed: inits.append(seed) or real_init(config, seed))
    cfg = small_config("css", num_repeats=2, snapshot_every=2)
    with pytest.raises(ValueError, match="no on_snapshot sink"):
        run_simulation(cfg, 1)
    with pytest.raises(ValueError, match="no on_snapshot sink"):
        run_batch(cfg)
    assert rounds == []
    assert inits == []


def test_batch_passes_snapshots_to_sink_in_repeat_order():
    cfg = small_config("css", num_rounds=20, num_repeats=2, snapshot_every=5)
    calls = []
    batch = run_batch(cfg, lambda repeat, snapshot: calls.append((repeat, snapshot)))
    assert [(repeat, s.round_index) for repeat, s in calls] == [
        (repeat, r) for repeat in (0, 1) for r in (5, 10, 15, 20)
    ]
    for repeat in (0, 1):
        direct = []
        run = run_simulation(cfg, derive_run_seed(cfg.base_seed, repeat), direct.append)
        assert run == batch.runs[repeat]
        assert [s for r, s in calls if r == repeat] == direct


def test_batch_single_repeat_matches_run_with_zero_std():
    cfg = small_config(num_repeats=1)
    batch = run_batch(cfg)
    single = run_simulation(cfg, derive_run_seed(cfg.base_seed, 0))
    assert batch.runs[0].metrics == single.metrics
    for agg, row in zip(batch.aggregates, single.metrics):
        for name in METRIC_FIELDS:
            assert agg.mean[name] == pytest.approx(float(getattr(row, name)), abs=1e-12)
            assert agg.std[name] == 0.0


def test_batch_aggregation_permutation_invariant():
    cfg = small_config(num_repeats=3)
    batch = run_batch(cfg)
    series = [run.metrics for run in batch.runs]
    shuffled = [series[2], series[0], series[1]]
    direct = aggregate_rounds(series, cfg.model)
    permuted = aggregate_rounds(shuffled, cfg.model)
    for a, b in zip(direct, permuted):
        for name in METRIC_FIELDS:
            assert a.mean[name] == pytest.approx(b.mean[name], abs=1e-12)
            assert a.std[name] == pytest.approx(b.std[name], abs=1e-12)


def test_aggregate_rounds_needs_equal_length_series():
    series = run_simulation(small_config(num_rounds=3), 1).metrics
    assert aggregate_rounds([], ModelKind.CLASSICAL) == []
    for runs in ([series, series[:2]], [series[:2], series]):
        with pytest.raises(ValueError):
            aggregate_rounds(runs, ModelKind.CLASSICAL)


def test_batch_mean_of_constant_field_is_constant():
    cfg = small_config(num_repeats=4)
    batch = run_batch(cfg)
    # Confidence weights never change in the classical model.
    for agg in batch.aggregates:
        assert agg.mean["weight_wmrat"] == pytest.approx(0.5, abs=1e-12)
        assert agg.std["weight_wmrat"] == 0.0


def test_batch_runs_are_independent_of_each_other():
    cfg = small_config(num_repeats=2)
    batch = run_batch(cfg)
    solo = run_simulation(cfg, derive_run_seed(cfg.base_seed, 1))
    assert batch.runs[1].metrics == solo.metrics


def test_batch_memory_does_not_grow_with_repeats():
    # A finished repeat leaves only its metrics and latent count behind.
    def peak(repeats):
        cfg = SimulationConfig(model="css", num_doctors=30, num_patients=300, num_rounds=5,
                               num_infected_per_round=60, num_repeats=repeats, base_seed=5)
        return peak_traced_bytes(lambda: run_batch(cfg))

    assert peak(4) <= 1.25 * peak(1)


def test_cli_memory_does_not_grow_with_snapshots(tmp_path, capsys):
    # The CLI writes each snapshot as it is captured instead of holding them all.
    def peak(every):
        argv = ["--preset", "paper-single", "--model", "css", "--seed", "3",
                "--snapshot-every", str(every), "--out", str(tmp_path / f"every{every}")]

        def call():
            assert cli_main(argv) == 0

        return peak_traced_bytes(call)

    assert peak(1) <= 1.25 * peak(20)
    capsys.readouterr()
