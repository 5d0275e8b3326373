"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Criteria 4-6 share a
module-scoped pair of full-scale batches (10 repeats per model) and take a
few minutes; everything else is fast.
"""

import copy
import dataclasses
import time

import pytest

from caresim import (
    Credential,
    ModelKind,
    RatingLedger,
    RngStream,
    SimulationConfig,
    derive_run_seed,
    init_patient,
    init_run_state,
    preset_full_scale,
    preset_single_run,
    run_batch,
    run_round,
    run_simulation,
)
from caresim import classical as cl
from caresim import cognitive as cog
from caresim import engine
from caresim import evolution as evo
from caresim.cli import main as cli_main
from caresim.infection import infect, needs_doctor, priority, spread_infection
from support import (
    StubRng,
    check_doctor_invariants,
    check_patient_invariants,
    check_respect_rows,
    exhaustive_choose,
    ga_config,
    make_doctor,
    make_patient,
)

ACCEPTANCE_BASE_SEED = 7
FULL_SCALE_REPEATS = 10


def report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" - {detail}" if detail else ""
    print(f"ACCEPTANCE {number} ({name}): {status}{suffix}")
    assert ok, f"criterion {number} ({name}) failed{suffix}"


# --------------------------------------------------------------------------
# Criterion 1: equation oracle suite (hand-derived and quoted values).
# --------------------------------------------------------------------------

def _ledger(*entries):
    ledger = RatingLedger()
    for doctor, patient, rating in entries:
        ledger.add_rating(doctor, patient, rating)
    return ledger


def _example_initialization():
    from caresim import init_doctor

    rng = RngStream(13)
    for _ in range(50):
        doctor = init_doctor(0, rng, ModelKind.CLASSICAL, 2, 3)
        assert 0.2 <= doctor.research_ability <= 0.6
        assert doctor.personal_resource == pytest.approx(0.2)
        patient = init_patient(0, rng, ModelKind.CLASSICAL, 1, 3)
        assert 0.1 <= patient.resilience <= 0.4
        total = patient.cred_weight + patient.mean_rating_weight + patient.past_rating_weight
        assert abs(total - 1.0) <= 1e-9


def _example_past_weight_monte_carlo():
    import random as stdlib_random

    gen = stdlib_random.Random(99)
    oracle = sum(
        (past := 2.0 * gen.random()) / (gen.random() + gen.random() + past)
        for _ in range(10_000)
    ) / 10_000
    rng = RngStream(2024)
    empirical = sum(
        init_patient(0, rng, ModelKind.CLASSICAL, 1, 2).past_rating_weight
        for _ in range(10_000)
    ) / 10_000
    assert abs(empirical - oracle) <= 0.02


def _example_seed_mix():
    assert derive_run_seed(0, 0) == 16294208416658607535
    assert derive_run_seed(5, 1) != derive_run_seed(5, 0)
    assert derive_run_seed(5, 1) == derive_run_seed(5, 1)


def _example_ratings():
    ledger = _ledger((1, 1, 2), (1, 1, 4))
    assert ledger.rating_by_patient(1, 1) == 4
    assert RatingLedger().mean_rating(1) == 0
    assert _ledger((1, 1, 5), (1, 2, 3)).mean_rating(1) == pytest.approx(4, abs=1e-9)
    assert _ledger((1, 1, 5), (1, 2, 2)).recent_feedback(1) == 2
    spread = _ledger((1, 1, 5), (1, 2, 3))
    assert spread.mean_weighted_ratings(1, [0.0, 0.5, 0.5]) == pytest.approx(4.0, abs=1e-9)
    assert spread.mean_weighted_ratings(1, [0.0, 0.0, 0.0]) == 0
    assert spread.weighted_valuation(1, [0.0, 0.5, 0.5]) == pytest.approx(4.0, abs=1e-9)
    assert spread.weighted_valuation(1, [0.0, 0.0, 0.0]) == 0
    assert _ledger((1, 5, 3)).rating_by_patient(1, 9) is None


def _example_infection():
    patient = make_patient(health_level=0.9)
    infect(patient, 3)
    assert patient.health_level == pytest.approx(0.7, abs=1e-9)
    assert priority(patient) == (False, 3, pytest.approx(0.7))
    floor = make_patient(health_level=0.1)
    assert spread_infection([floor], 1, 0, RngStream(1)) == 0 and not floor.is_infected
    healthy = make_patient(health_level=0.9)
    assert priority(healthy) == (True, float("inf"), 0.9)
    assert needs_doctor(make_patient(health_level=0.59))
    assert not needs_doctor(make_patient(health_level=0.6))
    crowd = [make_patient(i, health_level=0.9) for i in range(1000)]
    assert spread_infection(crowd, 200, 0, RngStream(1)) == 200


def _example_classical_care():
    doctor = make_doctor(credential=Credential.HIGH, empathy=0.7,
                         technological_resource_constraint=0.5)
    assert cl.treatment_effectiveness(doctor, 0.0) == pytest.approx(0.5, abs=1e-9)
    doctor.technological_resource_constraint = 0.0
    assert cl.treatment_effectiveness(doctor, 0.0) == pytest.approx(0.7, abs=1e-9)

    boundary = make_doctor(credential=Credential.LOW, research_ability=0.5, experience=50)
    cl.upgrade_credential(boundary)
    assert boundary.credential is Credential.MEDIUM
    jumper = make_doctor(credential=Credential.LOW, research_ability=0.9, experience=100)
    cl.upgrade_credential(jumper)
    assert jumper.credential is Credential.MEDIUM

    free = make_doctor()
    assert cl.treat_patient(free, 0.0) == pytest.approx(
        cl.treatment_effectiveness(free, 0.0), abs=1e-12)
    veteran = make_doctor(credential=Credential.LOW, research_ability=0.6, experience=49)
    cl.treat_patient(veteran, 0.0)
    assert veteran.credential is Credential.MEDIUM

    ledger = _ledger((0, 5, 3), (0, 6, 4), (0, 7, 2), (0, 1, 4))
    judge_patient = make_patient(1)
    medium = make_doctor(0, credential=Credential.MEDIUM)
    expected = (0.5 + ledger.mean_rating(0) + 4) / 3
    assert cl.judge_doctor(judge_patient, medium, ledger) == pytest.approx(expected, abs=1e-9)
    past_only = make_patient(2, cred_weight=0.0, mean_rating_weight=0.0, past_rating_weight=1.0)
    assert cl.judge_doctor(past_only, make_doctor(9), RatingLedger()) == 0.0

    sick = make_patient(1, health_level=0.4)
    assert cl.choose_doctor(sick, {}, RatingLedger(), cl.judge_doctor) is None
    loyal = make_patient(1, health_level=0.4, last_doctor_id=2,
                         cred_weight=1.0, mean_rating_weight=0.0, past_rating_weight=0.0)
    loyal_ledger = _ledger((2, 1, 5))
    star, old = make_doctor(0, credential=Credential.HIGH), make_doctor(2, credential=Credential.LOW)
    assert cl.choose_doctor(loyal, {0: star, 2: old}, loyal_ledger, cl.judge_doctor) == 2

    healed = make_patient(health_level=0.05)
    cl.update_health_level(healed, 0.0)
    assert healed.health_level == 0.1

    rated = make_patient(health_level=0.8)
    assert cl.rate_doctor(rated, make_doctor(0)) == 5
    rated.health_level = 0.4
    assert cl.rate_doctor(rated, make_doctor(0)) == 2

    giver = make_doctor(3, credential=Credential.HIGH, empathy=0.7,
                        technological_resource_constraint=0.5)
    taker = make_patient(1, health_level=0.4, resilience=0.2)
    exchange = RatingLedger()
    assert cl.receive_treatment(taker, giver, exchange, 0.0) == 5
    assert taker.health_level == pytest.approx(0.8, abs=1e-9)
    capped = make_patient(1, health_level=0.95, resilience=0.0)
    cl.receive_treatment(capped, make_doctor(4, credential=Credential.HIGH, empathy=0.4,
                                             technological_resource_constraint=0.5), exchange, 0.0)
    assert capped.health_level == 1.0


def _example_cognitive_care():
    d0 = make_doctor(0, social_ties_doctors=[0.0, 0.5, 0.5])
    respect = [[0.0] * 3, [2.0, 0.0, 0.0], [4.0, 0.0, 0.0]]
    assert cog.mean_weighted_respects(d0, respect) == pytest.approx(3.0, abs=1e-9)
    d0.social_ties_doctors = [0.0, 0.0, 0.0]
    assert cog.mean_weighted_respects(d0, respect) == 0.0

    evaluator = make_doctor(0, social_ties_doctors=[0.0, 0.5], social_ties_patients=[0.5, 0.5])
    colleague = make_doctor(1, credential=Credential.MEDIUM)
    row = cog.update_respect_for_colleagues(evaluator, [evaluator, colleague],
                                            _ledger((1, 0, 5), (1, 1, 3)))
    assert row == [0.0, pytest.approx(2.1, abs=1e-9)]
    unrated = make_doctor(0, social_ties_doctors=[0.0, 0.4], social_ties_patients=[1.0])
    row = cog.update_respect_for_colleagues(
        unrated, [unrated, make_doctor(1, credential=Credential.HIGH)], RatingLedger())
    assert row == [0.0, pytest.approx(0.12, abs=1e-9)]

    confident = make_doctor(0, social_ties_patients=[0.8], social_ties_doctors=[0.0, 1.0])
    confidence = cog.update_confidence(confident, _ledger((0, 0, 4)), [[0.0, 0.0], [2.0, 0.0]])
    assert confidence == pytest.approx(3.0, abs=1e-9)

    boosted = make_doctor(credential=Credential.MEDIUM, empathy=0.3,
                          technological_resource_constraint=0.5)
    assert cl.treatment_effectiveness(boosted, 3.0) == pytest.approx(0.7, abs=1e-9)
    calm = make_doctor()
    assert cl.treatment_effectiveness(calm, 0.0) == pytest.approx(0.49, abs=1e-12)

    judge = make_patient(1, social_ties_doctors=[0.5],
                         social_ties_patients=[0.0, 0.0, 0.5, 0.5])
    tied = make_doctor(0, credential=Credential.HIGH)
    judged = cog.judge_doctor_css(judge, tied, _ledger((0, 2, 5), (0, 3, 3), (0, 1, 4)))
    assert judged == pytest.approx((0.5 + 4 + 4) / 3, abs=1e-9)
    zero_tie_peer = make_patient(1, social_ties_doctors=[0.5],
                                 social_ties_patients=[0.0, 0.0, 0.5, 0.0])
    with_peer = cog.judge_doctor_css(zero_tie_peer, tied, _ledger((0, 2, 5), (0, 3, 1)))
    without = cog.judge_doctor_css(zero_tie_peer, tied, _ledger((0, 2, 5)))
    assert with_peer == pytest.approx(without, abs=1e-12)

    perfect = make_patient(1, health_level=0.8, social_ties_doctors=[1.0])
    assert cog.rate_doctor_css(perfect, make_doctor(0)) == 5.0
    partial = make_patient(1, health_level=0.4, social_ties_doctors=[0.5])
    assert cog.rate_doctor_css(partial, make_doctor(0)) == pytest.approx(2.6)


def _example_evolution():
    assert evo.fitness_doctor(make_doctor(0), RatingLedger()) == 0
    assert evo.fitness_doctor(make_doctor(0), _ledger((0, 0, 5), (0, 1, 5), (0, 2, 4))) == \
        pytest.approx(14 / 3, abs=1e-9)
    assert evo.fitness_patient(make_patient(treated_health_total=1.4, times_treated=2)) == \
        pytest.approx(0.7, abs=1e-9)
    assert evo.fitness_patient(make_patient(health_level=0.73)) == 0.73

    ledger = RatingLedger()
    doctors = []
    for i, rating in enumerate((2, 5, 1, 4, 3)):
        ledger.add_rating(i, 0, rating)
        doctors.append(make_doctor(i))
    scores = [evo.fitness_doctor(d, ledger) for d in doctors]
    winner, loser = evo.tournament_select(doctors, 5, scores, RngStream(3))
    assert (winner.doctor_id, loser.doctor_id) == (1, 2)

    low_feedback = make_doctor(research_ability=0.4)
    evo.mutate_doctor_classical(low_feedback, _ledger((0, 0, 2)),
                                StubRng(uniform=[0.04], random=[0.5], sign=[1]))
    assert low_feedback.research_ability == pytest.approx(0.52, abs=1e-12)
    clamped = make_doctor(research_ability=0.999)
    evo.mutate_doctor_classical(clamped, _ledger((0, 0, 1)),
                                StubRng(uniform=[0.04], random=[0.1], sign=[1]))
    assert clamped.research_ability == 1.0
    spent = make_doctor(personal_resource=0.0, research_ability=0.4)
    evo.mutate_doctor_classical(spent, RatingLedger(),
                                StubRng(uniform=[0.04], random=[0.1], sign=[1]))
    assert spent.research_ability == 0.4 and spent.personal_resource == 0.0

    halfway = make_doctor(social_ties_doctors=[0.0, 0.5], social_ties_patients=[0.5])
    evo.mutate_doctor_css(halfway, RatingLedger(), StubRng(uniform=[0.04], random=[0.5], sign=[1]))
    assert halfway.weight_wmrat == pytest.approx(0.52, abs=1e-12)
    rejected = make_doctor(research_ability=0.99,
                           social_ties_doctors=[0.0, 0.5], social_ties_patients=[0.5])
    evo.mutate_doctor_css(rejected, RatingLedger(), StubRng(uniform=[0.04], random=[0.1], sign=[1]))
    assert rejected.research_ability == 0.99

    weighted = make_patient(cred_weight=0.2, mean_rating_weight=0.3, past_rating_weight=0.5)
    evo.mutate_patient(weighted, StubRng(uniform=[0.03, 0.0]))
    total = weighted.cred_weight + weighted.mean_rating_weight + weighted.past_rating_weight
    assert abs(total - 1.0) <= 1e-9

    loser = make_doctor(0, research_ability=0.2, social_ties_doctors=[0.0, 0.25, 0.5])
    winner = make_doctor(1, research_ability=0.6, social_ties_doctors=[0.75, 0.0, 1.0])
    evo.crossover_doctor(loser, winner, StubRng(chance=[True]))
    assert loser.research_ability == pytest.approx(0.4, abs=1e-12)
    assert loser.social_ties_doctors == [0.0, 0.25, 0.75]

    pat_loser = make_patient(0, cred_weight=0.2, mean_rating_weight=0.3, past_rating_weight=0.5)
    pat_winner = make_patient(1, cred_weight=0.4, mean_rating_weight=0.1, past_rating_weight=0.5)
    evo.crossover_patient(pat_loser, pat_winner, StubRng(chance=[True]))
    assert (pat_loser.cred_weight, pat_loser.mean_rating_weight, pat_loser.past_rating_weight) == \
        pytest.approx((0.3, 0.2, 0.5), abs=1e-9)

    frozen = [make_patient(i, treated_health_total=0.3 + 0.1 * i, times_treated=1) for i in range(6)]
    before = copy.deepcopy(frozen)
    evo.evolve_population(
        frozen,
        ga_config(tournament_size=3, num_elites=1, mutation_chance=0.0,
                  crossover_chance=0.0, tournaments_per_round=10),
        [evo.fitness_patient(p) for p in frozen],
        lambda p: evo.mutate_patient(p, RngStream(0)),
        lambda l, w: evo.crossover_patient(l, w, RngStream(0)),
        RngStream(5),
    )
    assert frozen == before


EXAMPLES = [
    ("initialization ranges", _example_initialization),
    ("past-weight monte carlo", _example_past_weight_monte_carlo),
    ("seed mixing", _example_seed_mix),
    ("rating ledger", _example_ratings),
    ("infection and triage", _example_infection),
    ("classical care", _example_classical_care),
    ("cognitive care", _example_cognitive_care),
    ("evolution", _example_evolution),
]


def test_criterion_1_equation_oracles():
    started = time.perf_counter()
    for label, example in EXAMPLES:
        example()
    elapsed = time.perf_counter() - started
    report(1, "equation oracle suite", elapsed < 1.0, f"{len(EXAMPLES)} groups in {elapsed:.2f}s")


# --------------------------------------------------------------------------
# Criterion 2: randomized invariant battery.
# --------------------------------------------------------------------------

def _elite_slot(population, scores):
    return min(range(len(population)), key=lambda i: (-scores[i], i))  # population[i] has id i


def _credential_rank(doctor):
    return list(Credential).index(doctor.credential)


def _check_world(state, credential_ranks):
    doctors, patients = state.doctors, state.patients
    for doctor in doctors:
        check_doctor_invariants(doctor, len(doctors), len(patients))
        assert _credential_rank(doctor) >= credential_ranks[doctor.doctor_id]
        credential_ranks[doctor.doctor_id] = _credential_rank(doctor)
    if state.config.model is ModelKind.CSS:
        check_respect_rows(doctors, state.ledger)
    for patient in patients:
        check_patient_invariants(patient, len(doctors), len(patients))


def _evolve_battery(model, steps, seed):
    rng = RngStream(seed)
    cfg = SimulationConfig(model=model, num_doctors=8, num_patients=12, num_rounds=1,
                           num_infected_per_round=4, tournament_size=4, num_elites=1,
                           base_seed=seed)
    state = init_run_state(cfg, seed)
    for patient in state.patients:
        patient.treated_health_total, patient.times_treated = rng.uniform(0.1, 1.0), 1
    ranks = {d.doctor_id: _credential_rank(d) for d in state.doctors}
    ga_cfg = dataclasses.replace(cfg, mutation_chance=0.6, crossover_chance=0.6,
                                 tournaments_per_round=2)
    css = model is ModelKind.CSS
    mutate_doctor = evo.mutate_doctor_css if css else evo.mutate_doctor_classical
    for step in range(steps):
        state.ledger.add_rating(rng.index(8), rng.index(12), float(rng.index(6)))
        if step % 2 == 0:
            population = state.patients
            scores = [evo.fitness_patient(p) for p in population]
            mutate = lambda p: evo.mutate_patient(p, rng)
            crossover = lambda l, w: evo.crossover_patient(l, w, rng)
        else:
            population = state.doctors
            scores = [evo.fitness_doctor(d, state.ledger) for d in population]
            mutate = lambda d: mutate_doctor(d, state.ledger, rng)
            crossover = lambda l, w: evo.crossover_doctor(l, w, rng)
        slot = _elite_slot(population, scores)
        snapshot = copy.deepcopy(population[slot])
        evo.evolve_population(population, ga_cfg, scores, mutate, crossover, rng)
        assert population[slot] == snapshot, "elite not preserved bitwise"
        _check_world(state, ranks)


def _round_battery(model, rounds, seed):
    cfg = SimulationConfig(model=model, num_doctors=6, num_patients=15, num_rounds=1,
                           num_infected_per_round=8, tournament_size=4, num_elites=1,
                           base_seed=seed)
    state = None
    ranks = {}
    for index in range(rounds):
        if index % 50 == 0:
            state = init_run_state(cfg, derive_run_seed(seed, index))
            ranks = {d.doctor_id: _credential_rank(d) for d in state.doctors}
        metrics = run_round(state, index % 50 + 1)
        assert metrics.treatments_performed <= cfg.num_doctors
        _check_world(state, ranks)


def test_criterion_2_invariant_battery():
    started = time.perf_counter()
    _evolve_battery(ModelKind.CLASSICAL, 5000, 101)
    _evolve_battery(ModelKind.CSS, 5000, 202)
    _round_battery(ModelKind.CLASSICAL, 500, 303)
    _round_battery(ModelKind.CSS, 500, 404)
    elapsed = time.perf_counter() - started
    report(2, "invariant battery", elapsed < 30.0,
           f"10000 evolve steps + 1000 rounds in {elapsed:.1f}s")


# --------------------------------------------------------------------------
# Criterion 3: choice oracle.
# --------------------------------------------------------------------------

def _random_instance(rng, css, coarse_ties=False):
    num_doctors = 1 + rng.index(10)
    doctors = []
    busy = set()
    for i in range(num_doctors):
        doctors.append(make_doctor(
            i,
            credential=rng.choice(list(Credential)),
            empathy=rng.uniform(0, 1),
        ))
        if rng.chance(0.3):
            busy.add(i)
    patient = make_patient(0, health_level=rng.uniform(0.1, 0.7))
    raw = [rng.uniform(0, 1) for _ in range(3)]
    if css and coarse_ties:
        # Weights on {1, 2} from the same draws: never all zero, and equal
        # weights let differently rated doctors reach the same score.
        raw = [1 + round(u) for u in raw]
    total = sum(raw)
    patient.cred_weight, patient.mean_rating_weight, patient.past_rating_weight = (
        raw[0] / total, raw[1] / total, raw[2] / total)
    if css:
        # A run's layout: lists indexed by id, the patient's own slot 0.0 and undrawn.
        # Coarse ties snap the same draws to {0, 0.5, 1}, so judgments can tie.
        tie = (lambda u: round(u * 2) / 2) if coarse_ties else (lambda u: u)
        patient.social_ties_doctors = [tie(rng.uniform(0, 1)) for _ in doctors]
        patient.social_ties_patients = [0.0] + [tie(rng.uniform(0, 1)) for _ in range(1, 5)]
    ledger = RatingLedger()
    for doctor in doctors:
        for rater in range(1, 5):
            if rng.chance(0.5):
                ledger.add_rating(doctor.doctor_id, rater, float(rng.index(6)))
    if rng.chance(0.6):
        last = rng.index(num_doctors)
        patient.last_doctor_id = last
        if rng.chance(0.7):
            ledger.add_rating(last, 0, 5.0)
    return patient, doctors, ledger, busy


def test_criterion_3_choice_oracle():
    started = time.perf_counter()
    rng = RngStream(31337)
    loyalty_cases = 0
    css_ties = 0
    for case in range(1000):
        css = case % 2 == 1
        # Every other case of each model lists the free doctors in descending
        # id order, so the lowest-id tie rule cannot lean on the map's order;
        # those css cases also get coarse ties and weights, so their best scores can tie.
        flip = case // 2 % 2 == 1
        judge = cog.judge_doctor_css if css else cl.judge_doctor
        patient, doctors, ledger, busy = _random_instance(rng, css, coarse_ties=flip)
        loyal = patient.last_doctor_id is not None and \
            ledger.rating_by_patient(patient.last_doctor_id, 0) == 5
        loyalty_cases += loyal
        order = reversed(doctors) if flip else doctors
        free = {d.doctor_id: d for d in order if d.doctor_id not in busy}
        scores = [judge(patient, d, ledger) for d in free.values()]
        if css and scores and needs_doctor(patient) and not (loyal and patient.last_doctor_id in free):
            css_ties += scores.count(max(scores)) > 1
        assert cl.choose_doctor(patient, free, ledger, judge) == exhaustive_choose(
            patient, doctors, ledger, judge, busy)
    elapsed = time.perf_counter() - started
    report(3, "choice oracle", elapsed < 5.0 and loyalty_cases > 100 and css_ties > 0,
           f"1000 instances ({loyalty_cases} loyalty-armed, {css_ties} css with a tied best score) "
           f"in {elapsed:.1f}s")


# --------------------------------------------------------------------------
# Criteria 4-6: full-scale reproduction bands and cross-model ordering.
# --------------------------------------------------------------------------

@pytest.fixture(scope="module")
def full_scale_batches():
    batches = {}
    for model in (ModelKind.CLASSICAL, ModelKind.CSS):
        cfg = preset_full_scale(model, num_repeats=FULL_SCALE_REPEATS,
                                base_seed=ACCEPTANCE_BASE_SEED)
        batches[model] = run_batch(cfg)
    return batches


def test_criterion_4_classical_reproduction(full_scale_batches):
    final = full_scale_batches[ModelKind.CLASSICAL].aggregates[-1]
    doctor = final.mean["doctor_fitness"]
    patient = final.mean["patient_fitness"]
    past = final.mean["past_rating_weight"]
    ok = 3.97 <= doctor <= 4.97 and 0.76 <= patient <= 0.86 and 0.39 <= past <= 0.59
    report(4, "classical reproduction",
           ok, f"doctor {doctor:.3f}, patient {patient:.3f}, past weight {past:.3f}")


def test_criterion_5_css_reproduction(full_scale_batches):
    final = full_scale_batches[ModelKind.CSS].aggregates[-1]
    doctor = final.mean["doctor_fitness"]
    patient = final.mean["patient_fitness"]
    wmrat = final.mean["weight_wmrat"]
    mwres = final.mean["weight_mwres"]
    ok = (4.47 <= doctor <= 5.0 and 0.78 <= patient <= 0.89
          and 0.45 <= wmrat <= 0.55 and 0.45 <= mwres <= 0.55)
    report(5, "css reproduction", ok,
           f"doctor {doctor:.3f}, patient {patient:.3f}, weights {wmrat:.3f}/{mwres:.3f}")


def test_criterion_6_cross_model_ordering(full_scale_batches):
    classical_runs = full_scale_batches[ModelKind.CLASSICAL].runs
    css_runs = full_scale_batches[ModelKind.CSS].runs
    doctor_wins = sum(
        css.metrics[-1].doctor_fitness > classical.metrics[-1].doctor_fitness
        for classical, css in zip(classical_runs, css_runs)
    )
    patient_wins = sum(
        css.metrics[-1].patient_fitness >= classical.metrics[-1].patient_fitness
        for classical, css in zip(classical_runs, css_runs)
    )
    ok = doctor_wins >= 8 and patient_wins >= 7
    report(6, "cross-model ordering", ok,
           f"css doctor fitness higher in {doctor_wins}/10, patient in {patient_wins}/10")


# --------------------------------------------------------------------------
# Criterion 7: CSS-reduces-to-classical run equivalence.
# --------------------------------------------------------------------------

@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="unattainable as stated: zero ties drop the credential and peer-mean "
    "judgment terms, so doctor choice diverges beyond rating granularity "
    "(see decisions ledger); the operation-level reductions hold and are "
    "unit-tested in test_cognitive.py",
)
def test_criterion_7_css_reduces_to_classical(monkeypatch):
    seed = 424242
    kwargs = dict(num_doctors=15, num_patients=100, num_rounds=20,
                  num_infected_per_round=100, mutation_chance=0.0,
                  crossover_chance=0.0, base_seed=seed)
    classical = init_run_state(SimulationConfig(model="classical", **kwargs), seed)
    css = copy.deepcopy(classical)
    css.config = SimulationConfig(model="css", **kwargs)
    for doctor in css.doctors:
        doctor.weight_wmrat = 0.0
        doctor.weight_mwres = 0.0
        doctor.social_ties_doctors = [0.0] * len(css.doctors)
        doctor.social_ties_patients = [0.0] * len(css.patients)
    for patient in css.patients:
        patient.social_ties_doctors = [0.0] * len(css.doctors)
        patient.social_ties_patients = [0.0] * len(css.patients)
    # The css run's confidence lists, one per sweep; with zero ties and
    # weights every entry must be 0.0, the classical value.
    sweeps = []
    original = engine.refresh_social_perception

    def recorded(doctors, ledger):
        sweeps.append(original(doctors, ledger))
        return sweeps[-1]

    monkeypatch.setattr(engine, "refresh_social_perception", recorded)

    count_diffs = []
    health_diffs = 0
    for round_index in range(1, 21):
        classical_metrics = run_round(classical, round_index)
        css_metrics = run_round(css, round_index)
        if classical_metrics.treatments_performed != css_metrics.treatments_performed:
            count_diffs.append(round_index)
        health_diffs += sum(
            abs(a.health_level - b.health_level) > 1e-9
            for a, b in zip(classical.patients, css.patients)
        )
    assert sweeps and all(confidence == [0.0] * len(css.doctors) for confidence in sweeps)
    ok = not count_diffs and health_diffs == 0
    report(7, "css reduces to classical", ok,
           f"count mismatches in rounds {count_diffs}, {health_diffs} health mismatches")


# --------------------------------------------------------------------------
# Criterion 8: byte-identical outputs.
# --------------------------------------------------------------------------

def test_criterion_8_output_determinism(tmp_path, capsys):
    outputs = []
    for label in ("a", "b"):
        out = tmp_path / f"classical_{label}"
        assert cli_main(["--preset", "paper-single", "--seed", "123", "--out", str(out)]) == 0
        outputs.append((out / "metrics.csv").read_bytes())
    css_outputs = []
    for label in ("a", "b"):
        out = tmp_path / f"css_{label}"
        assert cli_main([
            "--preset", "paper-single", "--model", "css", "--seed", "123",
            "--snapshot-every", "5", "--out", str(out),
        ]) == 0
        blob = (out / "metrics.csv").read_bytes()
        for snap in sorted(out.glob("network_*.json")):
            blob += snap.read_bytes()
        css_outputs.append(blob)
    capsys.readouterr()
    ok = outputs[0] == outputs[1] and css_outputs[0] == css_outputs[1]
    report(8, "output determinism", ok,
           f"{len(outputs[0])} csv bytes, {len(css_outputs[0])} css bytes compared")


# --------------------------------------------------------------------------
# Criterion 9: single-run sanity.
# --------------------------------------------------------------------------

def test_criterion_9_single_run_sanity():
    started = time.perf_counter()
    cfg = preset_single_run(ModelKind.CLASSICAL, base_seed=11)
    result = run_simulation(cfg, derive_run_seed(11, 0))
    elapsed = time.perf_counter() - started
    ok = elapsed < 5.0 and len(result.metrics) == 20
    for row in result.metrics:
        ok = ok and 0.0 <= row.doctor_fitness <= 5.0 and 0.0 <= row.patient_fitness <= 1.0
        for name in ("research_ability", "empathy", "weight_wmrat", "weight_mwres",
                     "cred_weight", "mean_rating_weight", "past_rating_weight"):
            ok = ok and 0.0 <= getattr(row, name) <= 1.0
        ok = ok and 0.1 <= row.resilience <= 0.4
        ok = ok and row.treatments_performed <= cfg.num_doctors
    report(9, "single-run sanity", ok, f"20 rounds in {elapsed:.2f}s")
