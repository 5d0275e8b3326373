import copy
import types
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from caresim import RatingLedger, RngStream, evolution
from caresim.evolution import (
    crossover_doctor,
    crossover_patient,
    evolve_population,
    fitness_doctor,
    fitness_patient,
    mutate_doctor_classical,
    mutate_doctor_css,
    mutate_patient,
    tournament_select,
)
from support import StubRng, check_patient_invariants, ga_config, make_doctor, make_patient


def rated_ledger(doctor_id, *ratings):
    ledger = RatingLedger()
    for patient_id, rating in enumerate(ratings):
        ledger.add_rating(doctor_id, patient_id, rating)
    return ledger


# --- fitness ---

def test_fitness_doctor_cases():
    assert fitness_doctor(make_doctor(0), RatingLedger()) == 0
    ledger = rated_ledger(0, 5, 5, 4)
    assert fitness_doctor(make_doctor(0), ledger) == pytest.approx(14 / 3, abs=1e-9)
    assert fitness_doctor(make_doctor(0), rated_ledger(0, 3)) == 3


def test_fitness_patient_cases():
    assert fitness_patient(make_patient(treated_health_total=1.4, times_treated=2)) == \
        pytest.approx(0.7, abs=1e-9)
    assert fitness_patient(make_patient(health_level=0.73)) == 0.73
    assert fitness_patient(make_patient(treated_health_total=2.8, times_treated=7)) == \
        pytest.approx(0.4, abs=1e-9)


# --- tournament selection ---

def test_tournament_full_population_finds_global_extremes():
    ledger = RatingLedger()
    doctors = []
    for i, rating in enumerate((2, 5, 1, 4, 3)):
        ledger.add_rating(i, 0, rating)
        doctors.append(make_doctor(i))
    scores = [fitness_doctor(d, ledger) for d in doctors]
    winner, loser = tournament_select(doctors, 5, scores, RngStream(3))
    assert winner.doctor_id == 1
    assert loser.doctor_id == 2


def test_tournament_winner_never_equals_loser():
    patients = [make_patient(i, treated_health_total=0.5, times_treated=1) for i in range(6)]
    scores = [fitness_patient(p) for p in patients]
    rng = RngStream(11)
    for _ in range(200):
        winner, loser = tournament_select(patients, 2, scores, rng)
        assert winner is not loser


def test_tournament_ties_break_by_ascending_id():
    patients = [make_patient(i, treated_health_total=0.5, times_treated=1) for i in range(4)]
    scores = [fitness_patient(p) for p in patients]
    stub = StubRng(sample=[(2, 0, 3, 1)])
    winner, loser = tournament_select(patients, 4, scores, stub)
    assert winner.patient_id == 0
    assert loser.patient_id == 3


# Scores from three values, so most populations hold long runs of ties.
tied_scores = st.lists(st.sampled_from((0.0, 0.5, 1.0)), min_size=1, max_size=12)


@settings(max_examples=200)
@given(st.data())
def test_tournament_ties_match_tuple_key_sort(data):
    scores = data.draw(tied_scores)
    n = len(scores)
    k = data.draw(st.integers(min_value=1, max_value=n))
    picks = data.draw(st.permutations(range(n)))[:k]
    patients = [make_patient(i) for i in range(n)]
    winner, loser = tournament_select(patients, k, scores, StubRng(sample=[picks]))
    entrants = [patients[i] for i in picks]
    entrants.sort(key=lambda agent: (-scores[agent.patient_id], agent.patient_id))
    assert winner is entrants[0]
    assert loser is entrants[-1]


def test_tournament_rejects_oversized_k():
    with pytest.raises(ValueError):
        tournament_select([make_patient(0)], 2, [0.5], RngStream(0))


# --- classical doctor mutation ---

def test_mutate_classical_exhausted_resource_changes_nothing():
    doctor = make_doctor(personal_resource=0.0, research_ability=0.4, empathy=0.5)
    stub = StubRng(uniform=[0.03], random=[0.5], sign=[1])
    mutate_doctor_classical(doctor, RatingLedger(), stub)
    assert doctor.research_ability == 0.4
    assert doctor.empathy == 0.5
    assert doctor.personal_resource == 0.0


def test_mutate_classical_low_feedback_triples_amount():
    doctor = make_doctor(research_ability=0.4)
    ledger = rated_ledger(0, 2)
    stub = StubRng(uniform=[0.04], random=[0.5], sign=[1])
    mutate_doctor_classical(doctor, ledger, stub)
    assert doctor.research_ability == pytest.approx(0.52, abs=1e-12)
    assert doctor.personal_resource == pytest.approx(0.08, abs=1e-12)


def test_mutate_classical_good_feedback_halves_amount():
    doctor = make_doctor(empathy=0.5)
    ledger = rated_ledger(0, 4)
    stub = StubRng(uniform=[0.04], random=[0.9], sign=[-1])
    mutate_doctor_classical(doctor, ledger, stub)
    assert doctor.empathy == pytest.approx(0.48, abs=1e-12)
    assert doctor.personal_resource == pytest.approx(0.18, abs=1e-12)


def test_mutate_classical_clamps_trait_but_still_spends():
    doctor = make_doctor(research_ability=0.999)
    ledger = rated_ledger(0, 1)
    stub = StubRng(uniform=[0.04], random=[0.1], sign=[1])
    mutate_doctor_classical(doctor, ledger, stub)
    assert doctor.research_ability == 1.0
    assert doctor.personal_resource == pytest.approx(0.08, abs=1e-12)


def test_mutate_classical_overdraw_clamped_to_resource():
    doctor = make_doctor(personal_resource=0.04, research_ability=0.5)
    ledger = rated_ledger(0, 0)
    stub = StubRng(uniform=[0.03], random=[0.1], sign=[1])
    mutate_doctor_classical(doctor, ledger, stub)
    assert doctor.research_ability == pytest.approx(0.54, abs=1e-12)
    assert doctor.personal_resource == 0.0


# --- css doctor mutation ---

def css_doctor(**overrides):
    return make_doctor(
        social_ties_doctors=[0.0, 0.5, 0.5],
        social_ties_patients=[0.5],
        **overrides,
    )


def test_mutate_css_bucket_boundary_half_selects_wmrat():
    doctor = css_doctor()
    before = copy.deepcopy(doctor)
    stub = StubRng(uniform=[0.04], random=[0.5], sign=[1])
    mutate_doctor_css(doctor, RatingLedger(), stub)
    assert doctor.weight_wmrat == pytest.approx(0.52, abs=1e-12)
    assert doctor.weight_mwres == before.weight_mwres
    assert doctor.research_ability == before.research_ability
    assert doctor.personal_resource == before.personal_resource


def test_mutate_css_rejects_out_of_bounds_research_change():
    doctor = css_doctor(research_ability=0.99)
    stub = StubRng(uniform=[0.04], random=[0.1], sign=[1])
    mutate_doctor_css(doctor, RatingLedger(), stub)
    assert doctor.research_ability == 0.99
    assert doctor.personal_resource == pytest.approx(0.2)


def test_mutate_css_research_capped_by_resource():
    doctor = css_doctor(personal_resource=0.005, research_ability=0.5)
    ledger = rated_ledger(0, 1)  # low feedback -> factor 1.5
    stub = StubRng(uniform=[0.04], random=[0.1], sign=[1])
    mutate_doctor_css(doctor, ledger, stub)
    assert doctor.research_ability == pytest.approx(0.505, abs=1e-12)
    assert doctor.personal_resource == 0.0


def test_mutate_css_exhausted_resource_falls_through_to_weights():
    doctor = css_doctor(personal_resource=0.0, research_ability=0.4)
    stub = StubRng(uniform=[0.04], random=[0.1], sign=[-1])
    mutate_doctor_css(doctor, RatingLedger(), stub)
    assert doctor.research_ability == 0.4
    assert doctor.weight_wmrat == pytest.approx(0.48, abs=1e-12)


def test_mutate_css_tie_bucket_picks_single_doctor_tie():
    doctor = css_doctor()
    stub = StubRng(uniform=[0.04], random=[0.9, 0.4], sign=[1], choice_index=[1])
    mutate_doctor_css(doctor, RatingLedger(), stub)
    assert doctor.social_ties_doctors[:2] == [0.0, 0.5]
    assert doctor.social_ties_doctors[2] == pytest.approx(0.52, abs=1e-12)
    assert doctor.social_ties_patients[0] == 0.5


def test_mutate_css_doctor_tie_index_skips_own_id():
    # The draw indexes the peers only: for doctor 1 of 3, index 0 is
    # doctor 0 and index 1 is doctor 2.
    for index, peer in ((0, 0), (1, 2)):
        doctor = make_doctor(1, social_ties_doctors=[0.5, 0.0, 0.5], social_ties_patients=[0.5])
        stub = StubRng(uniform=[0.04], random=[0.9, 0.4], sign=[1], choice_index=[index])
        mutate_doctor_css(doctor, RatingLedger(), stub)
        expected = [0.5, 0.0, 0.5]
        expected[peer] = pytest.approx(0.52, abs=1e-12)
        assert doctor.social_ties_doctors == expected


def test_mutate_css_lone_doctor_falls_back_to_patient_ties():
    # A doctor without peers holds only its own slot, so the doctor-tie
    # pick falls through to a patient tie.
    doctor = make_doctor(social_ties_doctors=[0.0], social_ties_patients=[0.5, 0.5])
    stub = StubRng(uniform=[0.04], random=[0.9, 0.4], sign=[1], choice_index=[1])
    mutate_doctor_css(doctor, RatingLedger(), stub)
    assert doctor.social_ties_doctors == [0.0]
    assert doctor.social_ties_patients == [0.5, pytest.approx(0.52, abs=1e-12)]


# --- patient mutation ---

def test_mutate_patient_weights_stay_normalized():
    patient = make_patient(cred_weight=0.2, mean_rating_weight=0.3, past_rating_weight=0.5)
    stub = StubRng(uniform=[0.03, -0.02])
    mutate_patient(patient, stub)
    total = patient.cred_weight + patient.mean_rating_weight + patient.past_rating_weight
    assert abs(total - 1.0) <= 1e-9
    assert patient.cred_weight == pytest.approx(0.23, abs=1e-9)
    assert patient.past_rating_weight == pytest.approx(0.44, abs=1e-9)
    assert patient.resilience == pytest.approx(0.18, abs=1e-9)


def test_mutate_patient_weight_clamped_when_delta_goes_negative():
    patient = make_patient(cred_weight=0.01, mean_rating_weight=0.5, past_rating_weight=0.49)
    stub = StubRng(uniform=[-0.03, 0.0])
    mutate_patient(patient, stub)
    check_patient_invariants(patient, 1, 1)
    assert patient.cred_weight == 0.0


def test_mutate_patient_resilience_clamped_at_bounds():
    patient = make_patient(resilience=0.4)
    stub = StubRng(uniform=[0.0, 0.04])
    mutate_patient(patient, stub)
    assert patient.resilience == 0.4


def test_mutate_patient_without_ties_draws_only_weights_and_resilience():
    # No ``random`` queue: the tie step's class draw would raise.
    patient = make_patient()
    stub = StubRng(uniform=[0.01, 0.0])
    mutate_patient(patient, stub)
    assert stub._uniform == []
    assert patient.social_ties_doctors == []
    assert patient.social_ties_patients == []


def test_mutate_patient_css_perturbs_every_tie_of_one_class():
    patient = make_patient(
        social_ties_doctors=[0.5, 0.5],
        social_ties_patients=[0.0, 0.5, 0.5],
    )
    stub = StubRng(uniform=[0.01, 0.0, 0.1, -0.1], random=[0.3])
    mutate_patient(patient, stub)
    assert patient.social_ties_doctors == pytest.approx([0.6, 0.4])
    assert patient.social_ties_patients == [0.0, 0.5, 0.5]


def test_mutate_patient_peer_ties_skip_own_slot():
    # One uniform per peer, in ascending id; none for the own slot.
    patient = make_patient(1, social_ties_doctors=[0.5], social_ties_patients=[0.5, 0.0, 0.5])
    stub = StubRng(uniform=[0.01, 0.0, 0.1, -0.1], random=[0.7])
    mutate_patient(patient, stub)
    assert stub._uniform == []
    assert patient.social_ties_doctors == [0.5]
    assert patient.social_ties_patients == pytest.approx([0.6, 0.0, 0.4])
    assert patient.social_ties_patients[1] == 0.0


@settings(max_examples=80)
@given(st.integers(min_value=0, max_value=2**32))
def test_mutate_patient_preserves_invariants(seed):
    rng = RngStream(seed)
    patient = make_patient(
        cred_weight=0.2, mean_rating_weight=0.3, past_rating_weight=0.5,
        social_ties_doctors=[0.5, 0.9], social_ties_patients=[0.0, 0.3, 0.1],
    )
    for _ in range(25):
        mutate_patient(patient, rng)
        check_patient_invariants(patient, 2, 3)


# --- crossover ---

@given(st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)), max_size=40))
def test_average_ties_halves_the_sum_exactly(pairs):
    # Multiplying by 0.5 and dividing by 2.0 scale the same rounded sum by
    # the same power of two, so every bit agrees.
    averaged = evolution._average_ties([x for x, _ in pairs], [y for _, y in pairs])
    assert [v.hex() for v in averaged] == [((x + y) / 2.0).hex() for x, y in pairs]


def test_crossover_doctor_averages_toward_winner():
    loser = css_doctor(research_ability=0.2, empathy=0.3)
    winner = make_doctor(
        1, research_ability=0.6, empathy=0.5, weight_wmrat=0.9, weight_mwres=0.1,
        social_ties_doctors=[0.9, 0.0, 0.9], social_ties_patients=[0.1],
    )
    before_winner = copy.deepcopy(winner)
    crossover_doctor(loser, winner, StubRng(chance=[True]))
    assert loser.research_ability == pytest.approx(0.4, abs=1e-12)
    assert loser.empathy == pytest.approx(0.4, abs=1e-12)
    assert loser.weight_wmrat == pytest.approx(0.7, abs=1e-12)
    assert loser.social_ties_doctors[:2] == [0.0, 0.5]  # own and winner slots
    assert loser.social_ties_doctors[2] == pytest.approx(0.7, abs=1e-12)
    assert loser.social_ties_patients[0] == pytest.approx(0.3, abs=1e-12)
    assert winner == before_winner


def test_same_kind_crossover_keeps_own_and_winner_slots():
    # The loser's tie to the winner stays (the winner holds no tie to
    # itself), and so does the loser's own 0.0 slot.
    loser = make_doctor(2, social_ties_doctors=[0.25, 0.5, 0.0], social_ties_patients=[0.0, 1.0])
    winner = make_doctor(0, social_ties_doctors=[0.0, 1.0, 0.75], social_ties_patients=[0.5, 0.5])
    crossover_doctor(loser, winner, StubRng(chance=[True]))
    assert loser.social_ties_doctors == [0.25, 0.75, 0.0]
    assert loser.social_ties_patients == [0.25, 0.75]

    pat_loser = make_patient(1, social_ties_doctors=[0.0, 1.0],
                             social_ties_patients=[0.5, 0.0, 0.25])
    pat_winner = make_patient(2, social_ties_doctors=[0.5, 0.5],
                              social_ties_patients=[1.0, 0.75, 0.0])
    crossover_patient(pat_loser, pat_winner, StubRng(chance=[True]))
    assert pat_loser.social_ties_doctors == [0.25, 0.75]
    assert pat_loser.social_ties_patients == [0.75, 0.0, 0.25]


def test_crossover_with_itself_changes_no_tie():
    # With tournament size 1 the winner is the loser.
    doctor = css_doctor()
    before = copy.deepcopy(doctor)
    crossover_doctor(doctor, doctor, StubRng(chance=[True]))
    assert doctor == before
    patient = make_patient(1, social_ties_doctors=[0.3], social_ties_patients=[0.7, 0.0])
    before = copy.deepcopy(patient)
    crossover_patient(patient, patient, StubRng(chance=[True]))
    assert patient == before


def test_crossover_doctor_inner_chance_can_skip():
    loser = make_doctor(research_ability=0.2)
    winner = make_doctor(1, research_ability=0.6)
    crossover_doctor(loser, winner, StubRng(chance=[False]))
    assert loser.research_ability == 0.2


def test_crossover_doctor_without_ties_keeps_half_weights():
    # A classical doctor: no ties and both confidence weights at 0.5.
    loser = make_doctor(research_ability=0.2)
    winner = make_doctor(1, research_ability=0.6)
    crossover_doctor(loser, winner, StubRng(chance=[True]))
    assert loser.research_ability == pytest.approx(0.4, abs=1e-12)
    assert (loser.weight_wmrat, loser.weight_mwres) == (0.5, 0.5)
    assert loser.social_ties_doctors == []
    assert loser.social_ties_patients == []


def test_crossover_patient_hand_case():
    loser = make_patient(0, cred_weight=0.2, mean_rating_weight=0.3, past_rating_weight=0.5)
    winner = make_patient(1, cred_weight=0.4, mean_rating_weight=0.1, past_rating_weight=0.5)
    crossover_patient(loser, winner, StubRng(chance=[True]))
    assert loser.cred_weight == pytest.approx(0.3, abs=1e-9)
    assert loser.mean_rating_weight == pytest.approx(0.2, abs=1e-9)
    assert loser.past_rating_weight == pytest.approx(0.5, abs=1e-9)


def test_crossover_patient_identical_parents_change_nothing():
    loser = make_patient(0, resilience=0.25)
    winner = make_patient(1, resilience=0.25)
    before = copy.deepcopy(loser)
    crossover_patient(loser, winner, StubRng(chance=[True]))
    assert loser.resilience == before.resilience
    assert loser.cred_weight == pytest.approx(before.cred_weight, abs=1e-12)


@settings(max_examples=80)
@given(
    st.floats(0.1, 0.4), st.floats(0.1, 0.4),
    st.floats(0, 1), st.floats(0, 1),
)
def test_crossover_moves_loser_strictly_toward_winner(r1, r2, a1, a2):
    loser = make_patient(0, resilience=r1)
    winner = make_patient(1, resilience=r2)
    loser.social_ties_doctors = [a1]
    winner.social_ties_doctors = [a2]
    gap_before = abs(loser.resilience - winner.resilience)
    tie_gap_before = abs(a1 - a2)
    crossover_patient(loser, winner, StubRng(chance=[True]))
    assert abs(loser.resilience - winner.resilience) <= gap_before + 1e-12
    assert abs(loser.social_ties_doctors[0] - a2) <= tie_gap_before + 1e-12


# --- evolve_population ---

def small_patient_population():
    patients = []
    for i in range(6):
        patients.append(make_patient(i, treated_health_total=0.3 + 0.1 * i, times_treated=1))
    return patients


def test_evolve_zero_chances_changes_nothing():
    patients = small_patient_population()
    before = copy.deepcopy(patients)
    cfg = ga_config(tournament_size=3, num_elites=1, mutation_chance=0.0,
                    crossover_chance=0.0, tournaments_per_round=20)
    evolve_population(
        patients, cfg, [fitness_patient(p) for p in patients],
        lambda p: mutate_patient(p, RngStream(0)),
        lambda l, w: crossover_patient(l, w, RngStream(0)),
        RngStream(5),
    )
    assert patients == before


def test_evolve_full_elitism_changes_nothing():
    patients = small_patient_population()
    before = copy.deepcopy(patients)
    rng = RngStream(5)
    cfg = ga_config(tournament_size=3, num_elites=len(patients), mutation_chance=1.0,
                    crossover_chance=1.0, tournaments_per_round=10)
    evolve_population(
        patients, cfg, [fitness_patient(p) for p in patients],
        lambda p: mutate_patient(p, rng),
        lambda l, w: crossover_patient(l, w, rng),
        rng,
    )
    assert patients == before


def test_evolve_restores_elite_even_when_it_loses_a_tournament():
    # With two elites and pairwise tournaments, the second-ranked elite
    # loses to the first; the restore must bring it back verbatim, while
    # a mutated non-elite loser keeps its change.
    patients = [make_patient(i, resilience=0.2) for i in range(3)]
    before = copy.deepcopy(patients)
    events = []

    def mutate(p):
        events.append(p.patient_id)
        p.resilience = 0.4

    cfg = ga_config(tournament_size=2, num_elites=2, mutation_chance=1.0,
                    crossover_chance=0.0, tournaments_per_round=2)
    stub = StubRng(sample=[(0, 1), (1, 2)], chance=[False, True, False, True])
    evolve_population(patients, cfg, [0.9, 0.5, 0.1], mutate, lambda l, w: None, stub)
    # First event: elite 1 loses to elite 0 and is mutated; second event:
    # patient 2 loses to elite 1 and is mutated.
    assert events == [1, 2]
    assert patients[:2] == before[:2]
    assert patients[2].resilience == 0.4


@settings(max_examples=200)
@given(st.data())
def test_evolve_copies_elites_in_rank_order_with_ties_by_id(data):
    scores = data.draw(tied_scores)
    n = len(scores)
    num_elites = data.draw(st.integers(min_value=0, max_value=n - 1))
    patients = [make_patient(i) for i in range(n)]
    copied = []

    def deepcopy(agent):
        copied.append(agent.patient_id)
        return copy.deepcopy(agent)

    cfg = ga_config(num_doctors=n, num_patients=n, num_elites=num_elites, tournament_size=1,
                    mutation_chance=0.0, crossover_chance=0.0, tournaments_per_round=1)
    with mock.patch.object(evolution, "copy", types.SimpleNamespace(deepcopy=deepcopy)):
        evolve_population(patients, cfg, scores, None, None, RngStream(n))
    assert copied == sorted(range(n), key=lambda i: (-scores[i], i))[:num_elites]


def test_evolve_is_pure_function_of_seed():
    ledger = rated_ledger(0, 3)
    for i in range(1, 6):
        ledger.add_rating(i, 0, (i * 2) % 6)
    make_population = lambda: [make_doctor(
        i, social_ties_doctors=[0.0 if j == i else 0.2 + 0.1 * j for j in range(6)],
        social_ties_patients=[0.5]) for i in range(6)]
    results = []
    for _ in range(2):
        doctors = make_population()
        rng = RngStream(77)
        cfg = ga_config(tournament_size=3, num_elites=1, mutation_chance=0.7,
                        crossover_chance=0.7, tournaments_per_round=15)
        evolve_population(
            doctors, cfg,
            [fitness_doctor(d, ledger) for d in doctors],
            lambda d: mutate_doctor_css(d, ledger, rng),
            lambda l, w: crossover_doctor(l, w, rng),
            rng,
        )
        results.append(doctors)
    assert results[0] == results[1]
