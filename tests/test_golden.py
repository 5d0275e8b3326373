"""Golden output check: SHA-256 digests of the bytes the CLI writes, of
the ``metrics.csv`` text of edge-population configs run as a library, and
of the full-precision final state of runs driven round by round, plus
pins of float sums whose rounding ``sum()`` changed in CPython 3.12.

A seed plus a config fixes every output byte, so a refactor that claims
to keep behaviour must leave these digests unchanged.  The digests agree
on CPython 3.10 to 3.13.  A change that alters behaviour on purpose
re-records them and says why.

Imports only the standard library and ``caresim``, so it runs with
pytest or directly, which calls every module-level ``test_*`` function::

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import hashlib
import io
import random
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

from caresim import (
    RatingLedger,
    SimulationConfig,
    derive_run_seed,
    init_run_state,
    preset_single_run,
    run_batch,
    run_round,
)
from caresim.agents import PatientState
from caresim.classical import update_health_level
from caresim.cli import main
from caresim.evolution import fitness_patient
from caresim.reporting import render_metrics_csv

SINGLE = ["--preset", "paper-single", "--seed", "123"]
REDUCED_FULL = [
    "--doctors", "100", "--patients", "1000", "--rounds", "15",
    "--infected", "200", "--repeats", "2", "--seed", "7",
]
# Small css run with high GA chances, so css doctors mutate their ties.
TIE_MUTATION = [
    "--model", "css", "--doctors", "12", "--patients", "60", "--rounds", "25",
    "--infected", "30", "--repeats", "2", "--elites", "3", "--tournaments-per-round", "7",
    "--mutation-chance", "0.9", "--crossover-chance", "0.9", "--snapshot-every", "5",
    "--seed", "1",
]

# (case name, CLI arguments, {output file name: SHA-256 hex digest})
GOLDEN = (
    (
        "single-classical",
        ["--model", "classical", *SINGLE],
        {"metrics.csv": "0ca46318708332140ca3dda1a26fb3313683ca6639a728a0a1ae38503be3928b"},
    ),
    (
        "single-css",
        ["--model", "css", *SINGLE],
        {"metrics.csv": "84a3c217a8bc7283f47be219816d4d0a06282a9ff9a5653cb1e76a5c22f3a1c7"},
    ),
    (
        "single-css-snapshots",
        ["--model", "css", *SINGLE, "--snapshot-every", "5"],
        {
            "metrics.csv": "84a3c217a8bc7283f47be219816d4d0a06282a9ff9a5653cb1e76a5c22f3a1c7",
            "network_run000_round0005.json": "768294fafe45b98309bce5ff70a8cdd0687d0e159a70db42a54823063e744a3d",
            "network_run000_round0010.json": "372502ed7331eef8a1a2b639399713eac396c033d2b3ede74cc40505e43d0ada",
            "network_run000_round0015.json": "1df6367317999405aadc267a655cf7e15451aead500f0fd4093b6dcda5a31d48",
            "network_run000_round0020.json": "4a1c6a5d91ceb67fc843bd8dc3f1d7fbbfc9826137e03b4bf343ebc31c78450c",
        },
    ),
    (
        "reduced-full-classical",
        ["--model", "classical", *REDUCED_FULL],
        {"metrics.csv": "db9956a079c1513f169ee8828a7aa799ef458cb2902a313fa0bfab57fc29f9c4"},
    ),
    (
        "reduced-full-css",
        ["--model", "css", *REDUCED_FULL],
        {"metrics.csv": "ad25a1686bc40d26a6bf0de47bb174265a8385ac07eb954a57a37006118fd718"},
    ),
    (
        "small-css-tie-mutation",
        TIE_MUTATION,
        {
            "metrics.csv": "0c1c42b7b5b2b968f2192397d9f2f10dcd528e02745937d1b14cbf4aeeeb5317",
            "network_run000_round0005.json": "0e0e12ad5e61507b5a654da48e19bac264522167cc199254bb2c883200269b93",
            "network_run000_round0010.json": "3ee6aad32a6dde402c174a6354a8c70ba3e971a6ca7e62f16db30f9ea2369670",
            "network_run000_round0015.json": "9151e005d5f4220656f67822d65fe8a33d38612ad6290c8f6f5c2389c8d73b94",
            "network_run000_round0020.json": "c074a1b3fbba39cb98c9e3d9a7b9e7d0bcc6edb2561b8c9fac99e0ba207aeab4",
            "network_run000_round0025.json": "7942e18970042f1f9ee01c742e9a8b98f904ad631259407a2deb7057e46ebd6a",
            "network_run001_round0005.json": "3693446a4987a01d6b5486c16ebd55679e843131d90ff9f558b7fab2417bded3",
            "network_run001_round0010.json": "feafe7bccfd7d9b1d85a8ff4ef306138561a5bec7f3634257e09495f4566a5c1",
            "network_run001_round0015.json": "10c9d7ba3be9201dc0a650326612ce2dfcd4276775b283ae7f369be390d294d2",
            "network_run001_round0020.json": "01ea9aa916075595b320d309e74bdab3ecc857c5bf5594e043b1a92dc6268f8f",
            "network_run001_round0025.json": "50077459de6904c718b0b1c536726ff13e8f103e562d4b56793fa8f024cc8a3c",
        },
    ),
)

# Edge populations the CLI presets never reach, run through the library:
# (case name, SimulationConfig keyword arguments, metrics.csv SHA-256).
EDGE_CASE = dict(model="css", num_rounds=15, num_repeats=2, num_elites=0, tournament_size=1,
                 mutation_chance=1.0, crossover_chance=1.0, base_seed=3)
# Three elites and pairwise tournaments: an elite of rank r can lose only
# when the tournament size is at most r, so elites lose some tournaments
# (7 of each case's 120) and the elite restore path runs.
ELITE_LOSES = dict(num_doctors=6, num_patients=30, num_rounds=15, num_infected_per_round=10,
                   num_repeats=2, num_elites=3, tournament_size=2, mutation_chance=1.0,
                   crossover_chance=1.0, base_seed=5)
LIBRARY = (
    (
        "css-one-doctor",
        dict(EDGE_CASE, num_doctors=1, num_patients=20, num_infected_per_round=8),
        "c15ee43f25cc114fe4e7e0c9af0a245ed1e478ba491ff493cc6ccf0b154ed655",
    ),
    (
        "css-one-patient",
        dict(EDGE_CASE, num_doctors=5, num_patients=1, num_infected_per_round=1),
        "c4477d9e16e2c80e0feebc3b0b0a07f306ba16186556984889af42b5cf86c3f2",
    ),
    (
        "css-two-by-two-self-tournament",
        dict(EDGE_CASE, num_doctors=2, num_patients=2, num_infected_per_round=2,
             tournaments_per_round=3),
        "78c2948266288d359e915311d8325657a335baf39bb6044d651476ce6b0f1268",
    ),
    (
        "classical-elite-loses-tournament",
        dict(ELITE_LOSES, model="classical"),
        "afec86b553138c795ecc158f9f35e098868b38208b1e3af01597c8f5f236fe2b",
    ),
    (
        "css-elite-loses-tournament",
        dict(ELITE_LOSES, model="css"),
        "7ce98d254001a9ec9e1bf13f3ca202d26e7b804c476b4315d1ef46bea07d4fe0",
    ),
)


def run_digests(argv: list[str]) -> dict[str, str]:
    """Run the CLI into a fresh directory; return the digest of every file it wrote."""
    with tempfile.TemporaryDirectory() as tmp:
        with redirect_stdout(io.StringIO()):
            code = main([*argv, "--out", tmp])
        assert code == 0, f"caresim exited with {code}"
        return {
            path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(Path(tmp).iterdir())
        }


def check(name: str, argv: list[str], expected: dict[str, str]) -> None:
    actual = run_digests(argv)
    assert actual == expected, f"{name}: output digests changed\nexpected {expected}\nactual   {actual}"


def check_library(name: str, kwargs: dict, expected: str) -> None:
    csv = render_metrics_csv(run_batch(SimulationConfig(**kwargs)).aggregates)
    actual = hashlib.sha256(csv.encode("utf-8")).hexdigest()
    assert actual == expected, f"{name}: metrics.csv digest changed\nexpected {expected}\nactual   {actual}"


def state_digest(model: str) -> str:
    """SHA-256 of a paper-single run's final state, driven round by round:
    every agent's ``repr``, each doctor's raw ledger entries, and the RNG
    state.  ``mean_rating`` is left out, since it still uses ``sum()``."""
    config = preset_single_run(model, base_seed=123)
    state = init_run_state(config, derive_run_seed(123, 0))
    for round_index in range(1, config.num_rounds + 1):
        run_round(state, round_index)
    ledger = state.ledger
    raw_ledger = [(ledger.recent_feedback(d),
                   [ledger.rating_by_patient(d, p) for p in range(config.num_patients)])
                  for d in range(config.num_doctors)]
    digest = hashlib.sha256()
    for item in (*state.doctors, *state.patients, *raw_ledger, state.rng.getstate()):
        digest.update(repr(item).encode("utf-8"))
    return digest.hexdigest()


def check_state(model: str, expected: str) -> None:
    actual = state_digest(model)
    assert actual == expected, f"{model}: final state digest changed\nexpected {expected}\nactual   {actual}"


def test_single_classical():
    check(*GOLDEN[0])


def test_single_css():
    check(*GOLDEN[1])


def test_single_css_snapshots():
    check(*GOLDEN[2])


def test_reduced_full_classical():
    check(*GOLDEN[3])


def test_reduced_full_css():
    check(*GOLDEN[4])


def test_small_css_tie_mutation():
    check(*GOLDEN[5])


def test_library_css_one_doctor():
    check_library(*LIBRARY[0])


def test_library_css_one_patient():
    check_library(*LIBRARY[1])


def test_library_css_two_by_two_self_tournament():
    check_library(*LIBRARY[2])


def test_library_classical_elite_loses_tournament():
    check_library(*LIBRARY[3])


def test_library_css_elite_loses_tournament():
    check_library(*LIBRARY[4])


def test_state_single_classical():
    check_state("classical", "3fb5ab4c6b569d8c72b3ee5201bc756a87a89fcc5a9d4844de7e123045d00646")


def test_state_single_css():
    # All-latent from round 7: pins the tie averaging skipped in rounds 7-20.
    check_state("css", "d4083a9cbfe6ffb4386a58b2807f1ef6ebd2d83570052aa06935cc2a0846e2bc")


# sum() of floats is compensated since CPython 3.12; these pins hold the
# left fold, which every interpreter computes alike.

def test_weighted_valuation_is_a_left_fold_on_every_interpreter():
    # sum() of these terms reads 28.939155935105294 on CPython 3.12+.
    rng = random.Random(5)
    ratings = [round(rng.uniform(0, 5), 1) for _ in range(21)]
    ties = [rng.random() for _ in range(21)]
    ledger = RatingLedger()
    for patient, rating in enumerate(ratings):
        ledger.add_rating(0, patient, rating)
    actual = ledger.weighted_valuation(0, ties)
    assert actual == 28.93915593510529, f"weighted-valuation-left-fold: read {actual!r}"


def test_fitness_patient_is_a_left_fold_on_every_interpreter():
    # sum() of these levels reads 0.6, so a mean of 0.19999999999999998, on CPython 3.12+.
    patient = PatientState(patient_id=0)
    for level in (0.1, 0.2, 0.3):
        patient.health_level = level
        update_health_level(patient, 0.0)
    actual = fitness_patient(patient)
    assert actual == 0.20000000000000004, f"fitness-patient-left-fold: read {actual!r}"


if __name__ == "__main__":
    cases = [(name, case) for name, case in globals().items()
             if name.startswith("test_") and callable(case)]
    failed = 0
    for name, case in cases:
        try:
            case()
        except Exception as exc:  # a failing or crashing case must not hide the others
            failed += 1
            print(f"FAIL {name}: {type(exc).__name__}: {exc}")
        else:
            print(f"ok   {name}")
    print(f"golden: {len(cases) - failed}/{len(cases)} ok on Python {sys.version.split()[0]}")
    sys.exit(1 if failed else 0)
