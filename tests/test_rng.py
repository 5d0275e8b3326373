import ast
import copy
import pickle
import random
from collections.abc import Sequence
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from caresim import rng as rng_module
from caresim.rng import RngStream, derive_run_seed, splitmix64
from support import copying_sample

# splitmix64 finalizer of 0, frozen as a regression value for the seed mix.
SPLITMIX64_OF_ZERO = 16294208416658607535


def test_derive_run_seed_zero_zero_regression():
    assert derive_run_seed(0, 0) == SPLITMIX64_OF_ZERO
    assert splitmix64(0) == SPLITMIX64_OF_ZERO


def test_derive_run_seed_deterministic_and_distinct():
    assert derive_run_seed(99, 3) == derive_run_seed(99, 3)
    assert derive_run_seed(99, 0) != derive_run_seed(99, 1)


def test_derive_run_seed_rejects_negative_repeat():
    with pytest.raises(ValueError):
        derive_run_seed(1, -1)


@given(st.integers(min_value=0, max_value=2**64 - 1), st.integers(min_value=0, max_value=4096))
def test_derive_run_seed_64_bit(base, repeat):
    seed = derive_run_seed(base, repeat)
    assert 0 <= seed < 2**64


def test_derive_run_seed_injective_over_repeats():
    seeds = {derive_run_seed(7, i) for i in range(2000)}
    assert len(seeds) == 2000


def test_stream_is_deterministic():
    a = RngStream(42)
    b = RngStream(42)
    draws_a = [a.uniform(0, 1), a.sign(), a.index(10), a.chance(0.5), a.random()]
    draws_b = [b.uniform(0, 1), b.sign(), b.index(10), b.chance(0.5), b.random()]
    assert draws_a == draws_b


def test_uniform_respects_bounds():
    rng = RngStream(1)
    for _ in range(1000):
        value = rng.uniform(0.2, 0.6)
        assert 0.2 <= value < 0.6


def test_sample_without_replacement():
    rng = RngStream(5)
    items = list(range(20))
    picked = rng.sample(items, 8)
    assert len(picked) == len(set(picked)) == 8
    assert set(picked) <= set(items)
    assert items == list(range(20))


def test_sample_full_population_is_permutation():
    rng = RngStream(6)
    picked = rng.sample(range(9), 9)
    assert sorted(picked) == list(range(9))


@pytest.mark.parametrize("container", [list, tuple, "range"])
def test_sample_matches_copying_oracle(container):
    # Same picks in the same order, and the stream is left at the same
    # point, for every k of every small population.
    for seed in range(12):
        for n in range(1, 31):
            if container == "range":
                items = range(100, 100 + 3 * n, 3)
            else:
                items = container(f"agent-{i}" for i in range(n))
            for k in range(n + 1):
                rng, oracle = RngStream(seed), RngStream(seed)
                assert rng.sample(items, k) == copying_sample(oracle, items, k)
                assert rng.random() == oracle.random()


class IndexOnly(Sequence):
    """A sequence that counts reads by index and refuses iteration."""

    def __init__(self, size):
        self.size = size
        self.reads = 0

    def __len__(self):
        return self.size

    def __getitem__(self, position):
        if not 0 <= position < self.size:
            raise IndexError(position)
        self.reads += 1
        return position

    def __iter__(self):
        raise AssertionError("sample iterated its items")


def test_sample_reads_only_the_picks():
    for k in (0, 1, 5, 40):
        items = IndexOnly(1_000)
        picked = RngStream(k).sample(items, k)
        assert picked == copying_sample(RngStream(k), range(1_000), k)
        assert items.reads == k


def test_sample_rejects_oversize():
    with pytest.raises(ValueError):
        RngStream(0).sample([1, 2], 3)


def test_index_stays_in_range():
    rng = RngStream(9)
    assert all(0 <= rng.index(3) < 3 for _ in range(500))


def test_index_clamps_a_draw_of_one(monkeypatch):
    # random() is below 1.0, but a product u * n can still round up to n;
    # index() then returns the last position, from the same single draw.
    monkeypatch.setattr(rng_module, "_draw", lambda stream: 1.0)
    for n in (1, 2, 7, 1000, 2**53 + 1, 2**80):
        assert RngStream(0).index(n) == n - 1


def test_index_is_the_clamped_floor_of_one_draw(monkeypatch):
    for u in (0.0, 2**-53, 0.25, 1 / 3, 0.5, 0.999, 1 - 2**-53, 1.0):
        monkeypatch.setattr(rng_module, "_draw", lambda stream, u=u: u)
        for n in (1, 2, 3, 7, 10, 1000, 2**53 - 1, 2**53, 2**53 + 1, 2**80):
            assert RngStream(0).index(n) == min(int(u * n), n - 1), (u, n)


def test_uniform_zero_one_is_random_bit_for_bit():
    # 0.0 + (1.0 - 0.0) * u == u exactly, so tie init may draw random().
    a = RngStream(2024)
    b = RngStream(2024)
    for _ in range(10_000):
        assert a.uniform(0.0, 1.0).hex() == b.random().hex()


def test_randoms_equals_single_draws_of_a_twin():
    for n in (0, 1, 1_000):
        rng, twin = RngStream(n + 11), RngStream(n + 11)
        assert rng.randoms(n) == [twin.random() for _ in range(n)]
        assert rng.random() == twin.random()


def test_copy_and_pickle_keep_the_stream_position():
    # random.Random copies and pickles by calling the class with no
    # arguments and then restoring the state; a RunState deep copy takes
    # that path for its stream.
    rng = RngStream(9)
    rng.randoms(5)
    twins = [copy.copy(rng), copy.deepcopy(rng), pickle.loads(pickle.dumps(rng))]
    expected = rng.randoms(3)
    for twin in twins:
        assert type(twin) is RngStream
        assert twin.randoms(3) == expected


def test_counting_wrapper_on_random_sees_bulk_draws_only(monkeypatch):
    # The benchmark's tracer wraps RngStream methods at class level and
    # counts each call as one draw; randoms(n) must reach it n times, and
    # the one-draw primitives must not reach it at all (their own wrappers
    # count them), or the traced rng.draws would change.
    counted = [0]
    original = RngStream.random

    def counting(*args, **kwargs):
        counted[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(RngStream, "random", counting)
    rng, twin = RngStream(4), RngStream(4)
    for n in (0, 1, 1_000):
        before = counted[0]
        assert rng.randoms(n) == [original(twin) for _ in range(n)]
        assert counted[0] - before == n
    one_draw_calls = {
        "uniform": lambda r: r.uniform(0.2, 0.6),
        "chance": lambda r: r.chance(0.5),
        "sign": lambda r: r.sign(),
        "index": lambda r: r.index(7),
        "sample": lambda r: r.sample(range(50), 9),
    }
    for name, call in one_draw_calls.items():
        before = counted[0]
        call(rng)
        assert counted[0] == before, name


DRAW_VOCABULARY = {"random", "randoms", "uniform", "chance", "sign", "index", "choice", "sample"}
SOURCES = Path(__file__).resolve().parent.parent / "src" / "caresim"


def _is_stream(node) -> bool:
    return (isinstance(node, ast.Name) and node.id == "rng") or (
        isinstance(node, ast.Attribute) and node.attr == "rng"
    )


def test_only_the_draw_vocabulary_is_called_on_a_stream():
    # RngStream is a random.Random, so shuffle, choices, randint, gauss,
    # getrandbits, seed, setstate, ... are reachable; their draw patterns
    # are not stable across Python versions and are not part of the
    # contract.  Calls on an RNG stream must stay inside the vocabulary.
    called = set()
    for path in sorted(SOURCES.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if _is_stream(node.func.value):
                    assert node.func.attr in DRAW_VOCABULARY, (path.name, node.lineno)
                    called.add(node.func.attr)
    assert {"randoms", "random", "uniform", "sample"} <= called


def test_stream_uses_no_stdlib_helper_on_itself():
    # Within rng.py, neither ``self.<helper>`` nor ``random.Random.<helper>``
    # may reach an inherited method outside the vocabulary.
    tree = ast.parse((SOURCES / "rng.py").read_text())
    inherited = set(dir(random.Random)) - DRAW_VOCABULARY
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in inherited:
            receiver = ast.unparse(node.value)
            assert receiver not in ("self", "random.Random"), (node.attr, node.lineno)
