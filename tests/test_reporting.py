import csv
import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from caresim import (
    ModelKind,
    init_run_state,
    capture_snapshot,
    run_batch,
)
from caresim.config import SimulationConfig
from caresim.engine import METRIC_FIELDS, NetworkSnapshot
from caresim.reporting import (
    CSV_HEADER,
    export_metrics_csv,
    export_network_snapshot,
    render_metrics_csv,
)
from support import peak_traced_bytes


def tiny_batch(model="classical"):
    cfg = SimulationConfig(
        model=model, num_doctors=4, num_patients=10, num_rounds=3,
        num_infected_per_round=5, num_repeats=2, base_seed=21,
        tournament_size=3, num_elites=1,
    )
    return run_batch(cfg)


def test_empty_series_writes_header_only(tmp_path):
    path = tmp_path / "metrics.csv"
    export_metrics_csv([], path)
    assert path.read_text(encoding="utf-8") == ",".join(CSV_HEADER) + "\n"


def test_identical_exports_are_byte_identical(tmp_path):
    batch = tiny_batch()
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    export_metrics_csv(batch.aggregates, first)
    export_metrics_csv(batch.aggregates, second)
    assert first.read_bytes() == second.read_bytes()


def test_csv_parses_back_with_consistent_columns(tmp_path):
    batch = tiny_batch()
    path = tmp_path / "metrics.csv"
    export_metrics_csv(batch.aggregates, path)
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    header, *body = rows
    assert header == list(CSV_HEADER)
    assert len(body) == 2 * len(batch.aggregates)
    for row in body:
        assert len(row) == len(header)
        assert row[0] == "classical"
        assert row[1] in ("mean", "std")
        float(row[2])
        for cell in row[3:]:
            whole, frac = cell.split(".")
            assert len(frac) == 6
    # Parsed means match the aggregates at export precision.
    mean_rows = [row for row in body if row[1] == "mean"]
    for agg, row in zip(batch.aggregates, mean_rows):
        for name, cell in zip(METRIC_FIELDS, row[3:]):
            assert abs(float(cell) - agg.mean[name]) <= 5e-7


def test_csv_uses_lf_newlines(tmp_path):
    batch = tiny_batch()
    path = tmp_path / "metrics.csv"
    export_metrics_csv(batch.aggregates, path)
    raw = path.read_bytes()
    assert b"\r" not in raw
    assert raw.endswith(b"\n")


def test_render_metrics_round_column_counts_rounds():
    batch = tiny_batch()
    text = render_metrics_csv(batch.aggregates)
    rounds = [line.split(",")[2] for line in text.strip().splitlines()[1:]]
    assert rounds == ["1", "1", "2", "2", "3", "3"]


def snapshot_state():
    cfg = SimulationConfig(
        model=ModelKind.CSS, num_doctors=2, num_patients=1, num_rounds=1,
        num_infected_per_round=0, tournament_size=1, num_elites=0,
    )
    return init_run_state(cfg, 8)


def test_snapshot_counts_for_two_doctors_one_patient():
    snapshot = capture_snapshot(snapshot_state(), 1)
    assert len(snapshot.nodes) == 3
    assert ("d0", "doctor") in snapshot.nodes and ("p0", "patient") in snapshot.nodes
    assert len(snapshot.edges) == 6
    assert all(0.0 <= strength <= 1.0 for _, _, strength in snapshot.edges)
    sources_targets = {(src, dst) for src, dst, _ in snapshot.edges}
    assert sources_targets == {
        ("d0", "d1"), ("d1", "d0"), ("d0", "p0"), ("d1", "p0"), ("p0", "d0"), ("p0", "d1"),
    }


def parsed_snapshot(path) -> NetworkSnapshot:
    document = json.loads(path.read_text(encoding="utf-8"))
    return NetworkSnapshot(
        round_index=document["round"],
        nodes=[(node["id"], node["kind"]) for node in document["nodes"]],
        edges=[(e["source"], e["target"], e["strength"]) for e in document["edges"]],
    )


def test_snapshot_round_trip_is_exact(tmp_path):
    snapshot = capture_snapshot(snapshot_state(), 4)
    path = tmp_path / "net.json"
    export_network_snapshot(snapshot, path)
    assert parsed_snapshot(path) == snapshot


def test_snapshot_json_shape_and_sorted_keys(tmp_path):
    snapshot = capture_snapshot(snapshot_state(), 2)
    path = tmp_path / "net.json"
    export_network_snapshot(snapshot, path)
    raw = path.read_text(encoding="utf-8")
    document = json.loads(raw)
    assert set(document) == {"round", "nodes", "edges"}
    assert document["round"] == 2
    assert raw == json.dumps(document, sort_keys=True, indent=2) + "\n"
    for edge in document["edges"]:
        assert set(edge) == {"source", "target", "strength"}


strengths = st.one_of(st.sampled_from([0.0, 1.0, 1e-06]), st.floats(allow_nan=False, allow_infinity=False))
snapshots = st.builds(
    NetworkSnapshot,
    round_index=st.integers(min_value=0, max_value=2**63),
    nodes=st.lists(st.tuples(st.text(), st.text()), max_size=8),
    edges=st.lists(st.tuples(st.text(), st.text(), strengths), max_size=8),
)


def dumped(snapshot) -> bytes:
    """The snapshot's document as ``json.dumps`` lays it out: the file's bytes."""
    document = {
        "round": snapshot.round_index,
        "nodes": [{"id": node_id, "kind": kind} for node_id, kind in snapshot.nodes],
        "edges": [
            {"source": src, "target": dst, "strength": strength}
            for src, dst, strength in snapshot.edges
        ],
    }
    return (json.dumps(document, sort_keys=True, indent=2) + "\n").encode("utf-8")


@settings(max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(snapshots)
def test_snapshot_bytes_equal_json_dumps_of_document(tmp_path, snapshot):
    # The file is rewritten in place for every example.
    path = tmp_path / "net.json"
    export_network_snapshot(snapshot, path)
    assert path.read_bytes() == dumped(snapshot)
    assert parsed_snapshot(path) == snapshot


# Names that json.dumps escapes, and floats whose repr is unusual.
ODD_NAMES = ['say "hi"', "back\\slash", "Zürich 東京", "bell\x07", "d0", ""]
ODD_STRENGTHS = [-0.0, 5e-324, 1e-06, 1e16, 0.1 + 0.2, 1.0]


def sized_snapshot(num_edges, num_nodes):
    # The first item is written alone and the rest in joined chunks of
    # 1,000, so 1,001 and 2,001 items end on a chunk and 1,000 one short.
    edges = [(ODD_NAMES[i % 6], ODD_NAMES[i % 5], ODD_STRENGTHS[i % 6])
             for i in range(num_edges)]
    nodes = [(ODD_NAMES[i % 6] + str(i), ("doctor", "patient")[i % 2]) for i in range(num_nodes)]
    return NetworkSnapshot(round_index=num_edges, nodes=nodes, edges=edges)


@pytest.mark.parametrize("num_edges, num_nodes", [(0, 3), (1000, 3), (1001, 3), (2001, 3), (6, 1001), (0, 0)])
def test_snapshot_bytes_across_chunk_boundaries(tmp_path, num_edges, num_nodes):
    snapshot = sized_snapshot(num_edges, num_nodes)
    path = tmp_path / "net.json"
    export_network_snapshot(snapshot, path)
    assert path.read_bytes() == dumped(snapshot)


def test_snapshot_bytes_of_odd_names_and_strengths(tmp_path):
    edges = [(src, dst, strength) for src in ODD_NAMES for dst in ODD_NAMES[::-1] for strength in ODD_STRENGTHS]
    snapshot = NetworkSnapshot(round_index=7, nodes=[(name, name) for name in ODD_NAMES], edges=edges)
    path = tmp_path / "net.json"
    export_network_snapshot(snapshot, path)
    raw = path.read_bytes()
    assert raw == dumped(snapshot)
    for text in ('"say \\"hi\\""', '"back\\\\slash"', '"Z\\u00fcrich \\u6771\\u4eac"', '"bell\\u0007"',
                 "-0.0", "5e-324", "1e-06", "1e+16", "0.30000000000000004", "1.0"):
        assert text.encode() in raw
    assert parsed_snapshot(path) == snapshot


def test_snapshot_export_streams_in_chunks(tmp_path):
    # The file is written a chunk at a time, so the export's peak memory
    # stays far below the file's size; a writer that joins the whole
    # document holds all of it at once.
    cfg = SimulationConfig(model=ModelKind.CSS, num_doctors=30, num_patients=220, num_rounds=1,
                           num_infected_per_round=0)
    snapshot = capture_snapshot(init_run_state(cfg, 3), 0)
    assert len(snapshot.edges) >= 50_000
    path = tmp_path / "net.json"
    peak = peak_traced_bytes(lambda: export_network_snapshot(snapshot, path))
    assert peak < path.stat().st_size / 10


def test_snapshot_to_directory_path_raises_oserror_naming_it(tmp_path):
    target = tmp_path / "taken.json"
    target.mkdir()
    with pytest.raises(OSError, match="cannot write network snapshot to") as info:
        export_network_snapshot(capture_snapshot(snapshot_state(), 1), target)
    assert str(target) in str(info.value)
