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


@settings(max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(snapshots)
def test_snapshot_bytes_equal_json_dumps_of_document(tmp_path, snapshot):
    # The file is rewritten in place for every example.
    path = tmp_path / "net.json"
    export_network_snapshot(snapshot, path)
    document = {
        "round": snapshot.round_index,
        "nodes": [{"id": node_id, "kind": kind} for node_id, kind in snapshot.nodes],
        "edges": [
            {"source": src, "target": dst, "strength": strength}
            for src, dst, strength in snapshot.edges
        ],
    }
    expected = json.dumps(document, sort_keys=True, indent=2) + "\n"
    assert path.read_bytes() == expected.encode("utf-8")
    assert parsed_snapshot(path) == snapshot


def test_snapshot_to_directory_path_raises_oserror_naming_it(tmp_path):
    target = tmp_path / "taken.json"
    target.mkdir()
    with pytest.raises(OSError, match="cannot write network snapshot to") as info:
        export_network_snapshot(capture_snapshot(snapshot_state(), 1), target)
    assert str(target) in str(info.value)
