"""Deterministic file outputs: metrics CSV and network snapshot JSON.

Both writers are byte-stable: fixed column order, six-decimal reals,
LF line endings, and sorted JSON keys, so identical inputs always
produce identical files.  Snapshots are written as joined chunks of
1,000 items, in the bytes of
``json.dumps(document, indent=2, sort_keys=True) + "\n"``.
"""

from __future__ import annotations

import json
from itertools import islice
from operator import add, itemgetter
from pathlib import Path
from typing import Iterator, TextIO

from .engine import METRIC_FIELDS, NetworkSnapshot, RoundAggregate

CSV_HEADER = ("model", "stat", "round", *METRIC_FIELDS)


def render_metrics_csv(aggregates: list[RoundAggregate]) -> str:
    lines = [",".join(CSV_HEADER)]
    for agg in aggregates:
        for stat, values in (("mean", agg.mean), ("std", agg.std)):
            cells = [agg.model.value, stat, str(agg.round_index)]
            cells += [f"{values[name]:.6f}" for name in METRIC_FIELDS]
            lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def export_metrics_csv(aggregates: list[RoundAggregate], path: str | Path) -> None:
    path = Path(path)
    try:
        path.write_text(render_metrics_csv(aggregates), encoding="utf-8", newline="\n")
    except OSError as exc:
        raise OSError(f"cannot write metrics CSV to {path}: {exc}") from exc


class _Pieces(dict):
    """A name's piece of an array item, formatted once with the name quoted by ``json.dumps``."""

    def __init__(self, template: str) -> None:
        super().__init__()
        self.template = template

    def __missing__(self, name: str) -> str:
        piece = self[name] = self.template % json.dumps(name)
        return piece


_CHUNK = 1000  # items joined per write


def _write_array(handle: TextIO, key: str, items: Iterator[str]) -> None:
    first = next(items, None)
    if first is None:
        handle.write(f'  "{key}": [],\n')
    else:
        handle.write(f'  "{key}": [{first[1:]}')  # the first item takes no separating comma
        for chunk in iter(lambda: "".join(islice(items, _CHUNK)), ""):
            handle.write(chunk)
        handle.write("\n  ],\n")


def export_network_snapshot(snapshot: NetworkSnapshot, path: str | Path) -> None:
    path = Path(path)
    # The pieces of each array item, in json.dumps layout; repr is the float form json writes.
    heads = _Pieces(',\n    {\n      "source": %s,\n      "strength": ')
    tails = _Pieces(',\n      "target": %s\n    }')
    ids = _Pieces(',\n    {\n      "id": %s,\n')
    kinds = _Pieces('      "kind": %s\n    }')
    sources, targets, strengths = (map(itemgetter(i), snapshot.edges) for i in range(3))
    edges = map(add, map(add, map(heads.__getitem__, sources), map(repr, strengths)),
                map(tails.__getitem__, targets))
    nodes = map(add, map(ids.__getitem__, map(itemgetter(0), snapshot.nodes)),
                map(kinds.__getitem__, map(itemgetter(1), snapshot.nodes)))
    try:
        with path.open("w", encoding="utf-8", newline="\n") as handle:
            handle.write("{\n")
            _write_array(handle, "edges", edges)
            _write_array(handle, "nodes", nodes)
            handle.write(f'  "round": {snapshot.round_index!r}\n}}\n')
    except OSError as exc:
        raise OSError(f"cannot write network snapshot to {path}: {exc}") from exc

