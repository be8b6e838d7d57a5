"""Reference readers of the ``.graph``, ``.emb`` and ``.drawing`` text
formats, used to check that ``angres.graphs.read_graph``,
``read_embedding`` and ``angres.metrics.read_drawing`` return the same
arrays and raise the same messages.

This is the straightforward form: one ``str.splitlines`` and one
``str.split`` per line, and one loop over the records that checks each in
turn, so the first bad line raises and its first failing check words the
error.  Besides a record's tag, field count, numbers and repeats, it
rejects a vertex count beyond int64 or ``MAX_VERTICES`` and a ``p`` or
``rot`` record for a negative vertex or one beyond int64, naming the line,
and it names the first vertex that a drawing or an embedding has no record
for.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from angres.graphs import (
    MAX_VERTICES,
    Embedding,
    LabeledGraph,
    StructureError,
    _pair_error,
    parse_numbers,
)

INT64_END = 2**63


def text_records(
    text: str, arity: dict[str, int], exact: bool = True
) -> Iterator[tuple[int, str, list[str]]]:
    """(line number, tag, fields) for each record, skipping blank and ``#``
    lines.  ``arity`` maps every known tag to its field count, a minimum
    unless ``exact``."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts or parts[0].startswith("#"):
            continue
        tag, fields = parts[0], parts[1:]
        if tag not in arity:
            raise StructureError(f"line {lineno}: unknown record {tag!r}")
        if len(fields) < arity[tag] or (exact and len(fields) > arity[tag]):
            raise StructureError(
                f"line {lineno}: {tag!r} record needs {arity[tag]} fields, got {len(fields)}"
            )
        yield lineno, tag, fields


def _first_missing(vertices, what: str) -> None:
    """Raise naming the first vertex of 0 .. len(vertices) - 1 not in
    ``vertices``, if any."""
    for u in range(len(vertices)):
        if u not in vertices:
            raise StructureError(f"{what} for vertex {u}")


def read_graph(text: str) -> LabeledGraph:
    n: int | None = None
    pairs: set[tuple[int, int]] = set()
    labels: dict[int, str] = {}
    for lineno, tag, fields in text_records(text, {"graph": 1, "e": 2, "l": 2}):
        if tag == "graph":
            if n is not None:
                raise StructureError(f"line {lineno}: repeated 'graph' header")
            (n,) = parse_numbers(lineno, fields, int)
            if n < 0:
                raise StructureError(f"line {lineno}: negative vertex count {n}")
            if n >= INT64_END:
                raise StructureError(f"line {lineno}: vertex count {n} beyond int64")
            if n > MAX_VERTICES:
                raise StructureError(
                    f"line {lineno}: vertex count {n} exceeds {MAX_VERTICES}: "
                    "edge keys would overflow int64"
                )
        elif n is None:
            raise StructureError(f"line {lineno}: {tag!r} record before the 'graph' header")
        elif tag == "e":
            i, j = parse_numbers(lineno, fields, int)
            pair = (i, j) if i < j else (j, i)
            if pair[0] < 0 or i == j or pair[1] >= n:
                raise StructureError(f"line {lineno}: {_pair_error(i, j, n)}")
            if pair in pairs:
                raise StructureError(f"line {lineno}: repeated 'e' record for edge {pair}")
            pairs.add(pair)
        else:
            (v,) = parse_numbers(lineno, fields[:1], int)
            if not 0 <= v < n:
                raise StructureError(f"line {lineno}: label on unknown vertex {v}")
            if v in labels:
                raise StructureError(f"line {lineno}: repeated 'l' record for vertex {v}")
            labels[v] = fields[1]
    if n is None:
        raise StructureError("missing 'graph <V>' header")
    graph = LabeledGraph(n, pairs, labels)
    graph.validate()
    return graph


def read_embedding(text: str) -> Embedding:
    rot: dict[int, list[int]] = {}
    outer: tuple[int, ...] | None = None
    for lineno, tag, fields in text_records(text, {"rot": 1, "outer": 3}, exact=False):
        vertices = parse_numbers(lineno, fields, int)
        if tag == "rot":
            v = vertices[0]
            if not 0 <= v < INT64_END:
                raise StructureError(f"line {lineno}: 'rot' record for vertex {v} out of range")
            if v in rot:
                raise StructureError(f"line {lineno}: repeated 'rot' record for vertex {v}")
            rot[v] = vertices[1:]
        else:
            if outer is not None:
                raise StructureError(f"line {lineno}: repeated 'outer' record")
            outer = tuple(vertices)
    if outer is None:
        raise StructureError("missing 'outer' line")
    _first_missing(rot, "embedding has no 'rot' record")
    return Embedding.from_rows([rot[v] for v in range(len(rot))], outer)


def read_drawing(text: str) -> np.ndarray:
    pts: dict[int, tuple[float, float]] = {}
    for lineno, _, fields in text_records(text, {"p": 3}):
        (v,) = parse_numbers(lineno, fields[:1], int)
        if not 0 <= v < INT64_END:
            raise StructureError(f"line {lineno}: 'p' record for vertex {v} out of range")
        if v in pts:
            raise StructureError(f"line {lineno}: repeated 'p' record for vertex {v}")
        pts[v] = tuple(parse_numbers(lineno, fields[1:], float))
    _first_missing(pts, "drawing has no 'p' record")
    return np.array([pts[v] for v in range(len(pts))], dtype=float).reshape(-1, 2)
