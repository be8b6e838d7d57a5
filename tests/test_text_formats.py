"""The array readers of the text formats against the line-by-line readers
of ``tests/reader_oracle.py``, and the tokenizer against ``str.split`` and
``str.splitlines``."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reader_oracle
from angres.families import build_frame, build_Htilde
from angres.graphs import (
    _BREAK,
    _SPACE,
    Records,
    StructureError,
    read_embedding,
    read_graph,
    write_embedding,
    write_graph,
)
from angres.layout import layout_nested
from angres.metrics import read_drawing, write_drawing
from test_cli import MALFORMED

FAMILIES = [build_frame(2), build_Htilde(1, 2)]
TEXTS = {
    "graph": [write_graph(fam.graph) for fam in FAMILIES],
    "emb": [write_embedding(fam.embedding) for fam in FAMILIES],
    "drawing": [write_drawing(layout_nested(fam)) for fam in FAMILIES],
}
READERS = {
    "graph": (read_graph, reader_oracle.read_graph),
    "emb": (read_embedding, reader_oracle.read_embedding),
    "drawing": (read_drawing, reader_oracle.read_drawing),
}
JUNK = [
    "x", "0", "1", "4", "5", "-1", "-0", "+3", "1_0", "0x1", "٣", "1.5", "1e400",
    "nan", "-inf", str(2**70), str(-(2**70)), "#", "#x", "e", "l", "p", "rot", "outer", "graph",
]
SEPARATORS = ["\n", "\r\n", "\r", "\x0b", "\x1c", "\x85", " "]


def outcome(read, text):
    """What ``read`` returns for ``text`` as plain values, or its message."""
    try:
        got = read(text)
    except StructureError as exc:
        return f"error: {exc}"
    if isinstance(got, np.ndarray):
        return got.shape, got.tobytes()  # bit for bit, nan and -0.0 included
    if hasattr(got, "edges"):
        return got.n, got.edges.tolist(), got.labels
    return got.offset.tolist(), got.nbr.tolist(), got.outer_face, got.offset.dtype, got.nbr.dtype


@st.composite
def mutated(draw, kind):
    """A valid text of ``kind`` with records dropped, repeated or swapped,
    fields added, removed or replaced by junk, and comments, blank lines
    and other line ends put in."""
    lines = draw(st.sampled_from(TEXTS[kind])).splitlines()
    for _ in range(draw(st.integers(0, 4))):
        op = draw(st.sampled_from(["drop", "repeat", "swap", "add", "remove", "junk", "insert"]))
        k = draw(st.integers(0, len(lines)))
        if op == "insert" or not lines:
            lines.insert(k, draw(st.sampled_from(["", " \t", "# note", "#", "  # 0 1"])))
            continue
        k %= len(lines)
        words = lines[k].split()
        if op == "drop":
            del lines[k]
        elif op == "repeat":
            lines.insert(draw(st.integers(0, len(lines))), lines[k])
        elif op == "swap":
            m = draw(st.integers(0, len(lines) - 1))
            lines[k], lines[m] = lines[m], lines[k]
        elif op == "add":
            words.insert(draw(st.integers(0, len(words))), draw(st.sampled_from(JUNK)))
        elif op == "remove" and words:
            del words[draw(st.integers(0, len(words) - 1))]
        elif op == "junk" and words:
            words[draw(st.integers(0, len(words) - 1))] = draw(st.sampled_from(JUNK))
        if op in ("add", "remove", "junk"):
            lines[k] = draw(st.sampled_from([" ", "\t", "  ", "\xa0"])).join(words)
    end = draw(st.sampled_from(SEPARATORS))
    return end.join(lines) + draw(st.sampled_from(["", end]))


class TestReaderParity:
    """Every text gives the oracle's arrays, or its exact message."""

    @given(st.sampled_from(sorted(READERS)).flatmap(lambda k: st.tuples(st.just(k), mutated(k))))
    @settings(max_examples=400, deadline=None)
    @example(("graph", "graph 3\ne 0 5\ne 0 x\n"))
    @example(("graph", "graph 3\ne 0 x\ne 0 5\n"))
    @example(("graph", f"graph 3\ne 0 {2**70}\n"))
    @example(("graph", f"graph {2**70}\n"))
    @example(("graph", "e 0 1\ngraph 3\n"))
    @example(("emb", f"rot {2**70} 1\nouter 0 1 2\n"))
    @example(("emb", "rot 1 0\nrot 2 0\nouter 0 1 2\n"))
    @example(("emb", f"rot 0 {2**70} 1 4\nrot 1 0\nouter 0 1 2\n"))
    @example(("drawing", "p 0 0 0\np -1 0 z\n"))
    @example(("drawing", "p 0 0 0\np 2 0 0\n"))
    @example(("drawing", ""))
    def test_mutated_text(self, case):
        kind, text = case
        new, old = READERS[kind]
        assert outcome(new, text) == outcome(old, text)

    @pytest.mark.parametrize("case", MALFORMED)
    def test_malformed_cli_texts(self, case):
        graph_text, drawing_text, emb_text, _ = case
        for kind, text in (("graph", graph_text), ("drawing", drawing_text), ("emb", emb_text)):
            if text is not None:
                new, old = READERS[kind]
                assert outcome(new, text) == outcome(old, text)

    @pytest.mark.parametrize(
        "read, text, message",
        [
            (read_graph, "graph 3\ne 0 5\ne 0 x\n", "line 2: edge (0, 5) exceeds vertex count 3"),
            (read_graph, "graph 3\ne 0 x\ne 0 5\n",
             "line 2: invalid literal for int() with base 10: 'x'"),
            (read_graph, f"graph {2**70}\n", f"line 1: vertex count {2**70} beyond int64"),
            (read_embedding, "rot 0 1 2\nrot 1 2 0\nrot 3 0 1\nouter 0 1 2\n",
             "embedding has no 'rot' record for vertex 2"),
            (read_embedding, f"rot 0 1\nrot {2**70} 0\nouter 0 1 2\n",
             f"line 2: 'rot' record for vertex {2**70} out of range"),
            (read_drawing, "p 1 0.0 1.0\np 2 0.8 -0.5\np 3 -0.8 -0.5\n",
             "drawing has no 'p' record for vertex 0"),
            (read_drawing, "p 0 0.0 1.0\np -1 0.8 -0.5\n",
             "line 2: 'p' record for vertex -1 out of range"),
        ],
    )
    def test_first_line_and_missing_vertex_messages(self, read, text, message):
        with pytest.raises(StructureError) as exc:
            read(text)
        assert str(exc.value) == message

    @pytest.mark.parametrize("read", READERS["emb"])
    def test_only_entries_beyond_int64_read_as_minus_one(self, read):
        emb = read(f"rot 0 {2**70} 1 4\nrot 1 -5 {-(2**70)}\nouter 0 1 2\n")
        assert emb.nbr.tolist() == [-1, 1, 4, -5, -1]

    def test_large_family_arrays_match(self):
        fam = build_Htilde(2, 8)
        graph_text, emb_text = write_graph(fam.graph), write_embedding(fam.embedding)
        drawing_text = write_drawing(layout_nested(fam))
        for kind, text in (("graph", graph_text), ("emb", emb_text), ("drawing", drawing_text)):
            new, old = READERS[kind]
            assert outcome(new, text) == outcome(old, text)
        assert write_graph(read_graph(graph_text)) == graph_text
        assert write_embedding(read_embedding(emb_text)) == emb_text


class TestTokenizer:
    def test_tables_match_str_methods(self):
        spaces = {c for c in range(0x110000) if chr(c).isspace()}
        breaks = {c for c in range(0x110000) if len(f"a{chr(c)}b".splitlines()) == 2}
        assert {ord(c) for c in _SPACE} == spaces
        assert {ord(c) for c in _BREAK} == breaks

    @given(st.text(alphabet=st.sampled_from(
        list(" \t\r\n\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u2028\u3000#") + list("09az\xe9\u4e00\ud800")
        + ["\U0001d400"]
    ), max_size=60))
    @settings(max_examples=500, deadline=None)
    @example("a\r\nb\r\rc\n\r# d\n  #e f\ng")
    def test_records_match_splitlines(self, text):
        rec = Records(text)
        got = [
            (int(line), rec.tokens[start : start + size + 1].tolist())
            for line, start, size in zip(rec.line, rec.start, rec.size)
        ]
        want = [
            (i + 1, ln.split())
            for i, ln in enumerate(text.splitlines())
            if ln.split() and not ln.split()[0].startswith("#")
        ]
        assert got == want
        assert rec.tag.tolist() == [words[0] for _, words in want]
