"""The array readers of the text formats against the line-by-line readers
of ``tests/reader_oracle.py``, the tokenizer against ``str.split`` and
``str.splitlines``, the block writers against the whole-file expressions
they replaced, and the memory both take on a large family's texts."""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reader_oracle
from angres import graphs
from angres.families import build_frame, build_Htilde
from angres.graphs import (
    _BREAK,
    _SPACE,
    Embedding,
    LabeledGraph,
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


@pytest.fixture(scope="module")
def large_texts():
    """The texts of htilde(2,8) and htilde(3,8) (30,391 vertices) and of
    their nested drawings, by c."""
    texts = {}
    for c in (2, 3):
        fam = build_Htilde(c, 8)
        texts[c] = {
            "graph": write_graph(fam.graph),
            "emb": write_embedding(fam.embedding),
            "drawing": write_drawing(layout_nested(fam)),
        }
    return texts


MUTATED = st.sampled_from(sorted(READERS)).flatmap(lambda k: st.tuples(st.just(k), mutated(k)))
# chunk sizes small enough that records, "\r\n" pairs, comment lines and the
# first fault fall across the edges of the tokenizer's chunks
TINY_CHUNKS = [1, 2, 3, 5, 8]


def assert_parity(kind, text):
    new, old = READERS[kind]
    assert outcome(new, text) == outcome(old, text)


def assert_malformed_parity(case):
    graph_text, drawing_text, emb_text, _ = case
    for kind, text in (("graph", graph_text), ("drawing", drawing_text), ("emb", emb_text)):
        if text is not None:
            assert_parity(kind, text)


def assert_records_match_splitlines(text):
    """Each record's tokens are its line's ``str.split()``, on its line."""
    rec = Records(text)
    got = [
        (int(line), [rec.word(k) for k in range(start, start + size + 1)])
        for line, start, size in zip(rec.line, rec.start, rec.size)
    ]
    want = [
        (i + 1, ln.split())
        for i, ln in enumerate(text.splitlines())
        if ln.split() and not ln.split()[0].startswith("#")
    ]
    assert got == want
    for tag in {words[0] for _, words in want} | {"a", "b"}:
        assert rec.tagged(tag).tolist() == [words[0] == tag for _, words in want]


class TestReaderParity:
    """Every text gives the oracle's arrays, or its exact message."""

    @given(MUTATED)
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
        assert_parity(*case)

    @pytest.mark.parametrize("case", MALFORMED)
    def test_malformed_cli_texts(self, case):
        assert_malformed_parity(case)

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

    @pytest.mark.parametrize("c", [2, 3])
    def test_large_family_arrays_match(self, c, large_texts):
        texts = large_texts[c]
        for kind, text in texts.items():
            assert_parity(kind, text)
        assert write_graph(read_graph(texts["graph"])) == texts["graph"]
        assert write_embedding(read_embedding(texts["emb"])) == texts["emb"]
        assert write_drawing(read_drawing(texts["drawing"])) == texts["drawing"]


TOKENIZER_TEXTS = st.text(alphabet=st.sampled_from(
    list(" \t\r\n\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u2028\u3000#") + list("09az\xe9\u4e00\ud800")
    + ["\U0001d400"]
), max_size=60)


class TestTokenizer:
    def test_tables_match_str_methods(self):
        spaces = {c for c in range(0x110000) if chr(c).isspace()}
        breaks = {c for c in range(0x110000) if len(f"a{chr(c)}b".splitlines()) == 2}
        assert {ord(c) for c in _SPACE} == spaces
        assert {ord(c) for c in _BREAK} == breaks

    @given(TOKENIZER_TEXTS)
    @settings(max_examples=500, deadline=None)
    @example("a\r\nb\r\rc\n\r# d\n  #e f\ng")
    def test_records_match_splitlines(self, text):
        assert_records_match_splitlines(text)


class TestChunkEdges:
    """The readers and the tokenizer give the same outcomes with
    ``graphs._CHUNK`` forced tiny (``TINY_CHUNKS``)."""

    @given(MUTATED, st.sampled_from(TINY_CHUNKS))
    @settings(max_examples=400, deadline=None)
    @example(("graph", "graph 3\r\ne 0 1\r\n# c\r\n\r\ne 1 2\r\ne 0 x\r\n"), 1)
    @example(("emb", "rot 0 1 2\r\n  # x y\r\nrot 1 2 0\rrot 2 0 1\r\nouter 0 1 2"), 2)
    @example(("drawing", "p 0 0.0 1.0\r\np 1 0.8 -0.5\r\np 1 0 z\r\n"), 3)
    def test_mutated_text(self, case, chunk):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graphs, "_CHUNK", chunk)
            assert_parity(*case)

    @pytest.mark.parametrize("chunk", TINY_CHUNKS)
    @pytest.mark.parametrize("case", MALFORMED)
    def test_malformed_cli_texts(self, case, chunk, monkeypatch):
        monkeypatch.setattr(graphs, "_CHUNK", chunk)
        assert_malformed_parity(case)

    @given(TOKENIZER_TEXTS, st.sampled_from(TINY_CHUNKS))
    @settings(max_examples=500, deadline=None)
    @example("a\r\nb\r\rc\n\r# d\n  #e f\ng", 1)
    def test_records_match_splitlines(self, text, chunk):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graphs, "_CHUNK", chunk)
            assert_records_match_splitlines(text)



NUMERIC_TOKENS = (
    st.text(alphabet="0123456789-+.eE_x", min_size=1, max_size=24)
    | st.floats().map(repr)
    | st.integers(-(2**70), 2**70).map(str)
    | st.sampled_from(JUNK)
)


class TestNumbers:
    """``Records.numbers`` reads every token as ``int()`` or ``float()``
    does, bit for bit: those its grammar takes through ``np.fromstring``,
    the others one by one; an int beyond int64 reads as -1, and the first
    token that does not parse is reported with ``int``'s or ``float``'s
    message."""

    @given(
        st.lists(NUMERIC_TOKENS, min_size=1, max_size=12),
        st.sampled_from([int, float]),
        st.sampled_from([1, 3, graphs._CHUNK]),
    )
    @settings(max_examples=500, deadline=None)
    @example(["-0", "1e400", "1_0", "+3", "nan", "٣", "-", "1.", ".5", "1e5.3", "1.2.3"], float, 3)
    @example(["-0", "999999999999999999", "1000000000000000000", "-" + "9" * 18, "00012"], int, 1)
    @example([str(2**63 - 1), str(2**63), str(-(2**63)), str(-(2**63) - 1), "9" * 19], int, 3)
    def test_tokens_read_as_python_reads_them(self, tokens, kind, chunk):
        want, message = [], None
        for token in tokens:
            try:
                value = kind(token)
            except ValueError as exc:
                value, message = 0, message or str(exc)
            if kind is int and not -(2**63) <= value < 2**63:
                value = -1
            want.append(value)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graphs, "_CHUNK", chunk)
            rec = Records("x " + " ".join(tokens) + "\n")
            got = rec.numbers(rec.fields(np.array([0])), kind)
        dtype = np.int64 if kind is int else np.float64
        assert got.tobytes() == np.array(want, dtype=dtype).tobytes()
        if message is None:
            rec.raise_first()
        else:
            with pytest.raises(StructureError, match="^line 1: " + re.escape(message) + "$"):
                rec.raise_first()

def old_write_graph(graph):
    """``write_graph`` as it formatted the whole file at once."""
    graph.validate()
    edges = "e %d %d\n" * len(graph.edges) % tuple(graph.edges.ravel().tolist())
    labels = "".join(f"l {v} {graph.labels[v]}\n" for v in sorted(graph.labels))
    return f"graph {graph.n}\n" + edges + labels


def old_write_embedding(emb):
    """``write_embedding`` as it formatted the whole file at once."""
    deg = np.diff(emb.offset).tolist()
    rows = {k: "rot %d " + " ".join(["%d"] * k) + "\n" for k in set(deg)}
    words = np.insert(emb.nbr, emb.offset[:-1], np.arange(len(deg)))
    text = "".join(map(rows.__getitem__, deg)) % tuple(words.tolist())
    return text + "outer " + " ".join(str(v) for v in emb.outer_face) + "\n"


def old_write_drawing(coords):
    """``write_drawing`` as it formatted the whole file at once."""
    rows = np.asarray(coords, dtype=float).tolist()
    return "\n".join([f"p {i} {x!r} {y!r}" for i, (x, y) in enumerate(rows)]) + "\n"


def traced_peak(f, *args):
    """The most memory ``f(*args)`` holds at once, as tracemalloc sees it."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        f(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestWriters:
    """The block writers give the bytes of the whole-file expressions they
    replaced, with blocks of the default size and forced small."""

    @pytest.mark.parametrize("rows", [1, 3, graphs._ROWS])
    @pytest.mark.parametrize("c", [2, 3])
    def test_families(self, c, rows, monkeypatch):
        fam = build_Htilde(c, 8)
        coords = layout_nested(fam)
        monkeypatch.setattr(graphs, "_ROWS", rows)
        monkeypatch.setattr("angres.metrics._ROWS", rows)
        assert write_graph(fam.graph) == old_write_graph(fam.graph)
        assert write_embedding(fam.embedding) == old_write_embedding(fam.embedding)
        assert write_drawing(coords) == old_write_drawing(coords)

    @pytest.mark.parametrize("rows", [1, 2, graphs._ROWS])
    def test_labels_and_small_rows(self, rows, monkeypatch):
        graph = LabeledGraph(4, [(0, 1), (1, 2), (0, 2)], {0: "café", 2: "u<2>", 3: "x"})
        # vertex 3 has no neighbour: its row is written "rot 3 \n"
        emb = Embedding.from_rows([[1, 2], [2, 0], [0, 1], []], (0, 2, 1))
        monkeypatch.setattr(graphs, "_ROWS", rows)
        assert write_graph(graph) == old_write_graph(graph)
        assert write_embedding(emb) == old_write_embedding(emb)
        assert "rot 3 \n" in write_embedding(emb)

    @pytest.mark.parametrize("coords", [np.zeros((0, 2)), np.zeros(0)], ids=["0x2", "0"])
    def test_zero_row_drawing(self, coords):
        assert write_drawing(coords) == old_write_drawing(coords) == "\n"


class TestMemory:
    """tracemalloc peaks on htilde(3,8)'s texts, 1.2 to 1.5 MB each.  A
    reader holds int32 columns of token and record positions and the
    int64/float64 columns it parses, never a Python object per token; a
    writer holds one block of rows as Python objects.  Each bound is the
    peak measured when it was set plus a margin of 20%.  The readers that
    held every token as a ``str`` peaked at 25.5 (graph), 23.0 (emb) and
    13.5 MB (drawing), and the writers that formatted every value at once
    at 6 to 10 times their text."""

    MARGIN = 1.2
    # the peak measured when each bound was set, in MB
    READ_PEAK = {"graph": 9.97, "emb": 8.13, "drawing": 5.30}
    WRITE_PEAK = {"graph": 2.42, "emb": 3.00, "drawing": 2.95}

    @pytest.mark.parametrize("kind", sorted(READERS))
    def test_readers(self, kind, large_texts):
        text = large_texts[3][kind]
        peak = traced_peak(READERS[kind][0], text)
        assert peak <= self.MARGIN * self.READ_PEAK[kind] * 1e6, (kind, peak)

    def test_writers(self, large_texts):
        fam = build_Htilde(3, 8)
        coords = read_drawing(large_texts[3]["drawing"])
        for kind, write, value in (
            ("graph", write_graph, fam.graph),
            ("emb", write_embedding, fam.embedding),
            ("drawing", write_drawing, coords),
        ):
            peak = traced_peak(write, value)
            assert peak <= self.MARGIN * self.WRITE_PEAK[kind] * 1e6, (kind, peak)
