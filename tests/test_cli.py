import contextlib
import io
import math
import os
import re
import subprocess
import sys
import tempfile
from dataclasses import fields
from xml.etree import ElementTree

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from angres import cli, optimize
from angres.cli import _atomic_write, _parse_spec_file, main
from angres.families import FamilySpec, ParameterError, build_family, build_Htilde
from angres.geometry import lemma_fuzz
from angres.graphs import (
    Embedding,
    LabeledGraph,
    StructureError,
    read_embedding,
    read_graph,
    write_embedding,
    write_graph,
)
from angres.layout import layout_frame_fan, layout_nested
from angres.metrics import Triangulation, angular_resolution, read_drawing, write_drawing
from angres.optimize import (
    CSV_COLUMNS,
    OptimizeConfig,
    SweepRecord,
    maximize_resolution,
    read_sweep_csv,
    sweep_csv_text,
)
from angres.svg import export_svg


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_failed_atomic_write_leaves_no_temp_file(tmp_path):
    # a lone surrogate cannot be encoded, so the write fails midway; the
    # target keeps its old text and the temp file is gone
    out = tmp_path / "out.txt"
    out.write_text("old\n")
    with pytest.raises(UnicodeEncodeError, match=r"can't encode character '\\ud800'"):
        _atomic_write(str(out), "new\ud800\n")
    assert os.listdir(tmp_path) == ["out.txt"]
    assert out.read_text() == "old\n"


@pytest.mark.parametrize("target", ["missing_dir/x.drawing", "a_dir"])
def test_failed_output_names_the_given_path(tmp_path, capsys, target):
    # the output's folder is missing, or the output is a folder: the one
    # error line names the path given, not the temp file, and leaves no file
    (tmp_path / "a_dir").mkdir()
    out = str(tmp_path / target)
    code, _, err = run(capsys, "layout", "--family", "frame", "--d", "3", "-o", out)
    assert code == 1
    assert err.startswith("error: [Errno ") and err.endswith(f": {out!r}\n") and err.count("\n") == 1
    assert ".tmp-" not in err
    assert sorted(os.listdir(tmp_path)) == ["a_dir"] and os.listdir(tmp_path / "a_dir") == []


class TestGen:
    def test_frame_counts_and_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "f3.graph"
        code, stdout, _ = run(capsys, "gen", "--family", "frame", "--d", "3", "-o", str(out))
        assert code == 0
        assert "7 vertices, 15 edges" in stdout
        g = read_graph(out.read_text())
        emb = read_embedding((tmp_path / "f3.emb").read_text())
        from angres.families import build_frame

        fam = build_frame(3)
        assert np.array_equal(g.edges, fam.graph.edges)
        assert np.array_equal(emb.offset, fam.embedding.offset)
        assert np.array_equal(emb.nbr, fam.embedding.nbr)

    def test_usage_error_exit_2(self, capsys):
        code, _, _ = run(capsys, "gen", "--family", "frame", "--d", "3")
        assert code == 2

    def test_unknown_flag_rejected(self, capsys):
        code, _, _ = run(capsys, "gen", "--family", "frame", "--d", "3", "--zap", "-o", "x")
        assert code == 2

    def test_deep_c_with_d1(self, tmp_path, capsys):
        # G^(c)_1 glues no copy, so a large c must not recurse c levels
        out = tmp_path / "h.graph"
        code, stdout, _ = run(
            capsys, "gen", "--family", "htilde", "--c", "5000", "--d", "1", "-o", str(out)
        )
        assert code == 0
        want = build_Htilde(1, 1)
        assert f"wrote {want.graph.n} vertices, {len(want.graph.edges)} edges" in stdout

    def test_output_named_like_its_embedding_is_refused(self, tmp_path, capsys):
        # gen writes NAME.graph's embedding to NAME.emb, over a NAME.emb graph
        out = tmp_path / "x.emb"
        code, stdout, err = run(capsys, "gen", "--family", "frame", "--d", "2", "-o", str(out))
        assert (code, stdout) == (2, "")
        assert err == f"error: -o {out} is where gen writes the embedding\n"
        assert os.listdir(tmp_path) == []

    def test_missing_c_is_error(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "gen", "--family", "htilde", "--d", "2", "-o", str(tmp_path / "x.graph")
        )
        assert code == 1

    @pytest.mark.parametrize("command", ["gen", "layout"])
    def test_frame_with_c_is_error(self, tmp_path, capsys, command):
        # rejected as the spec line "frame 3 2" is, not run with c dropped
        out = tmp_path / "x.out"
        code, _, err = run(
            capsys, command, "--family", "frame", "--c", "3", "--d", "2", "-o", str(out)
        )
        assert (code, err) == (1, "error: frame takes no c parameter\n")
        assert not out.exists()



def test_text_files_are_utf8_in_any_locale(tmp_path):
    """Under the C locale with Python's UTF-8 mode off, ``measure`` reads a
    graph whose label is not ASCII, and ``export-svg`` writes it, as they
    do in UTF-8 mode: the same output and the same SVG bytes."""
    fam = build_family(FamilySpec("frame", None, 2))
    graph = LabeledGraph(fam.graph.n, fam.graph.edges, {0: "café", 1: "u<1>"})
    (tmp_path / "f.graph").write_text(write_graph(graph), encoding="utf-8")
    (tmp_path / "f.emb").write_text(write_embedding(fam.embedding), encoding="utf-8")
    (tmp_path / "f.drawing").write_text(write_drawing(layout_nested(fam)), encoding="utf-8")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONIOENCODING"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    seen = []
    for mode in ({"PYTHONUTF8": "1"}, {"PYTHONUTF8": "0", "LC_ALL": "C"}):
        outputs = []
        for args in (
            ["measure", "f.graph", "f.drawing"],
            ["export-svg", "f.graph", "f.emb", "f.drawing", "-o", "f.svg"],
        ):
            done = subprocess.run(
                [sys.executable, "-m", "angres.cli", *args], cwd=tmp_path, env={**env, **mode},
                capture_output=True,
            )
            outputs.append((done.returncode, done.stdout, done.stderr))
        seen.append((outputs, (tmp_path / "f.svg").read_bytes()))
    assert seen[0] == seen[1]
    outputs, svg = seen[0]
    assert [code for code, _, _ in outputs] == [0, 0]
    assert "café".encode() in svg and b"u&lt;1&gt;" in svg

# (graph, drawing, embedding, spec file) texts; None keeps a valid default,
# and a spec text runs ``sweep`` instead of ``measure``
MALFORMED = [
    ("graph 3\ne 0\n", None, None, None),
    ("graph\n", None, None, None),
    ("graph 3\nl 0\n", None, None, None),
    (None, "p 1\n", None, None),
    (None, None, "rot\n", None),
    ("graph 3\ne 0 x\n", None, None, None),
    (None, "p 1 1 z\n", None, None),
    (None, None, "rot 0 1 q\n", None),
    ("graph -3\n", None, None, None),
    (None, None, None, "htilde x 4\n"),
    (None, None, None, "htilde 1\n"),
    (None, None, None, "frame - 2\nnope 1 4\n"),
    ("graph 3\ne 0 1\ngraph 5\n", None, None, None),
    ("graph 3\ne 0 1\ne 1 2\ne 0 2\nl 7 x\n", None, None, None),
    ("graph 3\ne 0 5\n", None, None, None),
    ("graph 3\ne 0 1\ne 1 2\ne 0 2\ne 1 0\n", None, None, None),
    (None, "p 0 0.0 1.0\np 1 0.8 -0.5\np 1 0.0 0.0\np 2 -0.8 -0.5\n", None, None),
    (None, None, "rot 0 1 2\nrot 1 2 0\nrot 1 0 2\nrot 2 0 1\nouter 0 1 2\n", None),
    (None, None, "rot 0 1 2\nrot 1 2 0\nrot 2 0 1\nouter 0 1 2\nouter 0 1 2\n", None),
    ("graph 3 9\ne 0 1\ne 1 2\ne 0 2\n", None, None, None),
    ("graph 3\ne 0 1 2\ne 1 2\ne 0 2\n", None, None, None),
    ("graph 3\ne 0 1\ne 1 2\ne 0 2\nl 0 a b\n", None, None, None),
    (None, "p 0 1.0 2.0 7.5\np 1 0.8 -0.5\np 2 -0.8 -0.5\n", None, None),
    (None, "p 0 0.0 1.0\np -1 0.8 -0.5\np 2 -0.8 -0.5\n", None, None),
    (None, None, f"rot 0 1 2\nrot {2**70} 2 0\nrot 2 0 1\nouter 0 1 2\n", None),
    ("graph 4000000000\ne 3999999998 3999999999\ne 0 1\n", None, None, None),
]


# drawings of the default triangle with too few or too many points, each
# measured with and without its embedding
WRONG_SIZE = [
    ("p 0 0.0 1.0\np 1 0.8 -0.5\n", (2, 2)),
    ("p 0 0.0 1.0\np 1 0.8 -0.5\np 2 -0.8 -0.5\np 3 0.0 0.0\n", (4, 2)),
]

# layout/measure cases (family, c, d): a bare triangle (one internal face),
# a frame, two glued families and the two large rows
SWITCHED = [
    ("frame", None, 1), ("frame", None, 6), ("g", 2, 3), ("htilde", 2, 4), ("htilde", 2, 32),
    ("htilde", 3, 8),
]


class TestLayoutMeasure:
    def test_layout_then_measure(self, tmp_path, capsys):
        gp = tmp_path / "f4.graph"
        dp = tmp_path / "f4.drawing"
        assert run(capsys, "gen", "--family", "frame", "--d", "4", "-o", str(gp))[0] == 0
        code, stdout, _ = run(
            capsys, "layout", "--family", "frame", "--d", "4", "-o", str(dp)
        )
        assert code == 0
        code, stdout, _ = run(capsys, "measure", str(gp), str(dp))
        assert code == 0
        printed = float(stdout.strip().splitlines()[-1].split()[-1])
        fam, coords = layout_frame_fan(4)
        from angres.metrics import angular_resolution

        assert printed == pytest.approx(angular_resolution(fam.graph, coords).resolution)

    def test_measure_triangle_prints_pi_over_3(self, tmp_path, capsys):
        gp = tmp_path / "t.graph"
        gp.write_text("graph 3\ne 0 1\ne 1 2\ne 0 2\n")
        dp = tmp_path / "t.drawing"
        pts = np.array([[0.0, 1.0], [math.sqrt(3) / 2, -0.5], [-math.sqrt(3) / 2, -0.5]])
        dp.write_text(write_drawing(pts))
        code, stdout, _ = run(capsys, "measure", str(gp), str(dp))
        assert code == 0
        assert float(stdout.strip().splitlines()[-1].split()[-1]) == pytest.approx(math.pi / 3)

    def test_measure_says_validated_yes_with_an_embedding(self, tmp_path, capsys):
        gp, dp = tmp_path / "f3.graph", tmp_path / "f3.drawing"
        assert run(capsys, "gen", "--family", "frame", "--d", "3", "-o", str(gp))[0] == 0
        assert run(capsys, "layout", "--family", "frame", "--d", "3", "-o", str(dp))[0] == 0
        code, stdout, _ = run(capsys, "measure", str(gp), str(dp))
        assert code == 0
        assert stdout.splitlines()[-2:-1] == ["validated: yes"]

    def test_measure_says_validated_yes_without_an_embedding(self, tmp_path, capsys):
        # the drawing's own embedding is derived and proven
        gp, dp = tmp_path / "t.graph", tmp_path / "t.drawing"
        gp.write_text("graph 3\ne 0 1\ne 1 2\ne 0 2\n")
        dp.write_text("p 0 0.0 1.0\np 1 0.8 -0.5\np 2 -0.8 -0.5\n")
        code, stdout, _ = run(capsys, "measure", str(gp), str(dp))
        assert code == 0
        assert stdout.splitlines()[-2:-1] == ["validated: yes"]

    def test_measure_invalid_drawing_exit_1(self, tmp_path, capsys):
        gp = tmp_path / "f2.graph"
        dp = tmp_path / "bad.drawing"
        assert run(capsys, "gen", "--family", "frame", "--d", "2", "-o", str(gp))[0] == 0
        fam, coords = layout_frame_fan(2)
        bad = coords.copy()
        bad[0] = [50.0, 50.0]  # root dragged out of the fan
        dp.write_text(write_drawing(bad))
        code, _, err = run(capsys, "measure", str(gp), str(dp))
        assert code == 1

    @pytest.mark.parametrize("flag", [["--apex", "0.1"], ["--ratio", "3"], ["--graph-out", "x"]])
    def test_no_geometry_or_graph_flags(self, tmp_path, capsys, flag):
        # the fan geometry is fixed, and ``gen`` writes the graph files
        dp = tmp_path / "f.drawing"
        code, _, _ = run(capsys, "layout", "--family", "frame", "--d", "8", *flag, "-o", str(dp))
        assert code == 2 and not dp.exists()

    def test_layout_past_double_range_one_line_error(self, tmp_path, capsys):
        dp = tmp_path / "f.drawing"
        code, _, err = run(capsys, "layout", "--family", "frame", "--d", "1100", "-o", str(dp))
        assert code == 1
        assert err.splitlines() == ["error: fan layout needs a top frame of d <= 1023 rings, "
                                    "got d=1100: its radius RING_RATIO**d overflows"]
        assert not dp.exists()

    @pytest.mark.parametrize("family,c,d,rings", [("frame", None, 1024, 1024), ("g", 2, 1023, 1024),
                                                  ("frame", None, 1023, None), ("g", 2, 1022, None)])
    def test_layout_refused_before_build(self, tmp_path, capsys, monkeypatch, family, c, d, rings):
        # the top fan's ring count comes from the spec: d for frame, d + 1 for g;
        # a spec that passes goes on to build_family
        class Built(Exception):
            pass

        def build(spec):
            raise Built

        monkeypatch.setattr(cli, "build_family", build)
        dp = tmp_path / "f.drawing"
        argv = ["layout", "--family", family, "--d", str(d), "-o", str(dp)]
        argv += [] if c is None else ["--c", str(c)]
        if rings is None:
            with pytest.raises(Built):
                main(argv)
            return
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert err.splitlines() == ["error: fan layout needs a top frame of d <= 1023 rings, "
                                    f"got d={rings}: its radius RING_RATIO**d overflows"]
        assert not dp.exists()

    @pytest.mark.parametrize("command,family,c,d", [("gen", "g", 40, 3), ("layout", "htilde", 30, 2)])
    def test_family_past_max_vertices_refused_before_build(
        self, tmp_path, capsys, monkeypatch, command, family, c, d
    ):
        # g(40,3) has about 2.4e24 vertices: refused from its spec, so
        # nothing is built and no file written
        def build(spec):
            raise AssertionError("built")

        monkeypatch.setattr(cli, "build_family", build)
        out = tmp_path / "x.out"
        code, _, err = run(capsys, command, "--family", family, "--c", str(c), "--d", str(d),
                           "-o", str(out))
        assert code == 1
        assert err.splitlines() == [f"error: {family}({c},{d}) has more than 3037000499 vertices"]
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("args,line", [
        ((), "error: MemoryError"),
        (("Unable to allocate 8.00 EiB for an array",),
         "error: Unable to allocate 8.00 EiB for an array"),
    ])
    def test_out_of_memory_one_line_error(self, tmp_path, capsys, monkeypatch, args, line):
        def build(spec):
            raise MemoryError(*args)

        monkeypatch.setattr(cli, "build_family", build)
        out = tmp_path / "g.graph"
        code, _, err = run(capsys, "gen", "--family", "g", "--c", "2", "--d", "3", "-o", str(out))
        assert code == 1
        assert err.splitlines() == [line]
        assert os.listdir(tmp_path) == []

    def test_layout_deep_family_is_nested(self, tmp_path, capsys):
        dp = tmp_path / "ht.drawing"
        code, _, _ = run(
            capsys, "layout", "--family", "htilde", "--c", "2", "--d", "16", "-o", str(dp)
        )
        assert code == 0
        assert np.array_equal(read_drawing(dp.read_text()), layout_nested(build_Htilde(2, 16)))

    @pytest.mark.parametrize(
        "graph_text, drawing_text, emb_text, spec_text",
        MALFORMED,
        ids=["-".join(map(str, case[:3])) if case[3] is None else f"spec {case[3]}"
             for case in MALFORMED],
    )
    def test_malformed_record_one_line_error(self, tmp_path, capsys, graph_text, drawing_text,
                                             emb_text, spec_text):
        gp, dp, ep = tmp_path / "t.graph", tmp_path / "t.drawing", tmp_path / "t.emb"
        gp.write_text(graph_text or "graph 3\ne 0 1\ne 1 2\ne 0 2\n")
        dp.write_text(drawing_text or "p 0 0.0 1.0\np 1 0.8 -0.5\np 2 -0.8 -0.5\n")
        ep.write_text(emb_text or "rot 0 1 2\nrot 1 2 0\nrot 2 0 1\nouter 0 1 2\n")
        if spec_text is None:
            code, _, err = run(capsys, "measure", str(gp), str(dp))
        else:
            sp = tmp_path / "t.spec"
            sp.write_text(spec_text)
            code, _, err = run(capsys, "sweep", "--spec", str(sp), "-o", str(tmp_path / "x.csv"))
        assert code == 1
        assert len(err.strip().splitlines()) == 1
        assert re.search(r"line \d+: ", err) and "Traceback" not in err

    @pytest.mark.parametrize("drawing_text, shape", WRONG_SIZE, ids=["short", "long"])
    @pytest.mark.parametrize("with_emb", [True, False], ids=["emb", "no-emb"])
    def test_wrong_size_drawing_one_line_error(self, tmp_path, capsys, drawing_text, shape,
                                               with_emb):
        gp, dp = tmp_path / "t.graph", tmp_path / "t.drawing"
        gp.write_text("graph 3\ne 0 1\ne 1 2\ne 0 2\n")
        dp.write_text(drawing_text)
        if with_emb:
            (tmp_path / "t.emb").write_text("rot 0 1 2\nrot 1 2 0\nrot 2 0 1\nouter 0 1 2\n")
        code, _, err = run(capsys, "measure", str(gp), str(dp))
        assert code == 1
        assert err.splitlines() == [f"error: drawing covers {shape}, expected (3, 2)"]

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_drawing_without_embedding_one_line_error(self, tmp_path, capsys, value):
        gp, dp = tmp_path / "f3.graph", tmp_path / "f3.drawing"
        assert run(capsys, "gen", "--family", "frame", "--d", "3", "-o", str(gp))[0] == 0
        (tmp_path / "f3.emb").unlink()
        _, coords = layout_frame_fan(3)
        coords[3, 0] = float(value)
        dp.write_text(write_drawing(coords))
        assert f"p 3 {value} " in dp.read_text()
        code, _, err = run(capsys, "measure", str(gp), str(dp))
        assert code == 1
        assert err.splitlines() == ["error: non-finite coordinates at vertex 3"]

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_drawing_with_embedding_one_line_error(self, tmp_path, capsys, value):
        gp, dp = tmp_path / "f3.graph", tmp_path / "f3.drawing"
        assert run(capsys, "gen", "--family", "frame", "--d", "3", "-o", str(gp))[0] == 0
        _, coords = layout_frame_fan(3)
        coords[3, 0] = float(value)
        coords[5, 1] = float(value)
        dp.write_text(write_drawing(coords))
        code, _, err = run(capsys, "measure", str(gp), str(dp))
        assert code == 1
        assert err.splitlines() == [
            "invalid drawing: non-finite: non-finite coordinates at vertex 3"
        ]
        sp = tmp_path / "f3.svg"
        code, _, err = run(capsys, "export-svg", str(gp), str(tmp_path / "f3.emb"), str(dp),
                           "-o", str(sp))
        assert code == 1 and not sp.exists()
        assert err.splitlines() == [
            "refusing to render: drawing has 1 violations: "
            "non-finite: non-finite coordinates at vertex 3"
        ]

    @pytest.mark.parametrize("family, c, d", SWITCHED)
    def test_layout_and_measure_print_the_edge_walk_value(self, tmp_path, capsys, family, c, d):
        # both validate and measure through the compiled pair, measure with
        # the .emb and with the embedding it derives from the drawing; the
        # value is angular_resolution's to the last bit
        fam = build_family(FamilySpec(family, c, d))
        flags = ["--family", family, "--d", str(d)] + ([] if c is None else ["--c", str(c)])
        gp, dp = tmp_path / "f.graph", tmp_path / "f.drawing"
        assert run(capsys, "gen", *flags, "-o", str(gp))[0] == 0
        code, stdout, _ = run(capsys, "layout", *flags, "-o", str(dp))
        assert code == 0
        want = f"resolution {float(angular_resolution(fam.graph, layout_nested(fam)).resolution)!r}"
        assert stdout.splitlines()[-1] == want
        code, stdout, _ = run(capsys, "measure", str(gp), str(dp))
        assert code == 0
        assert stdout.splitlines()[-2:] == ["validated: yes", want]
        (tmp_path / "f.emb").unlink()
        code, stdout, _ = run(capsys, "measure", str(gp), str(dp))
        assert code == 0
        assert stdout.splitlines()[-2:] == ["validated: yes", want]

    def test_measure_without_embedding_proves_the_mirrored_drawing(self, tmp_path, capsys):
        # the mirror image of a valid drawing is a plane drawing of the
        # mirrored rotation: proven without the .emb, flipped against it
        fam, coords = layout_frame_fan(2)
        mirrored = coords * [-1.0, 1.0]
        walk = float(angular_resolution(fam.graph, mirrored).resolution)
        gp, dp = tmp_path / "f2.graph", tmp_path / "f2.drawing"
        assert run(capsys, "gen", "--family", "frame", "--d", "2", "-o", str(gp))[0] == 0
        dp.write_text(write_drawing(mirrored))
        code, _, err = run(capsys, "measure", str(gp), str(dp))
        assert code == 1
        assert err.splitlines() == ["invalid drawing: flipped-face: outer face (0, 3, 4) not clockwise"]
        (tmp_path / "f2.emb").unlink()
        code, stdout, _ = run(capsys, "measure", str(gp), str(dp))
        assert code == 0
        assert stdout.splitlines()[-2:] == ["validated: yes", f"resolution {walk!r}"]

    @pytest.mark.parametrize("case", ["crossing", "collinear", "4-cycle", "no vertices"])
    def test_measure_without_embedding_refuses_what_it_cannot_prove(self, tmp_path, capsys, case):
        # a drawing whose edges cross, one whose rotation is a plane
        # embedding but has a collinear face, and graphs that are no
        # triangulation end in one stderr line
        gp, dp = tmp_path / "x.graph", tmp_path / "x.drawing"
        if case == "collinear":
            fam, _ = layout_frame_fan(2)
            gp.write_text(write_graph(fam.graph))
            dp.write_text(write_drawing(np.array([[-3, -4], [-1, -4], [0, -4], [0, 0], [4, -5]])))
            want = "invalid drawing: flipped-face: internal face (0, 2, 1) not counterclockwise"
        elif case == "crossing":
            fam, coords = layout_frame_fan(2)
            coords[0] = [50.0, 50.0]  # the root dragged out of the fan
            gp.write_text(write_graph(fam.graph))
            dp.write_text(write_drawing(coords))
            want = "error: face of length 4 starting (0, 2, 1) is not a triangle"
        elif case == "4-cycle":
            gp.write_text("graph 4\ne 0 1\ne 1 2\ne 2 3\ne 0 3\n")
            dp.write_text("p 0 0 0\np 1 1 0\np 2 1 1\np 3 0 1\n")
            want = "error: face of length 4 starting (0, 3, 2) is not a triangle"
        else:
            gp.write_text("graph 0\n")
            dp.write_text("\n")
            want = "error: a drawn embedding needs 3 or more vertices, got 0"
        code, _, err = run(capsys, "measure", str(gp), str(dp))
        assert code == 1
        assert err.splitlines() == [want]

    def test_crlf_round_trip(self, tmp_path, python_dev, pins):
        """The text readers take CRLF line ends as LF ones: a large family's
        three files, converted to CRLF, measure to the LF resolution, which
        ``angres layout`` must print too, as both go through
        ``Triangulation.resolution``.  The graph measured with no embedding
        beside it is compiled with the embedding its drawing realizes
        (``drawn_embedding``, from the rank-key sort), must be proven and
        must print the same value."""
        want = f"resolution {pins['nested_resolution']['htilde 3 8']}"
        spec = ["--family", "htilde", "--c", "3", "--d", "8"]
        python_dev("-m", "angres.cli", "gen", *spec, "-o", tmp_path / "h.graph")
        out = python_dev("-m", "angres.cli", "layout", *spec, "-o", tmp_path / "h.drawing")
        assert want in out.splitlines()
        for name in ("h.graph", "h.emb", "h.drawing"):
            path = tmp_path / name
            path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        (tmp_path / "bare").mkdir()
        (tmp_path / "bare" / "h.graph").write_bytes((tmp_path / "h.graph").read_bytes())
        for graph in ("h.graph", "bare/h.graph"):
            out = python_dev("-m", "angres.cli", "measure", graph, "h.drawing", cwd=tmp_path)
            assert "validated: yes" in out.splitlines() and want in out.splitlines()


class TestOptimizeCli:
    def test_optimize_frame(self, tmp_path, capsys):
        gp = tmp_path / "f2.graph"
        dp = tmp_path / "f2.opt"
        assert run(capsys, "gen", "--family", "frame", "--d", "2", "-o", str(gp))[0] == 0
        code, stdout, _ = run(
            capsys,
            "optimize", str(gp), str(tmp_path / "f2.emb"),
            "--restarts", "2", "--max-iter", "200", "--seed", "5",
            "-o", str(dp),
        )
        assert code == 0
        assert "seed=5" in stdout  # resolved config echoed
        coords = read_drawing(dp.read_text())
        assert coords.shape == (5, 2)

    def test_no_free_vertex(self, tmp_path, capsys, pins):
        # K3 is its own outer face, and every restart reports its start
        g = LabeledGraph(3, [(0, 1), (1, 2), (0, 2)])
        emb = Embedding.from_rows([[1, 2], [2, 0], [0, 1]], (0, 2, 1))
        gp, ep, dp = tmp_path / "k3.graph", tmp_path / "k3.emb", tmp_path / "k3.opt"
        gp.write_text(write_graph(g))
        ep.write_text(write_embedding(emb))
        code, stdout, _ = run(capsys, "optimize", str(gp), str(ep), "--restarts", "3", "-o", str(dp))
        assert code == 0
        assert stdout.splitlines()[-1] == f"resolution {pins['k3_resolution']}"
        assert read_drawing(dp.read_text()).shape == (3, 2)

    def test_outer_record_not_a_triangle(self, tmp_path, capsys):
        gp, ep = tmp_path / "f3.graph", tmp_path / "f3.emb"
        assert run(capsys, "gen", "--family", "frame", "--d", "3", "-o", str(gp))[0] == 0
        ep.write_text(ep.read_text().replace("outer 0 5 6", "outer 0 5 6 1"))
        code, _, err = run(capsys, "optimize", str(gp), str(ep), "-o", str(tmp_path / "x"))
        assert code == 1
        assert err.splitlines() == [
            "optimize failed: outer face (0, 5, 6, 1) not found among traced faces"
        ]


    def test_a_file_graph_optimizes_like_the_built_family(self, tmp_path, capsys):
        """gen's files carry no certificate, so the graph read back is
        eliminated; its restarts, jittered restarts 1-3 among them, must run
        as on the built family, which lists its certificate."""
        gp, ep, dp = tmp_path / "h.graph", tmp_path / "h.emb", tmp_path / "h.opt"
        assert run(capsys, "gen", "--family", "htilde", "--c", "2", "--d", "4", "-o", str(gp))[0] == 0
        code, _, _ = run(
            capsys,
            "optimize", str(gp), str(ep),
            "--restarts", "4", "--max-iter", "200", "--seed", "42",
            "-o", str(dp),
        )
        assert code == 0
        fam = build_family(FamilySpec("htilde", 2, 4))
        cfg = OptimizeConfig(restarts=4, max_iters=200, seed=42)
        built = maximize_resolution(fam.graph, fam.embedding, cfg)
        assert dp.read_text() == write_drawing(built.coords)
        back = read_graph(gp.read_text())
        assert back.certificate is None
        traces = maximize_resolution(back, read_embedding(ep.read_text()), cfg).traces
        assert repr(traces) == repr(built.traces)


class TestDeadWorker:
    """A forked worker that exits without sending its result ends a command
    in one stderr line and exit code 1, and writes no output file."""

    WANT = ["error: the worker of restarts [1] exited with code 3"]

    @pytest.fixture(autouse=True)
    def dying_worker(self, monkeypatch):
        restart, parent = optimize._restart, os.getpid()

        def dies_in_a_worker(r, *args):
            if os.getpid() != parent:
                os._exit(3)
            return restart(r, *args)

        monkeypatch.setattr(optimize, "_restart", dies_in_a_worker)
        monkeypatch.setattr(optimize, "_worker_count", lambda: 2)

    def test_optimize(self, tmp_path, capsys):
        gp, out = tmp_path / "f2.graph", tmp_path / "f2.opt"
        assert run(capsys, "gen", "--family", "frame", "--d", "2", "-o", str(gp))[0] == 0
        code, _, err = run(
            capsys, "optimize", str(gp), str(tmp_path / "f2.emb"), "--restarts", "2", "-o", str(out)
        )
        assert (code, err.splitlines()) == (1, self.WANT)
        assert not out.exists()

    def test_sweep(self, tmp_path, capsys):
        spec, out = tmp_path / "spec.txt", tmp_path / "out.csv"
        spec.write_text("frame - 2\n")
        code, _, err = run(capsys, "sweep", "--spec", str(spec), "--restarts", "2", "-o", str(out))
        assert (code, err.splitlines()) == (1, self.WANT)
        assert not out.exists()


class TestSweepFit:
    def test_sweep_and_fit(self, tmp_path, capsys):
        spec = tmp_path / "specs.txt"
        spec.write_text("frame - 2\nframe - 3\nframe - 4\n")
        csv_path = tmp_path / "out.csv"
        code, stdout, _ = run(
            capsys,
            "sweep", "--spec", str(spec), "--seed", "1",
            "--restarts", "2", "--max-iter", "150",
            "-o", str(csv_path),
        )
        assert code == 0
        assert "3 rows (0 failed)" in stdout
        # csv's own line ends, written without newline translation
        assert csv_path.read_bytes().startswith(",".join(CSV_COLUMNS).encode() + b"\r\n")
        code, stdout, _ = run(
            capsys, "fit", "--csv", str(csv_path), "--family", "frame"
        )
        assert code == 0
        slope, intercept, r2 = map(float, stdout.strip().splitlines()[-1].split())
        assert slope < 0  # resolution decays with d

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda t: t.replace(",d,", ",depth,", 1), "sweep CSV has no 'd' column"),
            (lambda t: t.replace(",4,", ",", 1), "line 2: 10 fields, expected 11"),
            (lambda t: t.replace(",4,", ",four,", 1),
             "line 2: invalid literal for int() with base 10: 'four'"),
            (lambda t: t + "x" * 200_000 + "\r\n",
             "line 5: field larger than field limit (131072)"),
        ],
        ids=["missing-column", "short-row", "not-a-number", "huge-field"],
    )
    def test_fit_malformed_csv_one_line_error(self, tmp_path, capsys, edit, message):
        rows = [SweepRecord("frame", None, d, 2 * d + 1, 6 * d - 3, 2 * d, 1.0 / d, 2, 2, 1, 0.5)
                for d in (2, 3, 4)]
        csv_path = tmp_path / "bad.csv"
        csv_path.write_text(edit(sweep_csv_text(rows)), newline="")
        code, _, err = run(capsys, "fit", "--csv", str(csv_path), "--family", "frame")
        assert code == 1
        assert err.splitlines() == [f"error: {message}"]

    @pytest.mark.parametrize("d", [0, -2])
    def test_fit_d_below_1_one_line_error(self, tmp_path, capsys, d):
        # log(d) is -inf or nan there, on which the least-squares SVD fails
        rows = [SweepRecord("frame", None, k, 7, 15, 6, 0.1 * 2.0**-k, 2, 2, 1, 0.5)
                for k in (2, 3, d)]
        csv_path = tmp_path / "d.csv"
        csv_path.write_text(sweep_csv_text(rows), newline="")
        code, _, err = run(capsys, "fit", "--csv", str(csv_path), "--family", "frame")
        assert code == 1
        assert err.splitlines() == [f"error: all d must be >= 1 for a log-log fit, got d={d}"]

    @pytest.mark.parametrize("restarts", ["2", "3"])
    def test_sweep_negative_seed(self, tmp_path, capsys, monkeypatch, restarts):
        # rejected before any row is built, whether or not a jittered
        # restart would use the seed
        monkeypatch.setattr(optimize, "build_family", lambda spec: pytest.fail("row built"))
        spec = tmp_path / "specs.txt"
        spec.write_text("frame - 2\n")
        csv_path = tmp_path / "out.csv"
        code, _, err = run(
            capsys, "sweep", "--spec", str(spec), "--restarts", restarts, "--seed", "-1",
            "-o", str(csv_path),
        )
        assert code == 1
        assert err.splitlines() == ["error: seed must be >= 0, got -1"]
        assert not csv_path.exists()

    def test_sweep_past_double_range_one_line_error(self, tmp_path, capsys):
        # the row's nested seed is laid out before any restart runs
        spec = tmp_path / "specs.txt"
        spec.write_text("frame - 1024\n")
        csv_path = tmp_path / "out.csv"
        code, _, err = run(capsys, "sweep", "--spec", str(spec), "--restarts", "2",
                           "-o", str(csv_path))
        assert code == 1
        assert len(err.splitlines()) == 1
        assert err.startswith("error: fan layout needs a top frame of d <= 1023 rings, got d=1024")
        assert not csv_path.exists()

    @pytest.mark.parametrize("line,restarts,refused", [
        ("frame - 1024", 2, True), ("g 2 1023", 2, True), ("frame - 1023", 2, False),
        ("g 2 1022", 2, False), ("g 2 1023", 1, False),
    ])
    def test_sweep_refused_before_build(self, tmp_path, capsys, monkeypatch, line, restarts,
                                        refused):
        # with 2 restarts restart 1 is the nested drawing, and every row is
        # checked before the first is built; with 1 no nested drawing is made
        class Built(Exception):
            pass

        def build(spec):
            raise Built

        monkeypatch.setattr(optimize, "build_family", build)
        spec = tmp_path / "specs.txt"
        spec.write_text(f"htilde 1 2\n{line}\n")
        csv_path = tmp_path / "out.csv"
        argv = ["sweep", "--spec", str(spec), "--restarts", str(restarts), "-o", str(csv_path)]
        if not refused:
            with pytest.raises(Built):
                main(argv)
            return
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert err.splitlines() == ["error: fan layout needs a top frame of d <= 1023 rings, "
                                    "got d=1024: its radius RING_RATIO**d overflows"]
        assert not csv_path.exists()

    def test_bad_spec_line(self, tmp_path, capsys):
        spec = tmp_path / "specs.txt"
        spec.write_text("frame 2\n")
        code, _, err = run(
            capsys, "sweep", "--spec", str(spec), "-o", str(tmp_path / "x.csv")
        )
        assert code == 1


def _fails(kind):
    """Whether a token does not parse as ``kind`` (int or float)."""

    def check(token: str) -> bool:
        try:
            kind(token)
        except ValueError:
            return True
        return False

    return check


def _spec_fails(family, c, d) -> bool:
    try:
        FamilySpec(family, c, d)
    except ParameterError:
        return True
    return False


# Malformed spec files and sweep CSVs, generated so that parsing always
# fails: well-formed lines, then one bad line, then any text.  A token holds
# no whitespace, no '#' (a spec comment) and no CSV syntax, and may be any
# other printable character: int() reads some non-ASCII digits.
TOKEN = st.text(
    st.characters(blacklist_categories=("Z", "C"), blacklist_characters='#,"'),
    min_size=1,
    max_size=6,
)
ANY_TEXT = st.text(st.characters(blacklist_categories=("Cs",)))
SPEC_GAP = st.sampled_from([" ", "\t", "  ", "\x0c", "\x85", "\u2028", "\u3000"])
GOOD_SPEC_LINE = st.one_of(
    st.just(""),
    st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\r\n")).map(
        lambda t: "#" + t
    ),
    # the specs FamilySpec takes: past c=3 most of these have more than
    # MAX_VERTICES vertices
    st.tuples(st.sampled_from(["g", "h", "htilde"]), st.integers(1, 9), st.integers(1, 64))
    .filter(lambda t: not _spec_fails(*t))
    .map(lambda t: "%s %d %d # ok" % t),
    st.integers(1, 64).map(lambda d: f"frame none {d}"),
)


@st.composite
def bad_spec_line(draw) -> str:
    """A spec line with the wrong field count, a c or d that is no int, or
    a family, c and d that FamilySpec rejects."""
    kind = draw(st.sampled_from(["fields", "c", "d", "spec"]))
    if kind == "fields":
        parts = draw(st.lists(TOKEN, min_size=1, max_size=6).filter(lambda p: len(p) != 3))
    elif kind == "c":
        bad_c = TOKEN.filter(lambda t: t not in ("-", "none") and _fails(int)(t))
        parts = [draw(TOKEN), draw(bad_c), draw(TOKEN)]
    elif kind == "d":
        good_c = st.sampled_from(["-", "none", "3"])
        parts = [draw(TOKEN), draw(good_c), draw(TOKEN.filter(_fails(int)))]
    else:
        family, c, d = draw(
            st.tuples(
                st.sampled_from(["frame", "g", "h", "htilde"]) | TOKEN,
                st.none() | st.integers(-2, 3),
                st.integers(-2, 3),
            ).filter(lambda spec: _spec_fails(*spec))
        )
        parts = [family, "-" if c is None else str(c), str(d)]
    gaps = draw(st.lists(SPEC_GAP, min_size=len(parts) + 1, max_size=len(parts) + 1))
    return gaps[0] + "".join(p + g for p, g in zip(parts, gaps[1:])) + draw(
        st.sampled_from(["", "#", "# note"])
    )


# a malformed spec file's text, and the line of its fault
SPEC_TEXT = st.tuples(
    st.lists(GOOD_SPEC_LINE, max_size=4), bad_spec_line(), ANY_TEXT,
    st.sampled_from(["\n", "\r\n", "\r"]),
).map(lambda t: (t[3].join(t[0] + [t[1]]) + t[3] + t[2], len(t[0]) + 1))


ROW = st.builds(
    SweepRecord, TOKEN, st.none() | st.integers(1, 9), st.integers(1, 64),
    st.integers(0, 10**6), st.integers(0, 10**6), st.integers(0, 99), st.floats(),
    st.integers(1, 16), st.integers(0, 16), st.integers(0, 2**31), st.floats(0, 100),
)
CSV_KINDS = [f.type for f in fields(SweepRecord)]  # "str", "int | None", "int" or "float"


@st.composite
def bad_csv_text(draw):
    """A malformed sweep CSV's text, and the line of its fault (None for a
    missing column): a header without one column, or a row with the wrong
    field count or a field that is no number of its column's type."""
    lines = sweep_csv_text(draw(st.lists(ROW, min_size=1, max_size=4))).split("\r\n")
    kind = draw(st.sampled_from(["column", "count", "number"]))
    at = draw(st.integers(1, len(lines) - 2)) if kind != "column" else 0
    cells = lines[at].split(",")
    if kind == "column":
        cells[draw(st.integers(0, 10))] = draw(TOKEN.filter(lambda t: t not in CSV_COLUMNS))
    elif kind == "count":
        size = draw(st.integers(1, 14).filter(lambda k: k != 11))
        cells = (cells + draw(st.lists(TOKEN, min_size=3, max_size=3)))[:size]
    else:
        j = draw(st.integers(1, 10))
        cells[j] = draw(TOKEN.filter(_fails(float if CSV_KINDS[j] == "float" else int)))
    lines[at] = ",".join(cells)
    return "\r\n".join(lines) + draw(ANY_TEXT), at + 1 if at else None


def _written(directory: str, name: str, text: str) -> str:
    path = os.path.join(directory, name)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    return path


def _main(*argv):
    """main's exit code and stderr lines."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, err.getvalue().splitlines()


class TestMalformedInputFuzz:
    """Every malformed spec file or sweep CSV raises one one-line error, at
    its first bad line; the CLI exits 1 with that line alone on stderr.  No
    generated input parses, so no optimizer run starts."""

    @given(SPEC_TEXT)
    @settings(max_examples=300, deadline=None)
    def test_spec_file(self, case):
        text, line = case
        with tempfile.TemporaryDirectory() as tmp:
            with pytest.raises((StructureError, ParameterError)) as exc:
                _parse_spec_file(_written(tmp, "t.spec", text))
        assert str(exc.value).startswith(f"line {line}: ")
        assert len(str(exc.value).splitlines()) == 1

    @given(bad_csv_text())
    @settings(max_examples=300, deadline=None)
    def test_sweep_csv(self, case):
        text, line = case
        with tempfile.TemporaryDirectory() as tmp:
            with pytest.raises(StructureError) as exc:
                read_sweep_csv(_written(tmp, "t.csv", text))
        want = f"line {line}: " if line else "sweep CSV has no "
        assert str(exc.value).startswith(want)
        assert len(str(exc.value).splitlines()) == 1

    @given(SPEC_TEXT, bad_csv_text())
    @settings(max_examples=10, deadline=None)
    def test_sweep_and_fit_exit_1_with_one_stderr_line(self, spec_case, csv_case):
        with tempfile.TemporaryDirectory() as tmp:
            spec = _written(tmp, "t.spec", spec_case[0])
            out = os.path.join(tmp, "out.csv")
            code, err = _main("sweep", "--spec", spec, "--restarts", "1", "-o", out)
            assert (code, len(err)) == (1, 1) and err[0].startswith("error: line ")
            assert not os.path.exists(out)
            code, err = _main("fit", "--csv", _written(tmp, "t.csv", csv_case[0]), "--family", "g")
            assert (code, len(err)) == (1, 1) and err[0].startswith("error: ")


class TestLemmaFuzzCli:
    def test_small_run(self, capsys):
        code, stdout, _ = run(capsys, "lemma-fuzz", "--n", "1000", "--seed", "42")
        assert code == 0
        assert "1000/1000 hold" in stdout

    def test_negative_seed(self, capsys):
        code, _, err = run(capsys, "lemma-fuzz", "--n", "1000", "--seed", "-1")
        assert code == 1
        assert err.splitlines() == ["error: seed must be >= 0, got -1"]

    def test_prints_every_report_field(self, capsys):
        code, stdout, _ = run(capsys, "lemma-fuzz", "--n", "300", "--seed", "5")
        report = lemma_fuzz(300, 5)
        assert code == 0
        assert stdout.splitlines() == [
            "lemma-fuzz: n=300 seed=5",
            f"{report.bound_holds}/300 hold",
            f"worst lhs/rhs {report.worst_ratio!r}, "
            f"max sine-product error {report.max_sine_product_error:.3e}",
            f"max angle-sum error {report.max_angle_sum_error:.3e}",
        ]

    def test_criterion_1_report(self, python_dev, pins):
        # criterion 1's case, 10^6 samples over every core the process may
        # run on, digit for digit
        out = python_dev("-m", "angres.cli", "lemma-fuzz", "--n", "1000000", "--seed", "20240817")
        for line in pins["lemma_fuzz_report"]:
            assert line in out.splitlines()


class TestExportSvg:
    def test_f3_fan_line_count(self, tmp_path, capsys):
        gp = tmp_path / "f3.graph"
        dp = tmp_path / "f3.drawing"
        sp = tmp_path / "f3.svg"
        assert run(capsys, "gen", "--family", "frame", "--d", "3", "-o", str(gp))[0] == 0
        assert run(capsys, "layout", "--family", "frame", "--d", "3", "-o", str(dp))[0] == 0
        code, _, _ = run(
            capsys, "export-svg", str(gp), str(tmp_path / "f3.emb"), str(dp), "-o", str(sp)
        )
        assert code == 0
        assert sp.read_text().count("<line") == 15

    def test_invalid_drawing_refused(self, tmp_path, capsys):
        gp = tmp_path / "f2.graph"
        dp = tmp_path / "bad.drawing"
        assert run(capsys, "gen", "--family", "frame", "--d", "2", "-o", str(gp))[0] == 0
        fam, coords = layout_frame_fan(2)
        bad = coords.copy()
        bad[0] = [50.0, 50.0]
        dp.write_text(write_drawing(bad))
        code, _, _ = run(
            capsys, "export-svg", str(gp), str(tmp_path / "f2.emb"), str(dp), "-o",
            str(tmp_path / "x.svg")
        )
        assert code == 1

    def test_label_is_escaped(self):
        fam, coords = layout_frame_fan(2)
        (w,) = [v for v, name in fam.graph.labels.items() if name == "w"]
        fam.graph.labels[w] = "a&b<c"
        doc = export_svg(fam.graph, fam.embedding, coords)
        texts = ElementTree.fromstring(doc.encode()).iter("{http://www.w3.org/2000/svg}text")
        assert "a&b<c" in [t.text for t in texts]

    @pytest.mark.parametrize(
        "label",
        ["a\x01b", "a\x1bb", "a\ufffeb", "a\uffffb", "", "a b", "a\xa0b", "a\u2000b"],
    )
    def test_label_xml_cannot_hold_is_rejected(self, tmp_path, capsys, label):
        # neither can a .graph file hold a label that is empty or holds a
        # code point str.split() splits at: its 'l' record has 1 or 3 fields
        fam, coords = layout_frame_fan(2)
        (w,) = [v for v, name in fam.graph.labels.items() if name == "w"]
        text = write_graph(fam.graph).replace(f"l {w} w\n", f"l {w} {label}\n")
        fam.graph.labels[w] = label
        if label.split() == [label]:
            want = (
                f"label on vertex {w} holds U+{ord(label[1]):04X}, "
                "a control, surrogate or noncharacter code point"
            )
        else:
            want = f"label on vertex {w} is empty or holds a space: {label!r}"
        with pytest.raises(StructureError) as exc:
            export_svg(fam.graph, fam.embedding, coords)
        assert str(exc.value) == want
        with pytest.raises(StructureError) as exc:
            write_graph(fam.graph)
        assert str(exc.value) == want
        gp = tmp_path / "f2.graph"
        gp.write_text(text)
        with pytest.raises(StructureError) as exc:
            read_graph(gp.read_text())
        read = str(exc.value)
        if label.split() == [label]:
            assert read == want
        else:
            assert re.fullmatch(r"line \d+: 'l' record needs 2 fields, got [13]", read), read
        dp = tmp_path / "f2.drawing"
        dp.write_text(write_drawing(coords))
        ep = tmp_path / "f2.emb"
        ep.write_text(write_embedding(fam.embedding))
        code, _, err = run(
            capsys, "export-svg", str(gp), str(ep), str(dp), "-o", str(tmp_path / "x.svg")
        )
        assert (code, err) == (1, f"error: {read}\n")

    @pytest.mark.parametrize("label", ["a\x7fb", "\u03b1\u03b2", "a\u200bb", "a\xadb", "\U0001f600"])
    def test_label_xml_holds_is_kept(self, label):
        # none of these is a space to str.split(): zero-width space, soft
        # hyphen and an astral code point included
        fam, coords = layout_frame_fan(2)
        (w,) = [v for v, name in fam.graph.labels.items() if name == "w"]
        fam.graph.labels[w] = label
        assert read_graph(write_graph(fam.graph)).labels[w] == label
        doc = export_svg(fam.graph, fam.embedding, coords)
        texts = ElementTree.fromstring(doc.encode()).iter("{http://www.w3.org/2000/svg}text")
        assert label in [t.text for t in texts]

    def test_deterministic_bytes(self, tmp_path, capsys):
        gp = tmp_path / "f3.graph"
        dp = tmp_path / "f3.drawing"
        assert run(capsys, "gen", "--family", "frame", "--d", "3", "-o", str(gp))[0] == 0
        assert run(capsys, "layout", "--family", "frame", "--d", "3", "-o", str(dp))[0] == 0
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        for out in (a, b):
            assert run(
                capsys, "export-svg", str(gp), str(tmp_path / "f3.emb"), str(dp),
                "-o", str(out)
            )[0] == 0
        assert a.read_bytes() == b.read_bytes()
