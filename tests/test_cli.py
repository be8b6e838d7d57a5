import math
import re

import numpy as np
import pytest

from angres.cli import main
from angres.families import build_Htilde
from angres.graphs import read_embedding, read_graph
from angres.layout import layout_frame_fan, layout_nested
from angres.metrics import read_drawing, write_drawing
from angres.optimize import CSV_COLUMNS


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        assert g.edges == fam.graph.edges
        assert emb.rotation == fam.embedding.rotation

    def test_usage_error_exit_2(self, capsys):
        code, _, _ = run(capsys, "gen", "--family", "frame", "--d", "3")
        assert code == 2

    def test_unknown_flag_rejected(self, capsys):
        code, _, _ = run(capsys, "gen", "--family", "frame", "--d", "3", "--zap", "-o", "x")
        assert code == 2

    def test_missing_c_is_error(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "gen", "--family", "htilde", "--d", "2", "-o", str(tmp_path / "x.graph")
        )
        assert code == 1


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

    def test_measure_says_validated_no_without_an_embedding(self, tmp_path, capsys):
        gp, dp = tmp_path / "t.graph", tmp_path / "t.drawing"
        gp.write_text("graph 3\ne 0 1\ne 1 2\ne 0 2\n")
        dp.write_text("p 0 0.0 1.0\np 1 0.8 -0.5\np 2 -0.8 -0.5\n")
        code, stdout, _ = run(capsys, "measure", str(gp), str(dp))
        assert code == 0
        assert stdout.splitlines()[-2:-1] == ["validated: no"]

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

    def test_bad_spec_line(self, tmp_path, capsys):
        spec = tmp_path / "specs.txt"
        spec.write_text("frame 2\n")
        code, _, err = run(
            capsys, "sweep", "--spec", str(spec), "-o", str(tmp_path / "x.csv")
        )
        assert code == 1


class TestLemmaFuzzCli:
    def test_small_run(self, capsys):
        code, stdout, _ = run(capsys, "lemma-fuzz", "--n", "1000", "--seed", "42")
        assert code == 0
        assert "1000/1000 hold" in stdout


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
