"""Peak memory of the layers that build, compile and measure a family, and
of the command-line text round trip.

Each layer holds at most a couple of temporaries the size of its output at
once.  On htilde(3,8) (30,391 vertices, 182,334 half-edges, so one int64
per half-edge is 1.39 MiB and one per step 0.23 MiB) tracemalloc, which
sees numpy's allocations, reads these peaks above each layer's inputs:

    layer                 peak    bound
    build_family          6.59    7.25 MiB (6.11 of it the family)
    Triangulation(...)    3.03    3.35 MiB
    Triangulation.replay  1.86    2.05 MiB
    angular_resolution    2.85    3.15 MiB

Each bound is the measured peak plus 10%, rounded up to 0.05 MiB, so a
change that keeps one more int64 per half-edge (or, in the replay, per
step) alive at the peak fails here.  Layers that held full-size
temporaries read 14.18, 9.40, 6.44 and 9.97 MiB."""

import gc
import os
import subprocess
import sys
import tracemalloc

from angres import cli
from angres.families import FamilySpec, build_family
from angres.layout import layout_nested
from angres.metrics import Triangulation, angular_resolution

MIB = 2**20


def traced_peak(call):
    """``call()``'s result and the peak of traced memory while it ran, in
    MiB above what was traced before it."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        gc.collect()
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = call()
        return out, (tracemalloc.get_traced_memory()[1] - base) / MIB
    finally:
        if started:
            tracemalloc.stop()


def test_layer_peaks_on_htilde_3_8():
    spec = FamilySpec("htilde", 3, 8)
    fam, build = traced_peak(lambda: build_family(spec))
    g, emb = fam.graph, fam.embedding
    coords = layout_nested(fam)
    mesh, compiled = traced_peak(lambda: Triangulation(g, emb))
    _, replay = traced_peak(lambda: mesh.replay)
    _, measured = traced_peak(lambda: angular_resolution(g, coords))
    peaks = {"build": build, "compile": compiled, "replay": replay, "measure": measured}
    bounds = {"build": 7.25, "compile": 3.35, "replay": 2.05, "measure": 3.15}
    assert {k: round(v, 2) for k, v in peaks.items() if v >= bounds[k]} == {}


def test_text_round_trip_peak_rss(tmp_path):
    """On htilde(3,8), ``angres gen`` adds under 13 MiB to the peak RSS of
    an interpreter that imports the CLI (about 10 MiB, two thirds of it the
    built family) and ``angres measure`` under 23 MiB (about 13 MiB).  The
    text readers hold no Python object per token and the writers format a
    block of rows at a time; formatting every value at once added about
    23 MB, and holding every token as a str about 32 MB."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    graph, drawing = tmp_path / "h.graph", tmp_path / "h.drawing"
    subprocess.run(
        [sys.executable, "-m", "angres.cli", "layout", "--family", "htilde", "--c", "3",
         "--d", "8", "-o", str(drawing)],
        env=env, check=True, capture_output=True,
    )
    rss = "import resource, sys; print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)"

    def peak_kb(calls: str) -> int:
        # started by a shell, as a CI step runs it: a process that this one
        # starts directly reports this one's peak RSS, which its exec keeps
        done = subprocess.run(
            ["sh", "-c", '"$@" || exit', "sh", sys.executable, "-c",
             f"import angres.cli; {calls}; {rss}"],
            env=env, check=True, capture_output=True, text=True,
        )
        return int(done.stdout.splitlines()[-1])

    base = peak_kb("pass")
    gen = peak_kb(f"angres.cli.main(['gen', '--family', 'htilde', '--c', '3', '--d', '8', "
                  f"'-o', {str(graph)!r}])")
    measure = peak_kb(f"angres.cli.main(['measure', {str(graph)!r}, {str(drawing)!r}])")
    assert gen - base < 13 * 1024
    assert measure - base < 23 * 1024
