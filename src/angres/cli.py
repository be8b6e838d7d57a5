"""Command-line front end: generation, layout, measurement, optimization,
fuzzing, exponent fits, and SVG export.

Exit codes: 0 success, 1 validation or measurement failure, 2 usage error.
Every command prints its resolved configuration (including seeds) before
doing any work, so a run is reproducible from its own output.  File outputs
are atomic (write to a temp file in the target directory, then rename).
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile

from .families import FamilySpec, ParameterError, build_family
from .geometry import lemma_fuzz
from .graphs import (
    StructureError,
    parse_numbers,
    read_embedding,
    read_graph,
    write_embedding,
    write_graph,
)
from .layout import check_fan_spec, layout_nested
from .metrics import Triangulation, drawn_embedding, read_drawing, write_drawing
from .optimize import (
    OptimizeConfig,
    OptimizeFailure,
    WorkerFailure,
    fit_exponent,
    maximize_resolution,
    read_sweep_csv,
    sweep,
    sweep_csv_text,
)
from .svg import InvalidDrawingError, export_svg


def _atomic_write(path: str, text: str) -> None:
    """Write ``text`` to ``path`` as is (UTF-8, no newline translation)
    through a temp file in the same directory, renamed over ``path`` once
    complete.  An OSError names ``path``, not the temp file's random name."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError) and exc.errno is not None:
            raise OSError(exc.errno, exc.strerror, path) from None
        raise


def _read(path: str, reader):
    """``reader`` applied to the text of the UTF-8 file at ``path``."""
    with open(path, encoding="utf-8") as fh:
        return reader(fh.read())


def _emb_path(graph_path: str) -> str:
    stem, _ = os.path.splitext(graph_path)
    return stem + ".emb"


def _spec_from_args(args) -> FamilySpec:
    if args.family != "frame" and args.c is None:
        raise ParameterError(f"family {args.family!r} requires --c")
    return FamilySpec(args.family, args.c, args.d)


def _config_from_args(args) -> OptimizeConfig:
    return OptimizeConfig(restarts=args.restarts, seed=args.seed, max_iters=args.max_iter)


def _cmd_gen(args) -> int:
    if _emb_path(args.output) == args.output:  # the embedding would overwrite the graph
        print(f"error: -o {args.output} is where gen writes the embedding", file=sys.stderr)
        return 2
    spec = _spec_from_args(args)
    print(f"gen: family={spec.family} c={spec.c} d={spec.d} out={args.output}")
    fam = build_family(spec)
    _atomic_write(args.output, write_graph(fam.graph))
    _atomic_write(_emb_path(args.output), write_embedding(fam.embedding))
    print(f"wrote {fam.graph.n} vertices, {len(fam.graph.edges)} edges")
    return 0


def _cmd_layout(args) -> int:
    spec = _spec_from_args(args)
    print(f"layout: family={spec.family} c={spec.c} d={spec.d} out={args.output}")
    check_fan_spec(spec)
    fam = build_family(spec)
    coords = layout_nested(fam)
    mesh = Triangulation(fam.graph, fam.embedding)
    viols = mesh.violations(coords)
    if viols:
        print(f"layout invalid: {viols[0]}", file=sys.stderr)
        return 1
    _atomic_write(args.output, write_drawing(coords))
    print(f"resolution {mesh.resolution(coords)!r}")
    return 0


def _cmd_measure(args) -> int:
    print(f"measure: graph={args.graph} drawing={args.drawing}")
    graph = _read(args.graph, read_graph)
    coords = _read(args.drawing, read_drawing)
    emb_file = args.emb or (_emb_path(args.graph) if os.path.exists(_emb_path(args.graph)) else None)
    emb = _read(emb_file, read_embedding) if emb_file else drawn_embedding(graph, coords)
    mesh = Triangulation(graph, emb)
    viols = mesh.violations(coords)
    if viols:
        print(f"invalid drawing: {viols[0]}", file=sys.stderr)
        return 1
    print("validated: yes")
    print(f"resolution {mesh.resolution(coords)!r}")
    return 0


def _cmd_optimize(args) -> int:
    cfg = _config_from_args(args)
    print(
        f"optimize: graph={args.graph} emb={args.embedding} restarts={cfg.restarts} "
        f"seed={cfg.seed} max_iters={cfg.max_iters} out={args.output}"
    )
    graph = _read(args.graph, read_graph)
    emb = _read(args.embedding, read_embedding)
    try:
        result = maximize_resolution(graph, emb, cfg)
    except (OptimizeFailure, StructureError) as exc:
        print(f"optimize failed: {exc}", file=sys.stderr)
        return 1
    _atomic_write(args.output, write_drawing(result.coords))
    print(f"resolution {float(result.resolution)!r}")
    return 0


def _parse_spec_file(path: str) -> list[FamilySpec]:
    """One FamilySpec per ``family c d`` line ('-' or 'none' for no c);
    ``#`` starts a comment.  A bad line raises an error naming it."""
    specs = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            parts = raw.split("#", 1)[0].split()
            if not parts:
                continue
            if len(parts) != 3:
                raise StructureError(
                    f"line {lineno}: spec line needs 'family c d', got {len(parts)} fields"
                )
            family, c_s, d_s = parts
            c = None if c_s in ("-", "none") else parse_numbers(lineno, [c_s], int)[0]
            (d,) = parse_numbers(lineno, [d_s], int)
            try:
                specs.append(FamilySpec(family, c, d))
            except ParameterError as exc:
                raise ParameterError(f"line {lineno}: {exc}") from None
    return specs


def _cmd_sweep(args) -> int:
    cfg = _config_from_args(args)
    print(
        f"sweep: spec={args.spec} restarts={cfg.restarts} seed={cfg.seed} "
        f"max_iters={cfg.max_iters} out={args.output}"
    )
    specs = _parse_spec_file(args.spec)
    records = sweep(specs, cfg)
    _atomic_write(args.output, sweep_csv_text(records))
    failed = sum(1 for r in records if r.valid_restarts == 0)
    print(f"{len(records)} rows ({failed} failed)")
    return 1 if failed else 0


def _cmd_lemma_fuzz(args) -> int:
    print(f"lemma-fuzz: n={args.n} seed={args.seed}")
    report = lemma_fuzz(args.n, args.seed)
    print(f"{report.bound_holds}/{report.n} hold")
    print(
        f"worst lhs/rhs {report.worst_ratio!r}, "
        f"max sine-product error {report.max_sine_product_error:.3e}"
    )
    print(f"max angle-sum error {report.max_angle_sum_error:.3e}")
    return 0 if report.bound_holds == report.n else 1


def _cmd_fit(args) -> int:
    print(f"fit: csv={args.csv} family={args.family} c={args.c}")
    records = read_sweep_csv(args.csv)
    fit = fit_exponent(records, args.family, args.c)
    print(f"{fit.slope!r} {fit.intercept!r} {fit.r2!r}")
    return 0


def _cmd_export_svg(args) -> int:
    print(f"export-svg: graph={args.graph} emb={args.embedding} drawing={args.drawing}")
    graph = _read(args.graph, read_graph)
    emb = _read(args.embedding, read_embedding)
    coords = _read(args.drawing, read_drawing)
    try:
        doc = export_svg(graph, emb, coords)
    except InvalidDrawingError as exc:
        print(f"refusing to render: {exc}", file=sys.stderr)
        return 1
    _atomic_write(args.output, doc)
    print(f"wrote {args.output}")
    return 0


def _add_family_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", required=True, choices=["frame", "g", "h", "htilde"])
    p.add_argument("--c", type=int, default=None)
    p.add_argument("--d", type=int, required=True)


def _add_optimizer_flags(p: argparse.ArgumentParser) -> None:
    defaults = OptimizeConfig()
    p.add_argument("--restarts", type=int, default=defaults.restarts)
    p.add_argument("--seed", type=int, default=defaults.seed)
    p.add_argument("--max-iter", type=int, default=defaults.max_iters)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="angres", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="construct a family graph + embedding")
    _add_family_flags(p)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("layout", help="constructive drawing of a family")
    _add_family_flags(p)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_layout)

    p = sub.add_parser("measure", help="angular resolution of a drawing")
    p.add_argument("graph")
    p.add_argument("drawing")
    p.add_argument("--emb", default=None)
    p.set_defaults(func=_cmd_measure)

    p = sub.add_parser("optimize", help="maximize resolution for a fixed embedding")
    p.add_argument("graph")
    p.add_argument("embedding")
    _add_optimizer_flags(p)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("sweep", help="optimize a list of family specs into a CSV")
    p.add_argument("--spec", required=True, help="file of lines: family c d ('-' for no c)")
    _add_optimizer_flags(p)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("lemma-fuzz", help="randomized check of the angle-ratio bound")
    p.add_argument("--n", type=int, default=100000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_lemma_fuzz)

    p = sub.add_parser("fit", help="log-log exponent fit over sweep CSV rows")
    p.add_argument("--csv", required=True)
    p.add_argument("--family", required=True)
    p.add_argument("--c", type=int, default=None)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("export-svg", help="render a validated drawing to SVG")
    p.add_argument("graph")
    p.add_argument("embedding")
    p.add_argument("drawing")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_export_svg)

    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (OSError, ValueError, WorkerFailure, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
