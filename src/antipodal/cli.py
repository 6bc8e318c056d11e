"""Command-line front end.

Subcommands:

* ``gen``          write a generated point set to a file
* ``annuli``       vertices/spans/cover counts for one annuli configuration
* ``graph-stats``  boundary-graph statistics for a point-set file
* ``spectral``     the bound chain for a point-set file
* ``sweep``        ratio or spectral ε sweep written as CSV

Exit code 0 only when the run's asserted invariants hold; bad input,
unreadable or unwritable files and a request for more memory than there is
exit 2 with a one-line ``error:`` message.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import annuli, boundary, generators, geometry, harness

_KIND_ALIASES = {
    "circle": "circle",
    "arc-center": "arc_center",
    "random-disk": "random_disk",
    "reuleaux": "reuleaux_boundary",
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="antipodal",
        description="Neighbor/antipode statistics and spectral bound sweeps",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a point configuration")
    p.add_argument("--kind", required=True, choices=sorted(_KIND_ALIASES))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)

    p = sub.add_parser("annuli", help="annuli intersection geometry")
    p.add_argument("--d", type=float, required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--thickened", action="store_true")

    p = sub.add_parser("graph-stats", help="boundary graph statistics")
    p.add_argument("--points", required=True)
    p.add_argument("--epsilon", type=float, required=True)

    p = sub.add_parser("spectral", help="bound chain for a point set")
    p.add_argument("--points", required=True)
    p.add_argument("--epsilon", type=float, required=True)

    p = sub.add_parser("sweep", help="epsilon sweep, CSV output")
    p.add_argument("--kind", required=True, choices=["ratio", "spectral"])
    p.add_argument("--n", type=int, default=2000)
    p.add_argument("--eps-start", type=float, required=True)
    p.add_argument("--eps-factor", type=float, required=True)
    p.add_argument("--eps-count", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument(
        "--gen",
        default="circle",
        choices=sorted(_KIND_ALIASES),
        help="generator for ratio sweeps (ignored for spectral)",
    )
    p.add_argument("--out", required=True)
    return parser


def _cmd_gen(args) -> int:
    kind = _KIND_ALIASES[args.kind]
    spec = generators.GeneratorSpec(
        kind=kind, n=args.n, epsilon=args.epsilon, seed=args.seed
    )
    ps = generators.make_config(spec)
    geometry.write_points(args.out, ps)
    return 0


def _cmd_annuli(args) -> int:
    cfg = annuli.AnnulusPairConfig(d=args.d, epsilon=args.epsilon)
    verts = annuli.intersection_vertices(cfg)
    width, height = annuli.spans(cfg)
    cover = annuli.cover_count(cfg)
    thick = ""
    if args.thickened:
        thick = annuli.thickened_cover_count(args.d, args.epsilon)
    for name in ("axis_outer", "axis_inner", "side_pos", "side_neg"):
        pt = getattr(verts, name)
        print(f"{name} = ({pt.x!r}, {pt.y!r})", file=sys.stderr)
    print("d,epsilon,width,height,cover,thickened_cover")
    print(f"{args.d!r},{args.epsilon!r},{width!r},{height!r},{cover},{thick}")
    return 0


def _load_hull(args):
    return geometry.convex_hull(geometry.read_points(args.points))


def _cmd_graph_stats(args) -> int:
    boxing = boundary.discretize_boundary(_load_hull(args), args.epsilon)
    graph = boundary.build_graph(boxing)
    max_nds = boundary.max_neighborhood_degree_sum(graph)
    max_tail = boundary.max_scaled_tail(boxing, graph)
    print("k,edges,max_degree,max_nbr_deg_sum,max_s_Ts_over_k")
    print(
        f"{graph.k},{graph.edge_count},{int(graph.degrees.max())},"
        f"{max_nds},{max_tail!r}"
    )
    return 0


def _cmd_spectral(args) -> int:
    # bound_chain itself raises when the ordering invariant fails
    record = harness.spectral_record(_load_hull(args), args.epsilon)
    print("\n".join(harness.spectral_csv_rows([record])))
    return 0


def _cmd_sweep(args) -> int:
    eps_grid = harness.geometric_grid(args.eps_start, args.eps_factor, args.eps_count)
    if args.kind == "ratio":
        kind = _KIND_ALIASES[args.gen]
        spec = generators.GeneratorSpec(
            kind=kind, n=args.n, epsilon=eps_grid[0], seed=args.seed
        )
        records = harness.sweep_ratio(spec, eps_grid)
        harness.write_csv(args.out, harness.ratio_csv_rows(records))
        ok = all(
            r.vacuous or r.margin >= 0.0 for r in records
        ) and all(
            r.neighbors + r.antipodes <= r.size * (r.size - 1) // 2
            for r in records
        )
        return 0 if ok else 1
    # bound_chain raises (exit 2) when the ordering invariant fails
    records = harness.sweep_spectral(eps_grid)
    harness.write_csv(args.out, harness.spectral_csv_rows(records))
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "gen": _cmd_gen,
        "annuli": _cmd_annuli,
        "graph-stats": _cmd_graph_stats,
        "spectral": _cmd_spectral,
        "sweep": _cmd_sweep,
    }
    try:
        return handlers[args.command](args)
    except (ValueError, RuntimeError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
