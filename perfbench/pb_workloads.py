"""The four benchmark workloads.

Each workload builds its inputs in `setup` (timed as set-up), does one full
pass of user-visible work in `run_pass` (timed as wall time) and, outside
any timed region, counts the failed operations of a pass's output in
`check`.  An operation is one output row: one ε row of the spectral sweep,
one (spec, ε) margin row, one ``graph-stats`` call or one (d, ε) annuli
configuration.  References are computed once per workload object, the first
time `check` needs them.  `check` may raise on output it cannot parse; the
runner then counts the whole pass as failed.

The package is reached only through its public module attributes and the
``antipodal`` command line (`cli.main`), looked up at call time so that the
tracer's wrappers see every call.
"""

from __future__ import annotations

import io
import math
import re
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

from antipodal import boundary, cli, generators, geometry, harness

# pb_oracle (and the SciPy it loads) is imported inside the reference
# methods: they run after peak memory is read, which then counts only what
# the package itself loads

# the power-iteration tolerance the λ1 bracket check allows for
LAMBDA_RTOL = 1e-9
# float outputs recomputed by the references in another summation order
FLOAT_RTOL = 1e-12


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """Run the ``antipodal`` command in-process; (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, out.getvalue(), err.getvalue()


def _close(a: float, b: float, rtol: float = FLOAT_RTOL) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def _csv_rows(text: str, header: str, width: int) -> list[list[str]] | None:
    lines = text.splitlines()
    if not lines or lines[0] != header:
        return None
    # rsplit: the leading margin-report column (a spec label) holds commas
    rows = [line.rsplit(",", width - 1) for line in lines[1:]]
    return rows if all(len(r) == width for r in rows) else None


class SpectralSweep:
    name = "spectral-sweep"
    why = ("power-iteration matvecs, box adjacency and the O(n^2) certified "
           "diameter on the n=10000 circle; no pair counting; seed unused")
    header = "epsilon,k,lambda1,cw,sqrtdeg,trace"

    def __init__(self, grid=(1 / 64, 1 / 128, 1 / 256, 1 / 512, 1 / 1024),
                 hull_points: int = 10_000):
        self.grid = tuple(grid)
        self.hull_points = hull_points
        self.ops = len(self.grid)
        self._ref = None

    def setup(self, seed: int, workdir: Path) -> None:
        pass  # the inputs are the fixed grid and circle size

    def run_pass(self):
        records = harness.sweep_spectral(self.grid, hull_points=self.hull_points)
        lines = harness.spectral_csv_rows(records)
        fit = harness.fit_exponent(records, "lambda1")
        return lines, fit.alpha

    def _reference(self):
        import pb_oracle

        hull = geometry.convex_hull(generators.circle_config(self.hull_points))
        ref = []
        for eps in self.grid:
            centers = boundary.discretize_boundary(hull, eps).centers
            adj = pb_oracle.box_adjacency(centers, eps / 2.0, eps)
            deg = np.asarray(adj.sum(axis=1)).ravel()
            live = deg > 0
            x = np.sqrt(deg.astype(np.float64))
            cw = float(((adj @ x)[live] / x[live]).max())
            ref.append({
                "k": pb_oracle.box_count(hull.vertices, eps),
                "centers": centers.shape[0],
                "trace": math.sqrt(float(deg.sum())),
                "sqrtdeg": math.sqrt(float((adj @ deg)[live].max())),
                "cw": cw,
                "bracket": pb_oracle.perron_bracket(adj),
            })
        return ref

    def check(self, output) -> int:
        if self._ref is None:
            self._ref = self._reference()
        lines, alpha = output
        rows = _csv_rows("\n".join(lines), self.header, 6)
        if rows is None or len(rows) != len(self.grid):
            return self.ops
        failed = 0
        xs, ys = [], []
        for eps, ref, row in zip(self.grid, self._ref, rows):
            e, k = float(row[0]), int(row[1])
            lam, cw, sdb, trb = (float(v) for v in row[2:])
            lo, hi = ref["bracket"]
            ok = (
                e == eps and k == ref["k"] == ref["centers"]
                and _close(trb, ref["trace"]) and _close(sdb, ref["sqrtdeg"])
                and _close(cw, ref["cw"])
                and lo * (1 - LAMBDA_RTOL) <= lam <= hi * (1 + LAMBDA_RTOL)
                and lam <= cw * (1 + LAMBDA_RTOL) and cw <= sdb * (1 + LAMBDA_RTOL)
                and sdb <= trb * (1 + LAMBDA_RTOL)
            )
            failed += not ok
            xs.append(math.log(e))
            ys.append(math.log(lam))
        if not _close(alpha, float(np.polyfit(xs, ys, 1)[0]), LAMBDA_RTOL):
            failed = min(self.ops, failed + 1)
        return failed


class MarginReport:
    name = "margin-report"
    why = ("brute-force pair counts at every epsilon for 8 generator specs "
           "(n=2000), no graph or eigensolver; seed picks the random specs")
    header = "spec,epsilon,n,neighbors,antipodes,ratio,margin"
    record = Path(__file__).resolve().parent.parent / "results" / "margin_report.csv"

    n = 2000
    grid = (0.08, 0.04, 0.02, 0.01, 0.005)
    ops = 8 * len(grid)

    def __init__(self):
        self.specs = []
        self.seed = None
        self._ref = None

    def setup(self, seed: int, workdir: Path) -> None:
        n = self.n
        self.seed = seed
        self.specs = (
            [generators.GeneratorSpec("circle", n),
             generators.GeneratorSpec("arc_center", n, epsilon=self.grid[0])]
            + [generators.GeneratorSpec("random_disk", n, seed=s)
               for s in (seed, seed + 1, seed + 2)]
            + [generators.GeneratorSpec("reuleaux_boundary", n, seed=s)
               for s in (seed, seed + 1, seed + 2)]
        )

    def run_pass(self):
        """theorem_margin_report, with the per-spec sweeps it computes turned
        into the margin CSV rows."""
        swept = []
        sweep = harness.sweep_ratio

        def recording_sweep(spec, epsilons):
            records = sweep(spec, epsilons)
            swept.append((spec, records))
            return records

        harness.sweep_ratio = recording_sweep
        try:
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                margin = harness.theorem_margin_report(self.specs, self.grid)
        finally:
            harness.sweep_ratio = sweep
        lines = [self.header]
        for spec, records in swept:
            lines += [f"{spec.label()},{row}" for row in harness.ratio_csv_rows(records)[1:]]
        return lines, margin

    def _reference(self):
        import pb_oracle

        ref = []
        for spec in self.specs:
            if spec.kind == "arc_center":
                counts = [pb_oracle.pair_counts(generators.make_config(spec, eps).coords,
                                                [eps])[0] for eps in self.grid]
            else:
                counts = pb_oracle.pair_counts(generators.make_config(spec).coords, self.grid)
            for eps, (near, far) in zip(self.grid, counts):
                ref.append((spec.label(), eps, near, far))
        recorded = None
        if self.seed == 1:
            recorded = self.record.read_text(encoding="ascii").split("\n")
        return ref, recorded

    def check(self, output) -> int:
        if self._ref is None:
            self._ref = self._reference()
        ref, recorded = self._ref
        lines, margin = output
        text = "\n".join(lines) + "\n"
        rows = _csv_rows(text, self.header, 7)
        if rows is None or len(rows) != len(ref):
            return self.ops
        failed = 0
        margins = []
        for i, ((label, eps, near, far), row) in enumerate(zip(ref, rows)):
            ok = (row[0] == label and float(row[1]) == eps and int(row[2]) == self.n
                  and int(row[3]) == near and int(row[4]) == far)
            if ok and far == 0:
                ok = row[5] == row[6] == ""
            elif ok:
                m = near * math.sqrt(math.log(1.0 / eps)) / (far * math.sqrt(eps))
                ok = _close(float(row[5]), near / far) and _close(float(row[6]), m)
                margins.append(float(row[6]))
            if recorded is not None:
                ok = ok and lines[i + 1] == recorded[i + 1]
            failed += not ok
        if not margins or margin != min(margins):
            failed = min(self.ops, failed + 1)
        return failed


class GraphTails:
    name = "graph-tails"
    why = ("graph-stats CLI on a Reuleaux boundary file: common-neighbour tail "
           "rows over a skewed-degree graph, read_points and the cli layer")
    header = "k,edges,max_degree,max_nbr_deg_sum,max_s_Ts_over_k"

    def __init__(self, n: int = 10_000, grid=(1 / 64, 1 / 128, 1 / 256, 1 / 512)):
        self.n = n
        self.grid = tuple(grid)
        self.ops = len(self.grid)
        self.points = None
        self._ref = None

    def setup(self, seed: int, workdir: Path) -> None:
        self.points = workdir / f"reuleaux-{self.n}-{seed}.txt"
        rc, _, err = run_cli(["gen", "--kind", "reuleaux", "--n", str(self.n),
                              "--seed", str(seed), "--out", str(self.points)])
        if rc != 0:
            raise RuntimeError(f"antipodal gen failed ({rc}): {err.strip()}")
        self._ref = None

    def run_pass(self):
        return [run_cli(["graph-stats", "--points", str(self.points),
                         "--epsilon", repr(eps)])[:2] for eps in self.grid]

    def _reference(self):
        import pb_oracle

        xy = np.loadtxt(self.points, dtype=np.float64, ndmin=2)
        hull = geometry.convex_hull(geometry.PointSet(xy))
        rows = []
        for eps in self.grid:
            centers = boundary.discretize_boundary(hull, eps).centers
            k = pb_oracle.box_count(hull.vertices, eps)
            adj = pb_oracle.box_adjacency(centers, eps / 2.0, eps)
            deg = np.asarray(adj.sum(axis=1)).ravel()
            tail = pb_oracle.max_scaled_tail(centers, eps / 2.0, eps, adj)
            rows.append(f"{k if k == centers.shape[0] else -1},{adj.nnz // 2},"
                        f"{int(deg.max())},{int((adj @ deg).max())},{tail!r}")
        return rows

    def check(self, output) -> int:
        if self._ref is None:
            self._ref = self._reference()
        return sum(not (rc == 0 and out == f"{self.header}\n{want}\n")
                   for (rc, out), want in zip(output, self._ref))


_VERTEX = re.compile(r"^(\w+) = \((\S+), (\S+)\)$")


class AnnuliCovers:
    name = "annuli-covers"
    why = ("annuli CLI over a 5x6 (d, epsilon) lattice: rasterised cover counts "
           "dominate, largest peak memory; seed unused")
    header = "d,epsilon,width,height,cover,thickened_cover"

    def __init__(self, configs=None):
        if configs is None:
            configs = [(d, eps) for eps in (0.0005, 0.001, 0.002, 0.005, 0.01)
                       for d in (4 * eps, 0.05, 0.1, 0.25, 0.5, 1.0)]
        self.configs = [(d, eps, d >= 12 * eps) for d, eps in configs]
        self.ops = len(self.configs)
        self._ref = None

    def setup(self, seed: int, workdir: Path) -> None:
        pass  # the inputs are the fixed lattice

    def run_pass(self):
        return [run_cli(["annuli", "--d", repr(d), "--epsilon", repr(eps)]
                        + (["--thickened"] if thick else []))
                for d, eps, thick in self.configs]

    def _reference(self):
        import pb_oracle

        ref = []
        for d, eps, thick in self.configs:
            h = d / 2.0
            x_side, y_side = pb_oracle.circle_crossing(-h, 1.0, h, 1.0 - eps)
            ref.append({
                "axis_outer": (0.0, pb_oracle.circle_crossing(-h, 1.0, h, 1.0)[1]),
                "axis_inner": (0.0, pb_oracle.circle_crossing(-h, 1.0 - eps, h, 1.0 - eps)[1]),
                "side_pos": (x_side, y_side),
                "side_neg": (-x_side, y_side),
                "cover": pb_oracle.sampled_cover(d, eps, 1.0 - eps, 1.0),
                "thick": (pb_oracle.sampled_cover(d, eps, 1.0 - 2 * eps, 1.0 + eps)
                          if thick else None),
            })
        return ref

    def missed_cells(self, output) -> int:
        """Cells a 16x16 sampling finds in the thin region beyond the covers
        of one pass: the sliver cells a sampled cover can miss."""
        import pb_oracle

        total = 0
        for (d, eps, _), (rc, out, _) in zip(self.configs, output):
            if rc != 0:
                continue
            fine = pb_oracle.sampled_cover(d, eps, 1.0 - eps, 1.0, res=16)
            total += max(0, fine - int(out.splitlines()[1].split(",")[4]))
        return total

    def check(self, output) -> int:
        if self._ref is None:
            self._ref = self._reference()
        return sum(not self._row_ok(cfg, ref, *result)
                   for cfg, ref, result in zip(self.configs, self._ref, output))

    def _row_ok(self, cfg, ref, rc, out, err) -> bool:
        d, eps, thick = cfg
        rows = _csv_rows(out, self.header, 6)
        if rc != 0 or rows is None or len(rows) != 1:
            return False
        row = rows[0]
        width, height, cover = float(row[2]), float(row[3]), int(row[4])
        verts = {}
        for line in err.splitlines():
            m = _VERTEX.match(line)
            if m:
                verts[m.group(1)] = (float(m.group(2)), float(m.group(3)))
        ok = (
            float(row[0]) == d and float(row[1]) == eps
            and set(verts) == {"axis_outer", "axis_inner", "side_pos", "side_neg"}
            and all(abs(got - want) <= 1e-10
                    for name in verts for got, want in zip(verts[name], ref[name]))
            and abs(width - 2.0 * ref["side_pos"][0]) <= 1e-10
            and math.isfinite(height) and height > 0.0
            and cover >= ref["cover"]
        )
        if thick:
            return ok and row[5] != "" and int(row[5]) >= max(cover, ref["thick"])
        return ok and row[5] == ""


WORKLOADS = {w.name: w for w in (SpectralSweep, MarginReport, GraphTails, AnnuliCovers)}
