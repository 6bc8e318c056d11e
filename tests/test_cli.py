import math

import numpy as np
import pytest

from antipodal import boundary, harness, read_points
from antipodal.cli import main
from antipodal.harness import spectral_csv_rows, sweep_spectral


def test_gen_writes_point_file(tmp_path):
    out = tmp_path / "circle.txt"
    assert main(["gen", "--kind", "circle", "--n", "64", "--out", str(out)]) == 0
    ps = read_points(out)
    assert ps.n == 64


def test_gen_seeded_kinds_deterministic(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    for path in (a, b):
        rc = main(
            ["gen", "--kind", "random-disk", "--n", "100", "--seed", "9",
             "--out", str(path)]
        )
        assert rc == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_arc_center_needs_epsilon(tmp_path):
    rc = main(["gen", "--kind", "arc-center", "--n", "100",
               "--out", str(tmp_path / "x.txt")])
    assert rc == 2


def test_annuli_row(capsys):
    assert main(["annuli", "--d", "0.5", "--epsilon", "0.01"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "d,epsilon,width,height,cover,thickened_cover"
    fields = out[1].split(",")
    assert float(fields[0]) == 0.5
    assert float(fields[2]) == pytest.approx(0.0398)
    assert int(fields[4]) == 18
    assert fields[5] == ""  # thickened not requested


def test_annuli_thickened(capsys):
    assert main(["annuli", "--d", "0.5", "--epsilon", "0.01", "--thickened"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert int(out[1].split(",")[5]) == 102


def test_annuli_invalid_config_is_error():
    assert main(["annuli", "--d", "1.5", "--epsilon", "0.01"]) == 2


@pytest.mark.parametrize("eps", ["1e-20", "1e-17", "1e-15"])
def test_annuli_epsilon_too_small_for_exact_samples_is_error(capsys, eps):
    # the ε/2 cell indices reach 2**53 / 16, past which the sample
    # coordinates are no longer exact (at 1e-20 they pass int64)
    assert main(["annuli", "--d", "1", "--epsilon", eps]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


def test_annuli_smallest_exact_epsilon_keeps_its_cover(capsys):
    assert main(["annuli", "--d", "1", "--epsilon", "1e-14"]) == 0
    assert int(capsys.readouterr().out.strip().splitlines()[1].split(",")[4]) == 10


def test_graph_stats_and_spectral(tmp_path, capsys):
    pts = tmp_path / "c.txt"
    main(["gen", "--kind", "circle", "--n", "3000", "--out", str(pts)])
    assert main(["graph-stats", "--points", str(pts), "--epsilon", "0.02"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "k,edges,max_degree,max_nbr_deg_sum,max_s_Ts_over_k"
    k = int(out[1].split(",")[0])
    assert k >= 3

    assert main(["spectral", "--points", str(pts), "--epsilon", "0.02"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "epsilon,k,lambda1,cw,sqrtdeg,trace"
    row = out[1].split(",")
    assert float(row[2]) <= float(row[3]) * (1 + 1e-9)


def test_sweep_ratio_deterministic_csv(tmp_path):
    args = [
        "sweep", "--kind", "ratio", "--n", "500", "--eps-start", "0.08",
        "--eps-factor", "0.5", "--eps-count", "4",
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    header = a.read_text().splitlines()[0]
    assert header == "epsilon,n,neighbors,antipodes,ratio,margin"


def test_sweep_spectral_csv(tmp_path):
    out = tmp_path / "s.csv"
    rc = main(
        ["sweep", "--kind", "spectral", "--eps-start", str(1 / 64),
         "--eps-factor", "0.5", "--eps-count", "2", "--out", str(out)]
    )
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "epsilon,k,lambda1,cw,sqrtdeg,trace"
    assert len(lines) == 3


def test_spectral_prints_the_sweep_row(tmp_path, capsys):
    # write_points round-trips by repr, so both see the same circle hull
    pts = tmp_path / "c.txt"
    assert main(["gen", "--kind", "circle", "--n", "2000", "--out", str(pts)]) == 0
    assert main(["spectral", "--points", str(pts), "--epsilon", str(1 / 64)]) == 0
    want = spectral_csv_rows(sweep_spectral((1 / 64,), hull_points=2000))
    assert capsys.readouterr().out == "\n".join(want) + "\n"


def test_sweep_rejects_bad_grid(tmp_path):
    rc = main(
        ["sweep", "--kind", "ratio", "--eps-start", "0.08", "--eps-factor",
         "1.5", "--eps-count", "3", "--out", str(tmp_path / "x.csv")]
    )
    assert rc == 2


def test_missing_points_file_is_error(tmp_path, capsys):
    rc = main(["graph-stats", "--points", str(tmp_path / "absent.txt"),
               "--epsilon", "0.02"])
    assert rc == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


def test_bad_token_in_points_file_names_its_line(tmp_path, capsys):
    pts = tmp_path / "bad.txt"
    pts.write_text("0 0\n1 0\n0 abc\n")
    rc = main(["graph-stats", "--points", str(pts), "--epsilon", "0.02"])
    assert rc == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {pts}:3: ")


def test_gen_into_missing_directory_is_error(tmp_path, capsys):
    rc = main(["gen", "--kind", "circle", "--n", "16",
               "--out", str(tmp_path / "no" / "such" / "dir.txt")])
    assert rc == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


_BAD_POINT_FILES = {
    "nan": "0 0\n1 0\nnan 0.5\n",
    "inf": "0 0\n1 0\ninf 0.5\n",
    "overflow": "0 0\n1 0\n1e400 0.5\n",
    "comment-only": "# no points\n",
    "empty": "",
    "one-point": "0.5 0.5\n",
    "collinear": "0 0\n0.5 0\n1 0\n",
}
_CIRCLE = "".join(f"{0.5 * math.cos(t)!r} {0.5 * math.sin(t)!r}\n"
                  for t in 2 * math.pi * np.arange(200) / 200)


@pytest.mark.parametrize("command", ["graph-stats", "spectral"])
@pytest.mark.parametrize("message", ["Unable to allocate 46.8 GiB for an array", ""])
def test_out_of_memory_is_one_error_line(tmp_path, capsys, monkeypatch, command, message):
    """A tiny ε on a 200-point circle asks `discretize_boundary` for tens of
    GiB; the MemoryError is raised here without allocating, since a machine
    with enough memory would grant the real request."""
    def discretize(hull, epsilon):
        raise MemoryError(message)

    monkeypatch.setattr(boundary, "discretize_boundary", discretize)
    monkeypatch.setattr(harness, "discretize_boundary", discretize)
    pts = tmp_path / "p.txt"
    pts.write_text(_CIRCLE)
    assert main([command, "--points", str(pts), "--epsilon", "1e-9"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {message or 'MemoryError'}"]


@pytest.mark.parametrize("command", ["graph-stats", "spectral"])
def test_bad_epsilon_cases_use_a_good_file(tmp_path, command):
    pts = tmp_path / "p.txt"
    pts.write_text(_CIRCLE)
    assert main([command, "--points", str(pts), "--epsilon", "0.05"]) == 0


def _bad_inputs():
    """(id, points file text or None, argv) with "{dir}" for a scratch directory."""
    points = ["--points", "{dir}/p.txt"]
    for command in ("graph-stats", "spectral"):
        for name, text in _BAD_POINT_FILES.items():
            yield f"{name}-{command}", text, [command, *points, "--epsilon", "0.05"]
        for name, eps in (("0", "0"), ("0.5", "0.5"), ("negative", "-0.1"), ("nan", "nan")):
            yield f"eps-{name}-{command}", _CIRCLE, [command, *points, "--epsilon", eps]
    gen = ["gen", "--out", "{dir}/g.txt"]
    yield "gen-n-1", None, [*gen, "--kind", "circle", "--n", "1"]
    yield "gen-reuleaux-no-seed", None, [*gen, "--kind", "reuleaux", "--n", "100"]
    yield "gen-arc-center-no-epsilon", None, [*gen, "--kind", "arc-center", "--n", "100"]
    yield "gen-eps-0.7", None, [*gen, "--kind", "arc-center", "--n", "100", "--epsilon", "0.7"]
    yield "gen-out-is-a-directory", None, ["gen", "--out", "{dir}", "--kind", "circle", "--n", "16"]
    for name, d, eps in (("d-2", "2", "0.01"), ("d-nan", "nan", "0.01"),
                         ("eps-1e-300", "1", "1e-300"), ("d-0.001", "0.001", "0.01")):
        yield f"annuli-{name}", None, ["annuli", "--d", d, "--epsilon", eps]
    yield "annuli-thickened-d-below-12eps", None, ["annuli", "--d", "0.1", "--epsilon", "0.01",
                                                   "--thickened"]
    sweep = ["sweep", "--kind", "ratio", "--n", "200", "--out", "{dir}/s.csv"]
    grid = {"--eps-start": "0.05", "--eps-factor": "0.5", "--eps-count": "3"}
    for flag, value in (("--eps-start", "0.2"), ("--eps-start", "nan"),
                        ("--eps-factor", "1.5"), ("--eps-count", "0")):
        args = [a for k, v in {**grid, flag: value}.items() for a in (k, v)]
        yield f"sweep{flag[5:]}-{value}", None, [*sweep, *args]
    yield "sweep-random-disk-no-seed", None, [*sweep, *(a for kv in grid.items() for a in kv),
                                              "--gen", "random-disk"]


@pytest.mark.parametrize("text,argv", [case[1:] for case in _bad_inputs()],
                         ids=[case[0] for case in _bad_inputs()])
def test_bad_input_is_one_error_line(tmp_path, capsys, text, argv):
    if text is not None:
        (tmp_path / "p.txt").write_text(text)
    assert main([arg.replace("{dir}", str(tmp_path)) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
