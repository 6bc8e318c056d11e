import logging
import math

import numpy as np
import pytest

from antipodal import (
    GeneratorSpec,
    PairCounts,
    SweepAborted,
    VacuousMarginError,
    fit_exponent,
    harness,
    ratio_margin,
    sweep_ratio,
    sweep_spectral,
    theorem_margin_report,
)
from antipodal.harness import (
    RATIO_COLUMNS,
    SPECTRAL_COLUMNS,
    RatioRecord,
    SpectralRecord,
    geometric_grid,
    ratio_csv_rows,
    spectral_csv_rows,
    write_csv,
)

GRID = (0.08, 0.04, 0.02, 0.01, 0.005)


def synthetic_records(fn):
    return [
        SpectralRecord(epsilon=e, size=100, lambda1=fn(e), cw=1.0, sqrtdeg=1.0,
                       trace=1.0)
        for e in GRID
    ]


def test_ratio_record_derives_ratio_and_margin_from_its_counts():
    r = RatioRecord(epsilon=0.05, size=10, neighbors=6, antipodes=3)
    assert not r.vacuous
    assert r.ratio == 2.0
    assert r.margin == ratio_margin(PairCounts(6, 3, 0.05))
    v = RatioRecord(epsilon=0.05, size=10, neighbors=6, antipodes=0)
    assert v.vacuous and v.ratio is None and v.margin is None


def test_fit_exact_linear_power_law():
    fit = fit_exponent(synthetic_records(lambda e: e), "lambda1")
    assert fit.alpha == pytest.approx(1.0, abs=1e-12)
    assert fit.residual <= 1e-12
    assert fit.points_used == 5


def test_fit_exact_sqrt_power_law_with_prefactor():
    fit = fit_exponent(synthetic_records(lambda e: 7.0 * e**0.5), "lambda1")
    assert fit.alpha == pytest.approx(0.5, abs=1e-12)
    assert fit.intercept == pytest.approx(math.log(7.0), abs=1e-12)
    assert fit.residual <= 1e-12


def test_fit_requires_three_usable_points():
    with pytest.raises(ValueError):
        fit_exponent(synthetic_records(lambda e: e)[:2], "lambda1")
    vac = [RatioRecord(epsilon=e, size=10, neighbors=0, antipodes=0) for e in GRID]
    with pytest.raises(ValueError):
        fit_exponent(vac, "ratio")


def test_fit_rejects_nonpositive_values():
    recs = [
        RatioRecord(epsilon=e, size=10, neighbors=0, antipodes=5) for e in GRID
    ]
    with pytest.raises(ValueError):
        fit_exponent(recs, "ratio")
    with pytest.raises(ValueError):
        fit_exponent(recs, "no_such_field")


def test_sweep_ratio_circle_grid():
    recs = sweep_ratio(GeneratorSpec("circle", 2000), GRID)
    assert len(recs) == 5
    assert all(not r.vacuous for r in recs)
    # ratio nondecreasing in eps, with 1.1x slack
    ordered = sorted(recs, key=lambda r: r.epsilon)
    for small, big in zip(ordered, ordered[1:]):
        assert small.ratio <= 1.1 * big.ratio


def test_sweep_ratio_grid_validation():
    spec = GeneratorSpec("circle", 100)
    with pytest.raises(ValueError):
        sweep_ratio(spec, (0.2, 0.1))  # above 0.1
    with pytest.raises(ValueError):
        sweep_ratio(spec, (0.01, 0.02))  # not decreasing
    with pytest.raises(ValueError):
        sweep_ratio(spec, (0.04, 0.04))  # not strictly decreasing


def test_sweep_ratio_vacuous_rows_flagged():
    # five nearby points: no pair ever reaches distance 1 - eps
    recs = sweep_ratio(GeneratorSpec("random_disk", 5, seed=4), GRID)
    assert all(r.vacuous for r in recs)
    with pytest.raises(ValueError):
        fit_exponent(recs, "ratio")


def test_sweep_aborts_with_partial_records():
    # m = floor(sqrt(eps) * 20) hits zero at the last epsilon
    spec = GeneratorSpec("arc_center", 20, epsilon=0.09)
    with pytest.raises(SweepAborted) as exc:
        sweep_ratio(spec, (0.09, 0.0001))
    assert len(exc.value.partial) == 1
    assert exc.value.partial[0].epsilon == 0.09


def test_spectral_sweep_aborts_with_partial_rows(monkeypatch):
    calls = []

    def failing_second(hull, eps):
        calls.append(eps)
        if len(calls) == 2:
            raise RuntimeError("solver failed")
        return real(hull, eps)

    real = harness.spectral_record
    monkeypatch.setattr(harness, "spectral_record", failing_second)
    with pytest.raises(SweepAborted, match="failed at eps=0.0078125: solver failed") as exc:
        sweep_spectral((1 / 64, 1 / 128, 1 / 256), hull_points=400)
    assert calls == [1 / 64, 1 / 128]
    assert [r.epsilon for r in exc.value.partial] == [1 / 64]
    assert exc.value.partial == sweep_spectral((1 / 64,), hull_points=400)


def test_sweep_spectral_rows_and_chain():
    recs = sweep_spectral((1 / 64, 1 / 128), hull_points=2000)
    slack = 1 + 1e-9
    for r in recs:
        assert r.lambda1 <= r.cw * slack
        assert r.cw <= r.sqrtdeg * slack
        assert r.sqrtdeg <= r.trace * slack


def test_spectral_family_exponent_windows():
    from antipodal.harness import DEFAULT_SPECTRAL_GRID

    recs = sweep_spectral(DEFAULT_SPECTRAL_GRID)
    assert -0.65 <= fit_exponent(recs, "lambda1").alpha <= -0.45
    assert -0.65 <= fit_exponent(recs, "sqrtdeg").alpha <= -0.40
    assert -0.90 <= fit_exponent(recs, "trace").alpha <= -0.65


def test_margin_report_monotone_under_more_specs(caplog):
    base = [GeneratorSpec("circle", 1000)]
    extra = base + [GeneratorSpec("random_disk", 1000, seed=s) for s in (1, 2)]
    with caplog.at_level(logging.INFO, logger="antipodal"):
        m_base = theorem_margin_report(base, GRID)
        m_extra = theorem_margin_report(extra, GRID)
    assert m_extra <= m_base
    assert m_base > 0
    assert "circle(n=1000): min margin" in caplog.text


def test_margin_report_refuses_all_vacuous():
    with pytest.raises((VacuousMarginError, ValueError)):
        theorem_margin_report([GeneratorSpec("random_disk", 5, seed=4)], GRID)
    with pytest.raises(ValueError):
        theorem_margin_report([], GRID)


def test_csv_headers_and_determinism(tmp_path):
    recs = sweep_ratio(GeneratorSpec("circle", 400), GRID)
    lines = ratio_csv_rows(recs)
    assert lines[0] == ",".join(RATIO_COLUMNS)
    assert len(lines) == 6
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(a, lines)
    write_csv(b, ratio_csv_rows(sweep_ratio(GeneratorSpec("circle", 400), GRID)))
    assert a.read_bytes() == b.read_bytes()

    srecs = sweep_spectral((1 / 64,), hull_points=1500)
    slines = spectral_csv_rows(srecs)
    assert slines[0] == ",".join(SPECTRAL_COLUMNS)
    assert "." in slines[1] and "," in slines[1]


def test_vacuous_rows_have_empty_cells():
    recs = [RatioRecord(epsilon=0.05, size=5, neighbors=2, antipodes=0)]
    line = ratio_csv_rows(recs)[1]
    assert line == "0.05,5,2,0,,"


def test_geometric_grid():
    g = geometric_grid(0.08, 0.5, 4)
    assert g == [0.08, 0.04, 0.02, 0.01]
    with pytest.raises(ValueError):
        geometric_grid(0.08, 2.0, 3)
    with pytest.raises(ValueError):
        geometric_grid(0.08, 0.5, 0)
