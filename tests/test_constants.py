"""Tests for the constant assembly, the radius sweep, and the CSV format."""

import math
from pathlib import Path

import pytest

from agplate import constants
from agplate.ball_spectrum import MIN_RADIUS, lowest_eigenvalue
from agplate.constants import (
    CSV_HEADER,
    STATUS_NO_ROOT,
    STATUS_OK,
    ConstantRecord,
    c_constant,
    format_records,
    read_csv,
    sweep,
    sweep_radii,
    write_csv,
)
from agplate.errors import NoRootFound


DATA_DIR = Path(__file__).resolve().parent / "data"


def _no_root(n, l, R):
    raise NoRootFound("no sign change found")


def test_unit_ball_in_the_plane_is_the_tie_case():
    record = c_constant(2, 1.0)
    assert record.status == STATUS_OK
    assert record.C == pytest.approx(1.0, abs=1e-9)
    assert record.A_min == 0.0
    assert record.B_min == 1.0


def test_record_internal_consistency():
    for n, R in [(2, 1.0), (2, 1.5), (3, 0.4)]:
        r = c_constant(n, R)
        assert r.Lambda1 == r.lambda1 * r.lambda1
        assert r.C_raw == r.J_min / r.Lambda1
        assert r.C <= 1.0 + 1e-8
        assert r.C == r.C_raw or (r.C == 1.0 and r.C_raw > 1.0)
        assert r.status == STATUS_OK


def test_strict_interior_value_regression():
    record = c_constant(2, 1.5)
    assert record.C == pytest.approx(0.9337636458470797, rel=1e-9)
    assert record.A_min == pytest.approx(1.1941548942146236, abs=1e-6)
    assert 0.0 < record.C < 1.0


def test_c_constant_validation():
    with pytest.raises(ValueError):
        c_constant(2, 1e-4)
    with pytest.raises(ValueError):
        c_constant(1, 1.0)
    with pytest.raises(ValueError):
        c_constant(2, math.inf)


def test_sweep_radii_grid():
    radii = sweep_radii(0.05, 3.0, 120)
    assert len(radii) == 120
    assert radii[-1] == 3.0
    assert radii[0] > 0.05
    gaps = [b - a for a, b in zip(radii, radii[1:])]
    for gap in gaps:
        assert gap == pytest.approx(gaps[0], rel=1e-12)
    with pytest.raises(ValueError):
        sweep_radii(1e-4, 1.0, 10)
    with pytest.raises(ValueError):
        sweep_radii(1.0, 0.5, 10)
    with pytest.raises(ValueError):
        sweep_radii(0.5, 1.0, 1)


def test_small_sweep_order_and_status():
    records = sweep([2], 0.5, 1.0, 4, grid_points=32)
    assert [r.R for r in records] == sweep_radii(0.5, 1.0, 4)
    assert all(r.n == 2 for r in records)
    assert all(r.status == STATUS_OK for r in records)


def test_sweep_survives_unsolvable_radii(monkeypatch):
    unsolvable = sweep_radii(0.5, 1.0, 2)[0]

    def fail_at_one_radius(n, l, R):
        if R == unsolvable:
            raise NoRootFound("no sign change found")
        return lowest_eigenvalue(n, l, R)

    monkeypatch.setattr(constants, "lowest_eigenvalue", fail_at_one_radius)
    records = sweep([2], 0.5, 1.0, 2, grid_points=32)
    assert [r.status for r in records] == [STATUS_NO_ROOT, STATUS_OK]
    failed = records[0]
    assert failed.R == unsolvable
    assert math.isnan(failed.C) and math.isnan(failed.Lambda1)
    assert records[1].C <= 1.0 + 1e-8


def test_c_constant_at_min_radius():
    for n in (2, 3, 4, 5):
        record = c_constant(n, MIN_RADIUS)
        assert record.status == STATUS_OK
        assert 0.0 < record.C <= 1.0 + 1e-8, (n, record.C)
        assert record.B_min <= MIN_RADIUS


def test_sweep_rejects_empty_dimension_list():
    with pytest.raises(ValueError):
        sweep([], 0.5, 1.0, 4)


def test_csv_round_trip_and_determinism(tmp_path):
    records = sweep([2], 0.5, 1.0, 3, grid_points=32)
    path = tmp_path / "out.csv"
    write_csv(records, path)
    data = path.read_bytes()
    assert data.decode("ascii").startswith(CSV_HEADER + "\n")
    assert b"\r" not in data
    assert data.endswith(b"\n")

    again = tmp_path / "again.csv"
    write_csv(records, again)
    assert again.read_bytes() == data

    loaded = read_csv(path)
    assert loaded == records


def test_csv_round_trip_keeps_nan_rows(tmp_path, monkeypatch):
    monkeypatch.setattr(constants, "lowest_eigenvalue", _no_root)
    records = sweep([2], 0.5, 1.0, 2)
    path = tmp_path / "failed.csv"
    write_csv(records, path)
    loaded = read_csv(path)
    assert [r.status for r in loaded] == [STATUS_NO_ROOT, STATUS_NO_ROOT]
    assert all(math.isnan(r.C) for r in loaded)
    assert [r.R for r in loaded] == [r.R for r in records]


def test_read_csv_rejects_malformed_input(tmp_path):
    bad_header = tmp_path / "bad1.csv"
    bad_header.write_text("n,R\n2,1.0\n")
    with pytest.raises(ValueError):
        read_csv(bad_header)

    bad_row = tmp_path / "bad2.csv"
    bad_row.write_text(CSV_HEADER + "\n2,1.0\n")
    with pytest.raises(ValueError):
        read_csv(bad_row)


def test_parallel_sweep_matches_serial():
    serial = sweep([2], 0.6, 0.9, 3, grid_points=32, parallel=False)
    parallel = sweep([2], 0.6, 0.9, 3, grid_points=32, parallel=True)
    assert format_records(parallel) == format_records(serial)


def test_format_is_full_precision():
    record = ConstantRecord(
        n=2, R=1.5, Lambda1=4.0, lambda1=2.0, A_min=0.1, B_min=1.4,
        J_min=3.5, C=0.875, C_raw=0.875, status=STATUS_OK,
    )
    text = format_records([record])
    row = text.splitlines()[1]
    assert row.split(",")[1] == "1.5"
    assert row.split(",")[-1] == STATUS_OK
    # a value with a long binary tail survives the round trip
    tricky = ConstantRecord(
        n=3, R=0.1, Lambda1=1 / 3, lambda1=math.sqrt(1 / 3), A_min=0.0,
        B_min=0.1, J_min=1 / 3, C=1.0, C_raw=1.0, status=STATUS_OK,
    )
    line = format_records([tricky]).splitlines()[1]
    assert float(line.split(",")[2]) == 1 / 3


def test_default_grid_sweep_matches_frozen_data_at_exact_endpoints():
    # the 480-point acceptance sweep on the default grid: the frozen C under
    # the acceptance rule, and every minimizer exactly at A = 0 or A = A*
    live = sweep([2, 3, 4, 5], 0.05, 3.0, 120, parallel=False)
    frozen = read_csv(DATA_DIR / "frozen_sweep.csv")
    assert len(live) == len(frozen) == 480
    for got, ref in zip(live, frozen):
        assert (got.n, got.R) == (ref.n, ref.R)
        assert got.status == ref.status == STATUS_OK, (got.n, got.R)
        assert abs(got.C - ref.C) <= 1e-6 * max(1.0, abs(ref.C))
        assert got.A_min == 0.0 or got.A_min == got.B_min, (got.n, got.R)
