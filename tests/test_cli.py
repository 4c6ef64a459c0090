import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import orbitdeform
from orbitdeform.cli import _coord_rows, _fmt, main


def run(args):
    return main(args)


def test_verify_sl2c_passes(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = run(["verify", "--algebra", "sl2c", "--seed", "1", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["all_pass"]
    for entry in report["checks"]:
        assert set(entry) >= {"name", "paper_anchor", "residual", "threshold", "pass"}
        assert entry["pass"]


def test_verify_bad_chamber_is_usage_error(capsys):
    assert run(["verify", "--algebra", "sl2r", "--H", "-1"]) == 2


def test_verify_unknown_algebra_is_usage_error(capsys):
    assert run(["verify", "--algebra", "g2"]) == 2


def test_verify_zero_tolerance_fails(capsys):
    code = run(["verify", "--algebra", "sl2r", "--abs-eps", "0", "--rel-eps", "0"])
    assert code == 1


def test_verify_single_suite(tmp_path, capsys):
    out = tmp_path / "r.json"
    assert run(["verify", "--algebra", "sl2c", "--suite", "symplectic", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    names = {c["name"] for c in report["checks"]}
    assert "omega_alternating" in names and "jacobi" not in names


def _read_rows(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def test_orbit_sample_adjoint_hyperboloid(tmp_path, capsys):
    code = run(["orbit-sample", "--algebra", "sl2r", "--kind", "adjoint",
                "--n-base", "10", "--n-fiber", "5", "--out", str(tmp_path)])
    assert code == 0
    header, rows = _read_rows(tmp_path / "orbit_sl2r_adjoint_r1.csv")
    assert header == ["r", "base_tag", "fiber_tag", "c1", "c2", "c3"]
    assert len(rows) == 50
    for row in rows:
        x, y, z = (float(v) for v in row[3:])
        assert abs(x * x + y * y - z * z - 1.0) < 1e-8


def test_orbit_sample_semidirect_cylinder(tmp_path, capsys):
    assert run(["orbit-sample", "--algebra", "sl2r", "--kind", "semidirect",
                "--n-base", "10", "--n-fiber", "5", "--out", str(tmp_path)]) == 0
    _, rows = _read_rows(tmp_path / "orbit_sl2r_semidirect_rinf.csv")
    for row in rows:
        x, y, _ = (float(v) for v in row[3:])
        assert abs(x * x + y * y - 1.0) < 1e-9


def test_orbit_sample_single_row(tmp_path, capsys):
    assert run(["orbit-sample", "--algebra", "sl2r", "--kind", "adjoint",
                "--n-base", "1", "--n-fiber", "1", "--out", str(tmp_path)]) == 0
    _, rows = _read_rows(tmp_path / "orbit_sl2r_adjoint_r1.csv")
    assert len(rows) == 1


def test_orbit_sample_deterministic(tmp_path, capsys):
    args = ["orbit-sample", "--algebra", "sl3r", "--kind", "deformed", "--r", "2",
            "--seed", "5", "--out", str(tmp_path)]
    assert run(args) == 0
    first = (tmp_path / "orbit_sl3r_deformed_r2.csv").read_bytes()
    assert run(args) == 0
    assert (tmp_path / "orbit_sl3r_deformed_r2.csv").read_bytes() == first


def test_deform_sweep(tmp_path, capsys):
    code = run(["deform-sweep", "--algebra", "sl2r", "--r", "1,10,100",
                "--n-base", "8", "--out", str(tmp_path)])
    assert code == 0
    summary = json.loads((tmp_path / "sweep_sl2r_summary.json").read_text())
    devs = [e["limit_deviation"] for e in summary if "limit_deviation" in e]
    assert devs == sorted(devs, reverse=True)
    assert len(devs) == 3


def test_deform_sweep_rejects_unsorted(tmp_path, capsys):
    assert run(["deform-sweep", "--algebra", "sl2r", "--r", "10,1",
                "--out", str(tmp_path)]) == 2


def test_deform_sweep_dedupes(tmp_path, capsys):
    assert run(["deform-sweep", "--algebra", "sl2r", "--r", "1,1,10",
                "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "sweep_sl2r_summary.json").read_text())
    assert [e["r"] for e in summary] == [1.0, 10.0]


def test_orbit_sample_drops_repeated_r(tmp_path, capsys):
    assert run(["orbit-sample", "--algebra", "sl2r", "--kind", "deformed", "--r", "2,2,2",
                "--n-base", "1", "--n-fiber", "1", "--out", str(tmp_path)]) == 0
    out, err = capsys.readouterr()
    assert out.splitlines() == [str(tmp_path / "orbit_sl2r_deformed_r2.csv")]
    assert err.splitlines() == ["warning: duplicate r=2.0 dropped"]


def test_coord_rows_match_fmt():
    # the one %-format per row must write exactly the characters of _fmt
    rows = np.array([
        [-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300],
        [2.0, -2.0, 0.1, 1 / 3, 2.0 ** -1074, 1.7976931348623157e308],
        [0.30000000000000004, 123456789.12345679, 1e-5, 1e16, 9007199254740993.0, -1e-300],
    ])
    expected = [",".join(_fmt(float(v)) for v in row) for row in rows]
    assert _coord_rows(rows) == expected
    assert _coord_rows(rows.reshape(3, 1, 6)) == expected


def test_lagrangian_section(tmp_path, capsys):
    code = run(["lagrangian-section", "--algebra", "sl2c", "--n-base", "5",
                "--t", "0,1", "--out", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "section_sl2c_report.json").read_text())
    assert all(e["max_omega_residual"] < 1e-6 for e in report)


def test_lagrangian_section_requires_complex(tmp_path, capsys):
    assert run(["lagrangian-section", "--algebra", "sl2r", "--out", str(tmp_path)]) == 2


def test_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("algebra=sl2r\nseed=3\nn-base=2\nn-fiber=2\n")
    assert run(["orbit-sample", "--config", str(cfg), "--kind", "adjoint",
                "--out", str(tmp_path)]) == 0
    _, rows = _read_rows(tmp_path / "orbit_sl2r_adjoint_r1.csv")
    assert len(rows) == 4


def test_config_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("algebra=sl3r\n")
    assert run(["orbit-sample", "--config", str(cfg), "--algebra", "sl2r",
                "--kind", "adjoint", "--n-base", "1", "--n-fiber", "1",
                "--out", str(tmp_path)]) == 0
    assert (tmp_path / "orbit_sl2r_adjoint_r1.csv").exists()


@pytest.mark.parametrize("flag", [["--n-b", "1"], ["--n-b=1"], ["--n-base=1"]])
def test_config_abbreviated_flag_override(tmp_path, capsys, flag):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("algebra=sl2r\nn_base=3\nn_fiber=1\n")
    assert run(["orbit-sample", "--config", str(cfg), *flag, "--out", str(tmp_path)]) == 0
    _, rows = _read_rows(tmp_path / "orbit_sl2r_adjoint_r1.csv")
    assert len(rows) == 1


@pytest.mark.parametrize("line", ["n_bse = 3", "fn = x", "command = x", "n-base = abc", "kind = foo"])
def test_config_rejects_bad_key_or_value(tmp_path, capsys, line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"algebra=sl2r\n{line}\n")
    out = tmp_path / "out"
    out.mkdir()
    assert run(["orbit-sample", "--config", str(cfg), "--out", str(out)]) == 2
    assert "config error:" in capsys.readouterr().err
    assert not list(out.iterdir())


@pytest.mark.parametrize("args", [
    ["verify", "--algebra", "sl2r", "--rel-eps", "inf"],
    ["orbit-sample", "--algebra", "sl2r", "--rel-eps", "inf"],
    ["orbit-sample", "--algebra", "sl2r", "--abs-eps", "nan"],
])
def test_non_finite_tolerance_is_usage_error(tmp_path, capsys, args):
    out = tmp_path / "report.json" if args[0] == "verify" else tmp_path
    assert run(args + ["--out", str(out)]) == 2
    assert "finite" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_orbit_sample_rejects_nan_chamber(tmp_path, capsys):
    assert run(["orbit-sample", "--algebra", "sl2r", "--H", "nan",
                "--out", str(tmp_path)]) == 2
    assert not list(tmp_path.iterdir())


def test_verify_rejects_nan_chamber(capsys):
    assert run(["verify", "--algebra", "sl2r", "--H", "nan"]) == 2


def test_verify_rejects_ignored_chamber(capsys):
    # verify checks the regular element only, so any other --H is refused
    assert run(["verify", "--algebra", "sl2r", "--H", "5"]) == 2


def test_orbit_sample_rejects_negative_count(tmp_path, capsys):
    assert run(["orbit-sample", "--algebra", "sl2r", "--n-base", "-3",
                "--out", str(tmp_path)]) == 2
    assert run(["orbit-sample", "--algebra", "sl2r", "--n-fiber", "0",
                "--out", str(tmp_path)]) == 2
    assert not list(tmp_path.iterdir())


def test_lagrangian_section_rejects_non_finite_t(tmp_path, capsys):
    assert run(["lagrangian-section", "--algebra", "sl2c", "--t", "0,nan",
                "--out", str(tmp_path)]) == 2
    assert not list(tmp_path.iterdir())


def test_deform_sweep_requires_inf_last(tmp_path, capsys):
    assert run(["deform-sweep", "--algebra", "sl2r", "--r", "inf,1",
                "--out", str(tmp_path)]) == 2
    assert not list(tmp_path.iterdir())


def test_orbit_sample_semidirect_rejects_r_list(tmp_path, capsys):
    assert run(["orbit-sample", "--algebra", "sl2r", "--kind", "semidirect",
                "--r", "1,10", "--out", str(tmp_path)]) == 2
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("args", [
    ["verify", "--algebra", "sl2r", "--n-base", "50"],
    ["verify", "--algebra", "sl2r", "--n-fiber", "7"],
    ["lagrangian-section", "--algebra", "sl2c", "--n-fiber", "99"],
])
def test_unread_count_flag_is_usage_error(tmp_path, capsys, args):
    # verify reads neither count and lagrangian-section reads no fiber count
    with pytest.raises(SystemExit) as exc:
        run(args + ["--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_verify_config_rejects_count_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("algebra=sl2r\nn_fiber = 3\n")
    assert run(["verify", "--config", str(cfg), "--out", str(tmp_path / "r.json")]) == 2
    assert "config error:" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("r", ["5", "1"])
def test_orbit_sample_semidirect_rejects_finite_r(tmp_path, capsys, r):
    assert run(["orbit-sample", "--algebra", "sl2r", "--kind", "semidirect",
                "--r", r, "--out", str(tmp_path)]) == 2
    assert not list(tmp_path.iterdir())


def test_orbit_sample_adjoint_rejects_r_list_before_writing(tmp_path, capsys):
    assert run(["orbit-sample", "--algebra", "sl2r", "--kind", "adjoint",
                "--r", "1,2", "--out", str(tmp_path)]) == 2
    assert not list(tmp_path.iterdir())


def test_orbit_sample_semidirect_accepts_r_inf(tmp_path, capsys):
    args = ["orbit-sample", "--algebra", "sl2r", "--kind", "semidirect",
            "--n-base", "2", "--n-fiber", "2", "--out", str(tmp_path)]
    assert run(args + ["--r", "inf"]) == 0
    first = (tmp_path / "orbit_sl2r_semidirect_rinf.csv").read_bytes()
    assert run(args) == 0
    assert (tmp_path / "orbit_sl2r_semidirect_rinf.csv").read_bytes() == first
    assert [p.name for p in tmp_path.iterdir()] == ["orbit_sl2r_semidirect_rinf.csv"]


def test_cli_does_not_import_scipy(tmp_path):
    # scipy.linalg alone costs more start-up than the rest of the CLI; run in
    # a fresh interpreter because this test process may have imported it
    code = f"""
import sys
from orbitdeform.cli import _coord_rows, _fmt, main
out = {str(tmp_path)!r}
assert main(["verify", "--algebra", "sl2c", "--out", out + "/report.json"]) == 0
assert main(["orbit-sample", "--kind", "semidirect", "--algebra", "sl2c",
             "--n-base", "2", "--n-fiber", "2", "--out", out]) == 0
assert main(["deform-sweep", "--algebra", "sl2c", "--n-base", "2", "--n-fiber", "2",
             "--r", "1,inf", "--out", out]) == 0
assert main(["lagrangian-section", "--algebra", "sl2c", "--n-base", "2", "--out", out]) == 0
print(sorted(m for m in sys.modules if m.partition(".")[0] == "scipy"))
"""
    src = str(Path(orbitdeform.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
