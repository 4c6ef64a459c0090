import argparse
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import orbitdeform
from orbitdeform import algebra as al
from orbitdeform import deformation as df
from orbitdeform.algebra import DESCRIPTORS
from orbitdeform.cli import (
    _BLOCK_ROWS,
    _csv,
    _parse_list,
    _write_files,
    build_parser,
    main,
)
from conftest import cartan


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


EXPECTED_CHECKS = Path(__file__).resolve().parent.parent / "perfbench" / "expected_checks.json"


@pytest.mark.parametrize("algebra", sorted(DESCRIPTORS))
def test_verify_held_out_seed_passes(algebra, tmp_path, capsys):
    # every descriptor at the three reference seeds: exit 0, every check passes, and
    # every check name the benchmark expects is reported
    expected = json.loads(EXPECTED_CHECKS.read_text())[algebra]
    out = tmp_path / "report.json"
    for seed in ("1", "7", "4242"):
        assert run(["verify", "--algebra", algebra, "--seed", seed, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["all_pass"] and all(entry["pass"] for entry in report["checks"])
        assert set(expected) <= {entry["name"] for entry in report["checks"]}


def test_verify_builds_one_algebra(tmp_path, capsys, monkeypatch):
    # every suite reads the caller's Cartan data; the numerics suite built its own sl(3,R)
    calls = {"build_algebra": 0, "cartan_structure": 0}

    def counted(name):
        original = getattr(al, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(al, name, counted(name))
    assert run(["verify", "--algebra", "sl3c", "--seed", "1", "--out", str(tmp_path / "v.json")]) == 0
    assert calls == {"build_algebra": 1, "cartan_structure": 1}


def test_verify_unknown_algebra_is_usage_error(capsys):
    assert run(["verify", "--algebra", "g2"]) == 2


@pytest.mark.parametrize("algebra", sorted(DESCRIPTORS))
def test_verify_zero_tolerance_fails(algebra, capsys):
    # forced-failure mode: every nonzero residual fails, and exact structure data
    # keep the Cartan set-up itself from tripping over a zero tolerance; -0 is 0
    for abs_eps in ("0", "-0"):
        code = run(["verify", "--algebra", algebra, "--abs-eps", abs_eps, "--rel-eps", "0"])
        assert code == 1
        assert "error:" not in capsys.readouterr().err


def test_verify_other_tolerance_changes_nothing(tmp_path, capsys):
    # the tolerance flags only select the forced-failure mode at 0, 0
    default, other = tmp_path / "default.json", tmp_path / "other.json"
    assert run(["verify", "--algebra", "sl2r", "--out", str(default)]) == 0
    assert run(["verify", "--algebra", "sl2r", "--abs-eps", "1e-3", "--rel-eps", "0.5",
                "--out", str(other)]) == 0
    assert other.read_bytes() == default.read_bytes()


def test_verify_single_suite(tmp_path, capsys):
    out = tmp_path / "r.json"
    assert run(["verify", "--algebra", "sl2c", "--suite", "symplectic", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    names = {c["name"] for c in report["checks"]}
    assert "omega_alternating" in names and "jacobi" not in names


EMPTY_SUITES = [("sl2r", "symplectic"), ("sl3r", "symplectic")] + [
    (algebra, suite) for algebra in ("so3", "so4")
    for suite in ("deformation", "semidirect", "symplectic")
]


@pytest.mark.parametrize("algebra,suite", EMPTY_SUITES)
def test_verify_empty_suite_is_usage_error(algebra, suite, tmp_path, capsys):
    # a report with no checks certifies nothing, so it must not exit 0
    assert run(["verify", "--algebra", algebra, "--suite", suite]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"error: suite {suite} has no checks for algebra {algebra}" in err
    path = tmp_path / "r.json"
    assert run(["verify", "--algebra", algebra, "--suite", suite, "--out", str(path)]) == 2
    assert not path.exists()


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


@pytest.mark.parametrize("r_list", ["1", "1,2,10,100,inf"])
def test_deform_sweep_conjugates_once_per_sample(tmp_path, capsys, monkeypatch, r_list):
    # sample_deformed_orbit conjugates H and the fibers, one stacked call each;
    # psi~_r and the limit deviation read the stored Ad(k)X at every r
    calls = []
    conjugate = al.LieAlgebraData.conjugate

    def counted(self, g, x):
        calls.append(g.shape)
        return conjugate(self, g, x)

    monkeypatch.setattr(al.LieAlgebraData, "conjugate", counted)
    assert run(["deform-sweep", "--algebra", "sl3c", "--r", r_list, "--n-base", "4",
                "--n-fiber", "3", "--out", str(tmp_path)]) == 0
    assert len(calls) == 2, calls


@pytest.mark.parametrize("algebra", ["sl3r", "sl2c"])
def test_deform_sweep_files_match_orbit_sample(tmp_path, capsys, algebra):
    # one r = 1 sampling pushed by psi~_r: the sweep's CSVs at r = 1, 2 and inf
    # are the adjoint and deformed orbit-sample files at the same seed and counts
    counts = ["--algebra", algebra, "--seed", "4242", "--n-base", "7", "--n-fiber", "3"]
    sweep, sample = tmp_path / "sweep", tmp_path / "sample"
    sweep.mkdir()
    sample.mkdir()
    assert run(["deform-sweep", *counts, "--r", "1,2,10,100,inf", "--out", str(sweep)]) == 0
    assert run(["orbit-sample", *counts, "--kind", "adjoint", "--out", str(sample)]) == 0
    assert run(["orbit-sample", *counts, "--kind", "deformed", "--r", "2,inf",
                "--out", str(sample)]) == 0
    for r_tag, kind in (("1", "adjoint"), ("2", "deformed"), ("inf", "deformed")):
        swept = (sweep / f"sweep_{algebra}_r{r_tag}.csv").read_bytes()
        assert swept == (sample / f"orbit_{algebra}_{kind}_r{r_tag}.csv").read_bytes(), r_tag


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


def test_csv_fields_match_format_spec():
    # the one %-format per row must write exactly the characters of f"{v:.17g}"
    rows = np.array([
        [-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300],
        [2.0, -2.0, 0.1, 1 / 3, 2.0 ** -1074, 1.7976931348623157e308],
        [0.30000000000000004, 123456789.12345679, 1e-5, 1e16, 9007199254740993.0, -1e-300],
    ])
    coords = [",".join(f"{float(v):.17g}" for v in row) for row in rows]
    header = ",c1,c2,c3,c4,c5,c6\n"
    assert "".join(_csv("t,tag", [-0.0], rows[None])) == "t,tag" + header + "".join(
        f"-0,{i},{c}\n" for i, c in enumerate(coords))
    assert "".join(_csv("r,b,f", [math.inf], rows.reshape(1, 3, 1, 6))) == (
        "r,b,f" + header + "".join(f"inf,{i},0,{c}\n" for i, c in enumerate(coords)))


def _grid(n_rows):
    """(n_base, n_fiber) with n_base * n_fiber = n_rows and, where a divisor allows,
    n_fiber not dividing _BLOCK_ROWS, so a base point's rows straddle two blocks."""
    n_fiber = next(f for f in (3, 5, 7, n_rows) if n_rows % f == 0)
    return n_rows // n_fiber, n_fiber


@pytest.mark.parametrize("n_rows", [1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1,
                                    2 * _BLOCK_ROWS + 3])
def test_sample_csv_blocks_join_to_reference(n_rows):
    # the streamed chunks are the header and one string per block, and joined
    # they are the one-string file: "%.17g" fields, tags, \n line ends
    n_base, n_fiber = _grid(n_rows)
    rng = np.random.default_rng(n_rows)
    points = rng.standard_normal((n_base, n_fiber, 6)) * 10.0 ** rng.integers(-300, 300, 6)
    for r in (2.0, math.inf):
        chunks = list(_csv("r,base_tag,fiber_tag", [r], points[None]))
        lines = ["r,base_tag,fiber_tag,c1,c2,c3,c4,c5,c6"] + [
            ",".join([f"{r:.17g}", str(b), str(f), *(f"{float(v):.17g}" for v in points[b, f])])
            for b in range(n_base) for f in range(n_fiber)
        ]
        assert "".join(chunks) == "\n".join(lines) + "\n"
        assert len(chunks) == 1 + -(-n_rows // _BLOCK_ROWS)
        assert all(chunk.count("\n") <= _BLOCK_ROWS for chunk in chunks)
    assert lines[1].startswith("inf,0,0,")


def test_section_csv_blocks_join_to_reference():
    n = 2 * _BLOCK_ROWS + 3
    t_values = [-0.0, 0.5, 1e-300]
    sections = np.random.default_rng(2).standard_normal((len(t_values), n, 6))
    chunks = list(_csv("t,base_tag", t_values, sections))
    lines = ["t,base_tag,c1,c2,c3,c4,c5,c6"] + [
        ",".join([f"{t:.17g}", str(tag), *(f"{float(v):.17g}" for v in sections[i, tag])])
        for i, t in enumerate(t_values) for tag in range(n)
    ]
    assert "".join(chunks) == "\n".join(lines) + "\n"
    assert len(chunks) == 1 + len(t_values) * -(-n // _BLOCK_ROWS)
    assert lines[1].startswith("-0,0,")


def _failing_chunks():
    yield "a,b\n"
    yield "1,2\n"
    raise RuntimeError("generator failed")


@pytest.mark.parametrize("existing", [True, False])
def test_atomic_write_failing_generator_keeps_target(tmp_path, existing):
    target = tmp_path / "out.csv"
    if existing:
        target.write_text("old\n")
    with pytest.raises(RuntimeError, match="generator failed"):
        _write_files([(str(target), _failing_chunks())])
    assert [p.name for p in tmp_path.iterdir()] == (["out.csv"] if existing else [])
    if existing:
        assert target.read_text() == "old\n"


def test_atomic_write_rejects_bare_str(tmp_path):
    # a str is an iterable of characters; it is refused, not written char by char
    with pytest.raises(TypeError):
        _write_files([(str(tmp_path / "out.json"), "{}\n")])
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
def test_atomic_write_new_file_mode_follows_umask(tmp_path, umask, mode):
    # the mode open(path, "w") would leave, not the temp file's 0o600
    old = os.umask(umask)
    try:
        _write_files([(str(tmp_path / "out.csv"), ["a\n"])])
    finally:
        os.umask(old)
    assert (tmp_path / "out.csv").stat().st_mode & 0o777 == mode


def test_atomic_write_keeps_existing_mode(tmp_path):
    target = tmp_path / "out.csv"
    target.write_text("old\n")
    target.chmod(0o640)
    _write_files([(str(target), ["new\n"])])
    assert target.stat().st_mode & 0o777 == 0o640
    assert target.read_text() == "new\n"


def test_export_memory_bounded_by_block(tmp_path):
    # writing a 2e4-row sl2c CSV holds one block of text, not the file's 9 MB
    cd = cartan("sl2c")
    batch = df.sample_deformed_orbit(cd, al.chamber_element(cd, "regular"),
                                     1, 1000, 20)
    tracemalloc.start()
    try:
        _write_files([(str(tmp_path / "sweep.csv"),
                       _csv("r,base_tag,fiber_tag", [1.0], batch.points[None]))])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (tmp_path / "sweep.csv").read_text().count("\n") == 1 + 20000
    assert peak < 1_000_000, peak


def test_orbit_sample_memory_holds_one_pushed_batch(tmp_path, capsys):
    # orbit-sample pushes and writes one r at a time: beyond the sampling's own
    # peak it holds about one pushed batch and one block, not all five batches
    cd = cartan("sl2c")
    tracemalloc.start()
    try:
        batch = df.sample_deformed_orbit(cd, al.chamber_element(cd, "regular"),
                                         1, 1000, 20)
        sampled_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        del batch
        assert run(["orbit-sample", "--algebra", "sl2c", "--kind", "deformed",
                    "--r", "1,2,10,100,inf", "--n-base", "1000", "--n-fiber", "20",
                    "--seed", "1", "--out", str(tmp_path)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    pushed = 1000 * 20 * cd.alg.dim * 8
    assert len(list(tmp_path.iterdir())) == 5
    assert peak < sampled_peak + pushed + 1_000_000, (peak, sampled_peak, pushed)


def test_lagrangian_section(tmp_path, capsys):
    code = run(["lagrangian-section", "--algebra", "sl2c", "--n-base", "5",
                "--t", "0,1", "--out", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "section_sl2c_report.json").read_text())
    assert all(e["max_omega_residual"] < 1e-6 for e in report)


def test_lagrangian_section_drops_repeated_t(tmp_path, capsys):
    # a repeated t is written and reported once, like a repeated r
    assert run(["lagrangian-section", "--algebra", "sl2c", "--n-base", "2",
                "--t", "0,0,1", "--out", str(tmp_path)]) == 0
    err = capsys.readouterr().err.splitlines()
    assert err[0] == "warning: duplicate t=0.0 dropped"
    assert sum(line.startswith("t=0.0:") for line in err) == 1
    rows = (tmp_path / "section_sl2c.csv").read_text().splitlines()[1:]
    assert [row.split(",")[:2] for row in rows] == [["0", "0"], ["0", "1"], ["1", "0"], ["1", "1"]]
    report = json.loads((tmp_path / "section_sl2c_report.json").read_text())
    assert [e["t"] for e in report] == [0.0, 1.0]


def test_lagrangian_section_requires_complex(tmp_path, capsys):
    assert run(["lagrangian-section", "--algebra", "sl2r", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        "error: Lagrangian sections require a complex-family algebra\n")


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


@pytest.mark.parametrize("line", ["n_bse = 3", "fn = x", "command = x", "n-base = abc",
                                  "kind = foo", "abs_eps = 0.1"])
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
] + [["verify", "--algebra", "sl2r", flag, value]
     for flag in ("--abs-eps", "--rel-eps") for value in ("nan", "inf", "-1")
     if (flag, value) != ("--rel-eps", "inf")])
def test_non_finite_tolerance_is_usage_error(tmp_path, capsys, args):
    # cmd_verify checks both flags, each finite and nonnegative, before any work
    assert run(args + ["--out", str(tmp_path / "report.json")]) == 2
    assert "finite" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_orbit_sample_rejects_nan_chamber(tmp_path, capsys):
    assert run(["orbit-sample", "--algebra", "sl2r", "--H", "nan",
                "--out", str(tmp_path)]) == 2
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("value", ["inf", "-inf", "1e308"])
@pytest.mark.parametrize("command", [["orbit-sample"], ["deform-sweep"],
                                     ["lagrangian-section", "--algebra", "sl2c"]])
def test_non_finite_or_overflowing_chamber_is_usage_error(tmp_path, capsys, command, value):
    # refused before any product: inf times a zero entry of a_basis was nan, and
    # 1e308 overflowed in the root values and the ad rows, each a RuntimeWarning
    assert run([*command, f"--H={value}", "--out", str(tmp_path)]) == 2
    assert "--H" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("args,code", [
    (["orbit-sample", "--algebra", "sl2r", "--H", "1e-10"], 2),
    (["deform-sweep", "--algebra", "sl3c", "--H", "2e-10,1e-10"], 2),
    (["orbit-sample", "--algebra", "sl2r", "--H", "0"], 0),
    (["deform-sweep", "--algebra", "sl3c", "--H", "1,0.500000005", "--r", "1,2,inf"], 0),
], ids=["sl2r-1e-10", "sl3c-2e-10,1e-10", "sl2r-0", "sl3c-near-wall"])
def test_chamber_element_resolution(tmp_path, capsys, args, code):
    # a nonzero H whose root values are all zero by the one rule cannot be resolved: it
    # exited 0 with every fiber collapsed.  H = 0 is the zero orbit.  A root value of 1e-8
    # beside 1.5 is a wall, whose root space h_subspaces counts in z_H
    assert run([*args, "--out", str(tmp_path)]) == code
    if code == 2:
        assert "too small to resolve" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command", [["orbit-sample", "--kind", "deformed", "--r", "1e-320"],
                                     ["deform-sweep", "--r", "1e-320,1,inf"],
                                     ["orbit-sample", "--kind", "deformed", "--r", "2,1e-320"]])
def test_r_too_small_to_invert_is_usage_error(tmp_path, capsys, command):
    # 1/r overflows, so T_r^-1 has no finite value: refused before any file is
    # written, also after an r that orbit-sample would push and write first
    assert run([*command, "--algebra", "sl2r", "--out", str(tmp_path)]) == 2
    assert "too small" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command", [["orbit-sample", "--kind", "deformed", "--r", "1e400"],
                                     ["orbit-sample", "--kind", "semidirect", "--r", "1e400"],
                                     ["deform-sweep", "--r", "1,1e400"],
                                     ["deform-sweep", "--r", "1,+inf"]])
def test_r_overflowing_to_inf_is_usage_error(tmp_path, capsys, command):
    # only inf or infinity mean r = inf; 1e400 was read as inf and written as sweep_*_rinf.csv
    assert run([*command, "--algebra", "sl2r", "--out", str(tmp_path)]) == 2
    assert "only inf or infinity" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_negative_seed_is_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run(["orbit-sample", "--algebra", "sl2r", "--seed", "-1", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "argument --seed: must be a non-negative integer" in capsys.readouterr().err
    cfg = tmp_path / "run.cfg"
    cfg.write_text("algebra=sl2r\nseed=-1\n")
    out = tmp_path / "out"
    out.mkdir()
    assert run(["orbit-sample", "--config", str(cfg), "--out", str(out)]) == 2
    assert "config error: argument --seed" in capsys.readouterr().err
    assert not list(out.iterdir())


@pytest.mark.parametrize("algebra", ["so3", "so4"])
@pytest.mark.parametrize("spec", ["wall:0", "wall:99", "wall:x"])
def test_orbit_sample_rejects_wall_without_simple_roots(tmp_path, capsys, algebra, spec):
    # so(n) has no simple roots, so no wall index is in range and none is ignored
    assert run(["orbit-sample", "--algebra", algebra, "--H", spec,
                "--out", str(tmp_path)]) == 2
    assert not list(tmp_path.iterdir())


@settings(derandomize=True, deadline=None, database=None)
@given(descriptor=st.sampled_from(sorted(DESCRIPTORS)), k=st.integers(-3, 6))
def test_resolve_h_wall_index_property(descriptor, k):
    # "wall:k" is refused exactly when k is not the index of a simple root
    cd = cartan(descriptor)
    if 0 <= k < len(cd.simple_set):
        h = al.chamber_element(cd, f"wall:{k}")
        assert abs(cd.root_values(h)[cd.simple_set[k]]) < 1e-12
    else:
        with pytest.raises(al.DomainError):
            al.chamber_element(cd, f"wall:{k}")


@settings(derandomize=True, deadline=None, database=None)
@given(values=st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=5))
def test_parse_r_list_property(values):
    # the list is refused exactly when some value is not > 0; otherwise each value is kept once
    text = ",".join(repr(v) for v in values)
    if all(v > 0 for v in values):
        assert _parse_list(text, "r") == list(dict.fromkeys(values))
    else:
        with pytest.raises(ValueError):
            _parse_list(text, "r")


def test_orbit_sample_rejects_negative_count(tmp_path, capsys):
    assert run(["orbit-sample", "--algebra", "sl2r", "--n-base", "-3",
                "--out", str(tmp_path)]) == 2
    assert run(["orbit-sample", "--algebra", "sl2r", "--n-fiber", "0",
                "--out", str(tmp_path)]) == 2
    assert not list(tmp_path.iterdir())


@settings(derandomize=True, deadline=None, database=None, max_examples=25)
@given(command=st.sampled_from(["orbit-sample", "deform-sweep"]),
       flag=st.sampled_from(["--n-base", "--n-fiber"]), value=st.integers(max_value=4))
def test_count_validator_property(command, flag, value):
    # a count is refused, with nothing written, exactly when it is < 1
    with tempfile.TemporaryDirectory() as out:
        code = run([command, "--algebra", "sl2r", f"{flag}={value}", "--out", out])
        assert (code, bool(os.listdir(out))) == ((2, False) if value < 1 else (0, True))


@settings(derandomize=True, deadline=None, database=None, max_examples=25)
@given(t_values=st.lists(
    st.sampled_from([math.nan, math.inf, -math.inf, sys.float_info.max]) | st.floats(),
    min_size=1, max_size=3))
@example(t_values=[1e307, 0.5])
@example(t_values=[-sys.float_info.max])
def test_section_t_validator_property(t_values):
    # a non-finite t is refused with nothing written; moderate finite t are
    # accepted; a finite t so large that the section overflows is refused too,
    # never a crash, and nothing is written
    with tempfile.TemporaryDirectory() as out:
        code = run(["lagrangian-section", "--algebra", "sl2c", "--n-base", "2",
                    "--t=" + ",".join(repr(t) for t in t_values), "--out", out])
        written = sorted(os.listdir(out))
    if not all(math.isfinite(t) for t in t_values):
        assert (code, written) == (2, [])
    elif all(abs(t) <= 1e300 for t in t_values):
        assert (code, written) == (0, ["section_sl2c.csv", "section_sl2c_report.json"])
    else:
        assert (code, written) in ((0, ["section_sl2c.csv", "section_sl2c_report.json"]),
                                   (2, []))


def test_lagrangian_section_rejects_non_finite_t(tmp_path, capsys):
    assert run(["lagrangian-section", "--algebra", "sl2c", "--t", "0,nan",
                "--out", str(tmp_path)]) == 2
    assert not list(tmp_path.iterdir())


def test_lagrangian_section_rejects_overflowing_t(tmp_path, capsys):
    # finite, but the section's coordinates overflow: a usage error, not a crash
    assert run(["lagrangian-section", "--algebra", "sl2c", "--n-base", "2",
                f"--t=0,{sys.float_info.max!r}", "--out", str(tmp_path)]) == 2
    assert "--t values too large" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_deform_sweep_requires_inf_last(tmp_path, capsys):
    assert run(["deform-sweep", "--algebra", "sl2r", "--r", "inf,1",
                "--out", str(tmp_path)]) == 2
    assert not list(tmp_path.iterdir())


def test_orbit_sample_semidirect_rejects_r_list(tmp_path, capsys):
    assert run(["orbit-sample", "--algebra", "sl2r", "--kind", "semidirect",
                "--r", "1,10", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "error: semidirect sampling is at r = inf; --r must be inf\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("args", [
    ["verify", "--algebra", "sl2r", "--n-base", "50"],
    ["verify", "--algebra", "sl2r", "--n-fiber", "7"],
    ["lagrangian-section", "--algebra", "sl2c", "--n-fiber", "99"],
    ["orbit-sample", "--algebra", "sl2r", "--rel-eps", "inf"],
    ["orbit-sample", "--algebra", "sl2r", "--abs-eps", "nan"],
    ["deform-sweep", "--algebra", "sl2r", "--abs-eps", "0"],
    ["lagrangian-section", "--algebra", "sl2c", "--rel-eps", "0"],
    ["verify", "--algebra", "sl2r", "--H", "-1"],
    ["verify", "--algebra", "sl2r", "--H", "nan"],
    ["verify", "--algebra", "sl2r", "--H", "5"],
    ["verify", "--algebra", "sl2r", "--H", "regular"],
])
def test_unread_count_flag_is_usage_error(tmp_path, capsys, args):
    # a flag is an option only where its value is read: verify reads neither
    # count nor a chamber element, lagrangian-section reads no fiber count, and
    # only verify reads the tolerances (its forced-failure mode)
    with pytest.raises(SystemExit) as exc:
        run(args + ["--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def _python(*argv):
    # a fresh interpreter on this checkout's src: its modules and its stderr, a traceback included
    src = str(Path(orbitdeform.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True,
                          timeout=120)


@pytest.mark.parametrize("command", [["orbit-sample", "--algebra", "sl2r", "--n-base"],
                                     ["deform-sweep", "--algebra", "sl2r", "--n-fiber"],
                                     ["lagrangian-section", "--algebra", "sl2c", "--n-base"]])
def test_unallocatable_count_is_usage_error(tmp_path, command):
    # 10^14 samples ask numpy for PiBs, which it refuses before allocating: one
    # "error:" line and exit 2, where a traceback and exit 1 read as a failed
    # check.  The request is past a 47-bit address space, so no overcommit
    # policy grants it; a count that fits in virtual memory but not in RAM
    # would meet the OOM killer, not MemoryError
    proc = _python("-m", "orbitdeform.cli", *command, str(10**14), "--out", str(tmp_path))
    assert proc.returncode == 2
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("error: Unable to allocate")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command,target", [
    (["verify", "--algebra", "sl2r", "--suite", "numerics"], "r.json"),
    (["orbit-sample", "--algebra", "sl2r"], ""),
    (["deform-sweep", "--algebra", "sl2r"], ""),
    (["lagrangian-section", "--algebra", "sl2c", "--n-base", "2"], ""),
])
def test_missing_out_directory_is_named(tmp_path, capsys, command, target):
    # the error names the path the user gave, not the random temp file beside it,
    # and it is the only stderr line: lagrangian-section reports its residuals
    # only after both files are written
    missing = tmp_path / "missing"
    assert run([*command, "--out", str(missing / target)]) == 2
    [err] = capsys.readouterr().err.splitlines()
    assert err.startswith("error: [Errno 2] No such file or directory: ")
    assert str(missing) in err and ".tmp" not in err
    assert not missing.exists()


def test_failed_rename_is_named(tmp_path, capsys):
    # --out an existing directory: it is refused before any temp file is written,
    # and the one error line names the path given; no temp is left
    target = tmp_path / "d"
    target.mkdir()
    assert run(["verify", "--algebra", "sl2r", "--suite", "numerics", "--out", str(target)]) == 2
    [err] = capsys.readouterr().err.splitlines()
    assert err == f"error: [Errno 21] Is a directory: {str(target)!r}"
    assert list(tmp_path.iterdir()) == [target] and not any(target.iterdir())


@pytest.mark.parametrize("command,blocker", [
    (["lagrangian-section", "--algebra", "sl2c", "--n-base", "2"], "section_sl2c_report.json"),
    (["deform-sweep", "--algebra", "sl2r"], "sweep_sl2r_summary.json"),
])
def test_blocked_report_leaves_no_csv(tmp_path, capsys, command, blocker):
    # a command's files are one set: when its report cannot be written, no CSV is either
    (tmp_path / blocker).mkdir()
    assert run([*command, "--out", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: [Errno 21] Is a directory: {str(tmp_path / blocker)!r}"]
    assert [p.name for p in tmp_path.iterdir()] == [blocker]
    assert not any((tmp_path / blocker).iterdir())


def _second_fails():
    yield "new\n"
    raise RuntimeError("second file failed")


def test_write_files_failing_second_file_keeps_both(tmp_path):
    # the first file is complete before the second's generator raises; neither target moves
    first, second = tmp_path / "a.csv", tmp_path / "b.json"
    first.write_text("old a\n")
    second.write_text("old b\n")
    with pytest.raises(RuntimeError, match="second file failed"):
        _write_files([(str(first), ["new a\n"]), (str(second), _second_fails())])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.csv", "b.json"]
    assert first.read_text() == "old a\n" and second.read_text() == "old b\n"


def test_verify_config_rejects_count_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("algebra=sl2r\nn_fiber = 3\n")
    assert run(["verify", "--config", str(cfg), "--out", str(tmp_path / "r.json")]) == 2
    assert "config error:" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def test_verify_config_rejects_chamber_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("algebra=sl2r\nH = regular\n")
    assert run(["verify", "--config", str(cfg), "--out", str(tmp_path / "r.json")]) == 2
    assert "config error:" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def _option_sets():
    # each subcommand's options as build_parser builds them, by destination
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {name: {a.dest for a in p._actions} - {"help"} for name, p in sub.choices.items()}


def test_subcommand_option_sets():
    # a flag is offered only where its value is read; the tolerances select
    # verify's forced-failure mode and are nowhere else
    common = {"config", "algebra", "seed", "out"}
    assert _option_sets() == {
        "verify": common | {"abs_eps", "rel_eps", "suite"},
        "orbit-sample": common | {"H", "n_base", "n_fiber", "kind", "r"},
        "deform-sweep": common | {"H", "n_base", "n_fiber", "r"},
        "lagrangian-section": common | {"H", "n_base", "t"},
    }


@pytest.mark.parametrize("r", ["5", "1"])
def test_orbit_sample_semidirect_rejects_finite_r(tmp_path, capsys, r):
    assert run(["orbit-sample", "--algebra", "sl2r", "--kind", "semidirect",
                "--r", r, "--out", str(tmp_path)]) == 2
    assert not list(tmp_path.iterdir())


def test_orbit_sample_adjoint_rejects_r_list_before_writing(tmp_path, capsys):
    assert run(["orbit-sample", "--algebra", "sl2r", "--kind", "adjoint",
                "--r", "1,2", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "error: adjoint sampling requires r=1\n"
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
from orbitdeform.cli import _csv, main
out = {str(tmp_path)!r}
assert main(["verify", "--algebra", "sl2c", "--out", out + "/report.json"]) == 0
assert main(["orbit-sample", "--kind", "semidirect", "--algebra", "sl2c",
             "--n-base", "2", "--n-fiber", "2", "--out", out]) == 0
assert main(["deform-sweep", "--algebra", "sl2c", "--n-base", "2", "--n-fiber", "2",
             "--r", "1,inf", "--out", out]) == 0
assert main(["lagrangian-section", "--algebra", "sl2c", "--n-base", "2", "--out", out]) == 0
print(sorted(m for m in sys.modules if m.partition(".")[0] == "scipy"))
"""
    proc = _python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
