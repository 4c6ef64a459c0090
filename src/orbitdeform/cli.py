"""Command-line surface: verification suites, orbit sampling, r-sweeps
and Lagrangian sections.  All outputs are deterministic given a seed;
files are written atomically (temp + rename).

Exit codes: 0 all checks pass / output written, 1 check failure,
2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import algebra as al
from . import checks
from . import deformation as df
from . import semidirect as sd
from . import symplectic as sp
from .algebra import ConfigurationError, DomainError
from .numerics import Tolerance


def _parse_r(text: str) -> float:
    if text.strip().lower() in ("inf", "infinity"):
        return math.inf
    r = float(text)
    if not r > 0:
        raise ValueError("r must be positive")
    return r


def _resolve_h(cd: al.CartanData, h_spec: str) -> np.ndarray:
    if h_spec == "regular" or h_spec.startswith("wall:"):
        h = al.chamber_element(cd.a_basis, cd.roots, cd.simple_set, h_spec)
    else:
        coeffs = np.array([float(x) for x in h_spec.split(",")])
        if coeffs.shape[0] != cd.a_basis.shape[1]:
            raise DomainError(
                f"expected {cd.a_basis.shape[1]} chamber coefficients, got {coeffs.shape[0]}"
            )
        h = cd.a_basis @ coeffs
    cd.check_chamber(h)
    return h


def _load_config(path: str) -> dict:
    cfg = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"malformed config line: {line!r}")
            key, value = line.split("=", 1)
            cfg[key.strip().replace("-", "_")] = value.strip()
    return cfg


def _atomic_write(path: str, text: str):
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _coord_rows(points: np.ndarray) -> list[str]:
    """Each point's coordinates as one CSV row of "%.17g" fields: the characters of _fmt."""
    flat = points.reshape(-1, points.shape[-1])
    row = ",".join(["%.17g"] * flat.shape[1])
    return [row % tuple(p) for p in flat.tolist()]


def _sample_csv(batch: al.OrbitBatch, r: float) -> str:
    n_fiber, dim = batch.points.shape[1:]
    header = "r,base_tag,fiber_tag," + ",".join(f"c{i+1}" for i in range(dim))
    r_text = _fmt(r)
    rows = [f"{r_text},{i // n_fiber},{i % n_fiber},{coords}"
            for i, coords in enumerate(_coord_rows(batch.points))]
    return "\n".join([header, *rows]) + "\n"


def _parse_r_list(text: str, ascending: bool = False) -> list[float]:
    """The comma-separated r values, each once: a repeat is dropped with a warning."""
    values = [_parse_r(x) for x in text.split(",")]
    if ascending and values != sorted(values):
        raise DomainError("r list must be sorted ascending, inf last")
    unique = list(dict.fromkeys(values))
    for r in unique:
        if values.count(r) > 1:
            print(f"warning: duplicate r={r} dropped", file=sys.stderr)
    return unique


def _r_tag(r: float) -> str:
    return "inf" if math.isinf(r) else _fmt(r)


def _build(args) -> tuple[al.LieAlgebraData, al.CartanData, np.ndarray]:
    for key in ("n_base", "n_fiber"):
        if vars(args).get(key, 1) < 1:
            raise DomainError(f"--{key.replace('_', '-')} must be at least 1")
    family, n = al.parse_descriptor(args.algebra)
    alg = al.build_algebra(family, n)
    cd = al.cartan_structure(alg, Tolerance(args.abs_eps, args.rel_eps))
    h = _resolve_h(cd, args.H)
    return alg, cd, h


def cmd_verify(args) -> int:
    suites = {
        "numerics": lambda cd: checks.numerics_suite(args.seed),
        "algebra": lambda cd: checks.algebra_suite(cd, args.seed),
        "deformation": lambda cd: checks.deformation_suite(cd, args.seed) if cd.roots else [],
        "semidirect": lambda cd: checks.semidirect_suite(cd, args.seed) if cd.roots else [],
        "symplectic": lambda cd: checks.symplectic_suite(cd, args.seed),
    }
    if args.H != "regular":
        print("verify checks the regular chamber element only; --H must be 'regular'",
              file=sys.stderr)
        return 2
    _, cd, _ = _build(args)
    results = []
    for name, fn in suites.items():
        if args.suite in ("all", name):
            results += fn(cd)
    if args.abs_eps == 0.0 and args.rel_eps == 0.0:
        # forced-failure mode: every nonzero residual counts as a failure
        results = [
            checks.CheckResult(r.name, r.paper_anchor, r.residual, 0.0) for r in results
        ]
    report = {
        "algebra": args.algebra,
        "seed": args.seed,
        "checks": [r.as_dict() for r in results],
        "all_pass": all(r.passed for r in results),
    }
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if args.out:
        _atomic_write(args.out, text)
    else:
        sys.stdout.write(text)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.name}: residual {r.residual:.3e} (threshold {r.threshold:.1e})",
              file=sys.stderr)
    return 0 if report["all_pass"] else 1


def cmd_orbit_sample(args) -> int:
    _, cd, h = _build(args)
    r_values = _parse_r_list(args.r if args.r is not None
                             else ("inf" if args.kind == "semidirect" else "1"))
    if args.kind == "semidirect" and r_values != [math.inf]:
        print("semidirect sampling is at r = inf; --r must be inf", file=sys.stderr)
        return 2
    if args.kind == "adjoint" and r_values != [1.0]:
        print("adjoint sampling requires r=1", file=sys.stderr)
        return 2
    if args.kind == "semidirect":
        batches = {math.inf: sd.sample_semidirect_orbit(cd, h, args.seed, args.n_base,
                                                        args.n_fiber)}
    else:
        # one sampling at r = 1, pushed to each r by psi~_r
        base = df.sample_deformed_orbit(df.make_context(cd, 1.0), h,
                                        args.seed, args.n_base, args.n_fiber)
        batches = {r: df.tilde_psi_r(df.make_context(cd, r), base) for r in r_values}
    written = []
    for r, batch in batches.items():
        path = os.path.join(args.out, f"orbit_{args.algebra}_{args.kind}_r{_r_tag(r)}.csv")
        _atomic_write(path, _sample_csv(batch, r))
        written.append(path)
    print("\n".join(written))
    return 0


def cmd_deform_sweep(args) -> int:
    _, cd, h = _build(args)
    r_values = _parse_r_list(args.r, ascending=True)
    # one sampling at r = 1, pushed to each r by psi~_r; the limit deviation
    # is read off the same batch
    base = df.sample_deformed_orbit(df.make_context(cd, 1.0), h,
                                    args.seed, args.n_base, args.n_fiber)
    summary = []
    for r in r_values:
        ctx = df.make_context(cd, r)
        path = os.path.join(args.out, f"sweep_{args.algebra}_r{_r_tag(r)}.csv")
        _atomic_write(path, _sample_csv(df.tilde_psi_r(ctx, base), r))
        entry = {"r": "inf" if math.isinf(r) else r, "csv": os.path.basename(path)}
        if math.isfinite(r):
            entry["limit_deviation"] = df.limit_deviation(ctx, base)
        summary.append(entry)
    spath = os.path.join(args.out, f"sweep_{args.algebra}_summary.json")
    _atomic_write(spath, json.dumps(summary, indent=2) + "\n")
    print(spath)
    return 0


def cmd_lagrangian_section(args) -> int:
    t_values = [float(x) for x in args.t.split(",")]
    if not all(math.isfinite(t) for t in t_values):
        raise DomainError("section parameters --t must be finite")
    _, cd, h = _build(args)
    if cd.alg.field_tag != "complex":
        print("Lagrangian sections require a complex-family algebra", file=sys.stderr)
        return 2
    hc = sp.make_hermitian_context(cd)
    flag = al.flag_orbit_sample(cd, h, args.seed, args.n_base)
    dim = cd.alg.dim
    lines = ["t,base_tag," + ",".join(f"c{i+1}" for i in range(dim))]
    report = []
    for t in t_values:
        sec = sp.lagrangian_section(hc, h, flag, t)
        t_text = _fmt(t)
        lines += [f"{t_text},{tag},{coords}"
                  for tag, coords in enumerate(_coord_rows(sec.section_points))]
        resid = sp.section_omega_residual(hc, h, flag, t)
        report.append({"t": t, "max_omega_residual": resid})
        print(f"t={t}: max |Omega| over section tangent pairs = {resid:.3e}", file=sys.stderr)
    path = os.path.join(args.out, f"section_{args.algebra}.csv")
    _atomic_write(path, "\n".join(lines) + "\n")
    _atomic_write(
        os.path.join(args.out, f"section_{args.algebra}_report.json"),
        json.dumps(report, indent=2) + "\n",
    )
    print(path)
    return 0


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--config", help="flat key=value config file; flags override it")
    p.add_argument("--algebra", default="sl2r",
                   help="algebra descriptor: " + ", ".join(al.DESCRIPTORS))
    p.add_argument("--H", default="regular",
                   help='chamber element: "regular", "wall:k", or comma-separated coefficients')
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--abs-eps", type=float, default=1e-9)
    p.add_argument("--rel-eps", type=float, default=1e-7)


def _add_counts(p: argparse.ArgumentParser, fiber: bool = True):
    p.add_argument("--n-base", type=int, default=10, help="base points on the compact orbit")
    if fiber:
        p.add_argument("--n-fiber", type=int, default=5, help="fiber points per base point")


def build_parser(exit_on_error: bool = True) -> argparse.ArgumentParser:
    """The CLI parser; with exit_on_error=False a bad value raises argparse.ArgumentError."""
    parser = argparse.ArgumentParser(
        prog="orbitdeform",
        description="Deformations of adjoint orbits: verification and sampling tools.",
        exit_on_error=exit_on_error,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the identity verification suites",
                       exit_on_error=exit_on_error)
    _add_common(p)
    p.add_argument("--suite", default="all",
                   choices=["all", "numerics", "algebra", "deformation", "semidirect", "symplectic"])
    p.add_argument("--out", help="write the JSON report here instead of stdout")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("orbit-sample", help="emit orbit sample CSVs",
                       exit_on_error=exit_on_error)
    _add_common(p)
    _add_counts(p)
    p.add_argument("--kind", default="adjoint", choices=["semidirect", "adjoint", "deformed"])
    p.add_argument("--r", help='comma-separated r values; "inf" allowed '
                               "(default 1; --kind semidirect is at inf only)")
    p.add_argument("--out", default=".", help="output directory")
    p.set_defaults(fn=cmd_orbit_sample)

    p = sub.add_parser("deform-sweep", help="sample the orbit across an r grid",
                       exit_on_error=exit_on_error)
    _add_common(p)
    _add_counts(p)
    p.add_argument("--r", default="1,10,100", help="ascending comma-separated r values")
    p.add_argument("--out", default=".", help="output directory")
    p.set_defaults(fn=cmd_deform_sweep)

    p = sub.add_parser("lagrangian-section", help="emit Lagrangian section samples",
                       exit_on_error=exit_on_error)
    _add_common(p)
    _add_counts(p, fiber=False)
    p.add_argument("--t", default="0,0.5,1,2", help="comma-separated section parameters")
    p.add_argument("--out", default=".", help="output directory")
    p.set_defaults(fn=cmd_lagrangian_section)
    return parser


def _with_config(args, argv: list[str]) -> argparse.Namespace:
    """Parse argv again with the config file's lines as flags after the subcommand.

    The config flags pass argparse's type and choices checks, and every flag
    the user gave, abbreviated or not, comes after them and wins.  Raises
    ValueError for a key that is not an option, argparse.ArgumentError for a
    bad value.
    """
    options = set(vars(args)) - {"command", "fn", "config"}
    flags = []
    for key, value in _load_config(args.config).items():
        if key not in options:
            raise ValueError(f"{key!r} is not an option of {args.command}")
        flags.append(f"--{key.replace('_', '-')}={value}")
    at = argv.index(args.command) + 1
    return build_parser(exit_on_error=False).parse_args([*argv[:at], *flags, *argv[at:]])


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    if args.config:
        try:
            args = _with_config(args, argv)
        except (OSError, ValueError, argparse.ArgumentError) as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
    try:
        return args.fn(args)
    except (ConfigurationError, DomainError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
