"""Command-line surface: verification suites, orbit sampling, r-sweeps
and Lagrangian sections.  All outputs are deterministic given a seed;
files are written atomically (temp + rename).  Every CSV comes from one
writer, _csv: each float field is "%.17g" (r = inf prints as inf), each
integer tag "%d", and the text is streamed in blocks of _BLOCK_ROWS rows.
orbit-sample and deform-sweep share one loop, _push_and_write: every context
first, then the r = 1 sample pushed to one r at a time and written before the
next, so a command holds one pushed batch and one block of text at a time.

Exit codes: 0 all checks pass / output written, 1 check failure,
2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import tempfile
from collections.abc import Iterable, Iterator

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
    if math.isinf(r):
        # only the words mean infinity, not a number that overflows to it
        raise ValueError(f"r = {text.strip()} is out of range; only inf or infinity mean r = inf")
    return r


def _parse_t(text: str) -> float:
    t = float(text)
    if not math.isfinite(t):
        raise DomainError("section parameters --t must be finite")
    return t


def _parse_seed(text: str) -> int:
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, not {text!r}")
    return int(text)


_H_MAX = 1e300  # largest |--H coefficient|: [w, v] overflows at 5e307, the root values at 1e308


def _resolve_h(cd: al.CartanData, h_spec: str) -> np.ndarray:
    if h_spec == "regular" or h_spec.startswith("wall:"):
        h = al.chamber_element(cd.a_basis, cd.roots, cd.simple_set, h_spec)
    else:
        coeffs = np.array([float(x) for x in h_spec.split(",")])
        if coeffs.shape[0] != cd.a_basis.shape[1]:
            raise DomainError(
                f"expected {cd.a_basis.shape[1]} chamber coefficients, got {coeffs.shape[0]}"
            )
        # before any product: inf times a zero entry of a_basis is nan
        if not np.all(np.abs(coeffs) <= _H_MAX):
            raise DomainError(f"--H coefficients must be finite and at most {_H_MAX:g} in size")
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


_BLOCK_ROWS = 256  # CSV rows formatted into one string before it is written


def _atomic_write(path: str, chunks: Iterable[str]):
    """Write the str chunks in order to a temp file beside path, then rename it to path.

    The file gets the mode open(path, "w") would leave: path's permission
    bits if it exists, else 0o666 less the umask.  Any error, one raised
    by a chunk generator partway through included, removes the temp file
    and leaves path untouched.
    """
    if isinstance(chunks, str):
        # iterating a str would write it one character at a time
        raise TypeError("_atomic_write takes an iterable of str chunks, not a str")
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            for chunk in chunks:
                fh.write(chunk)
        umask = os.umask(0)  # the umask is read by setting it; restored at once
        os.umask(umask)
        # mkstemp created tmp 0o600
        os.chmod(tmp, os.stat(path).st_mode & 0o777 if os.path.exists(path) else 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _csv(columns: str, leads: list[float], points: np.ndarray) -> Iterator[str]:
    """The CSV text of a (len(leads), ..., dim) stack: the header line, then
    one string per block of _BLOCK_ROWS rows, lead by lead.

    A row is the lead, one integer tag per middle axis (np.unravel_index of
    the row's place) and the point's coordinates, every float as "%.17g".
    """
    dim, tag_shape = points.shape[-1], points.shape[1:-1]
    yield columns + "".join(f",c{i + 1}" for i in range(dim)) + "\n"
    fields = ",".join(["%d"] * len(tag_shape) + ["%.17g"] * dim)
    for lead, stack in zip(leads, points):
        row = f"{lead:.17g},{fields}\n"
        flat = stack.reshape(-1, dim)
        for start in range(0, flat.shape[0], _BLOCK_ROWS):
            block = flat[start:start + _BLOCK_ROWS]
            tags = np.unravel_index(np.arange(start, start + block.shape[0]), tag_shape)
            fields_by_column = [t.tolist() for t in tags] + block.T.tolist()
            yield "".join([row % values for values in zip(*fields_by_column)])


def _parse_list(text: str, name: str, ascending: bool = False) -> list[float]:
    """The comma-separated values of --r or --t, each once: a repeat is dropped with a warning."""
    values = [{"r": _parse_r, "t": _parse_t}[name](x) for x in text.split(",")]
    if ascending and values != sorted(values):
        raise DomainError(f"{name} list must be sorted ascending, inf last")
    unique = list(dict.fromkeys(values))
    for v in unique:
        if values.count(v) > 1:
            print(f"warning: duplicate {name}={v} dropped", file=sys.stderr)
    return unique


def _build(args) -> tuple[al.CartanData, np.ndarray]:
    """The Cartan data and chamber element of an export command, after its counts are checked."""
    for key in ("n_base", "n_fiber"):
        if vars(args).get(key, 1) < 1:
            raise DomainError(f"--{key.replace('_', '-')} must be at least 1")
    cd = al.cartan_structure(al.build_algebra(*al.parse_descriptor(args.algebra)))
    return cd, _resolve_h(cd, args.H)


def _write_orbit(prefix: str, r: float, points: np.ndarray) -> str:
    path = f"{prefix}_r{r:.17g}.csv"
    _atomic_write(path, _csv("r,base_tag,fiber_tag", [r], points[None]))
    return path


def _push_and_write(args, cd: al.CartanData, h: np.ndarray, r_values: list[float], prefix: str):
    """Sample the orbit once at r = 1 and write its psi~_r image at each r, <prefix>_r<r>.csv,
    each context built before any file, so a bad r is refused first; returns the r = 1
    batch and each r's (context, path)."""
    contexts = [df.make_context(cd, r) for r in r_values]
    base = df.sample_deformed_orbit(df.make_context(cd, 1.0), h,
                                    args.seed, args.n_base, args.n_fiber)
    return base, [(ctx, _write_orbit(prefix, ctx.r, df.tilde_psi_r(ctx, base).points))
                  for ctx in contexts]


def cmd_verify(args) -> int:
    # the tolerance only selects the forced-failure mode; it must still be valid
    tol = Tolerance(args.abs_eps, args.rel_eps)
    cd = al.cartan_structure(al.build_algebra(*al.parse_descriptor(args.algebra)))
    results = checks.run(cd, args.seed, args.suite)
    if not results:
        # an empty report would pass while certifying nothing
        print(f"error: suite {args.suite} has no checks for algebra {args.algebra}",
              file=sys.stderr)
        return 2
    if tol == Tolerance(0.0, 0.0):
        # forced-failure mode: every nonzero residual counts as a failure
        results = [dataclasses.replace(r, threshold=0.0) for r in results]
    report = {
        "algebra": args.algebra,
        "seed": args.seed,
        "checks": [r.as_dict() for r in results],
        "all_pass": all(r.passed for r in results),
    }
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if args.out:
        _atomic_write(args.out, [text])
    else:
        sys.stdout.write(text)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.name}: residual {r.residual:.3e} (threshold {r.threshold:.1e})",
              file=sys.stderr)
    return 0 if report["all_pass"] else 1


def cmd_orbit_sample(args) -> int:
    cd, h = _build(args)
    r_values = _parse_list(args.r if args.r is not None
                           else ("inf" if args.kind == "semidirect" else "1"), "r")
    if args.kind == "semidirect" and r_values != [math.inf]:
        print("semidirect sampling is at r = inf; --r must be inf", file=sys.stderr)
        return 2
    if args.kind == "adjoint" and r_values != [1.0]:
        print("adjoint sampling requires r=1", file=sys.stderr)
        return 2
    prefix = os.path.join(args.out, f"orbit_{args.algebra}_{args.kind}")
    if args.kind == "semidirect":
        batch = sd.sample_semidirect_orbit(cd, h, args.seed, args.n_base, args.n_fiber)
        written = [_write_orbit(prefix, math.inf, batch.points)]
    else:
        written = [path for _, path in _push_and_write(args, cd, h, r_values, prefix)[1]]
    print("\n".join(written))
    return 0


def cmd_deform_sweep(args) -> int:
    cd, h = _build(args)
    r_values = _parse_list(args.r, "r", ascending=True)
    base, pushed = _push_and_write(args, cd, h, r_values,
                                   os.path.join(args.out, f"sweep_{args.algebra}"))
    summary = []
    for ctx, path in pushed:
        entry = {"r": "inf" if math.isinf(ctx.r) else ctx.r, "csv": os.path.basename(path)}
        if ctx.finite:
            entry["limit_deviation"] = df.limit_deviation(ctx, base)
        summary.append(entry)
    spath = os.path.join(args.out, f"sweep_{args.algebra}_summary.json")
    _atomic_write(spath, [json.dumps(summary, indent=2) + "\n"])
    print(spath)
    return 0


def cmd_lagrangian_section(args) -> int:
    t_values = _parse_list(args.t, "t")
    cd, h = _build(args)
    if cd.alg.j_op is None:
        print("Lagrangian sections require a complex-family algebra", file=sys.stderr)
        return 2
    hc = sp.make_hermitian_context(cd)
    flag = al.flag_orbit_sample(cd, h, args.seed, args.n_base)
    t_array = np.array(t_values)
    # a finite t can still be too large for the section's coordinates
    with np.errstate(over="raise", invalid="raise"):
        try:
            sections = sp.lagrangian_section(hc, h, flag, t_array)
            residuals = sp.section_omega_residual(hc, h, flag, t_array)
        except FloatingPointError as exc:
            raise DomainError(f"--t values too large: the section overflows ({exc})") from exc
    report = []
    for t, resid in zip(t_values, residuals.tolist()):
        report.append({"t": t, "max_omega_residual": resid})
        print(f"t={t}: max |Omega| over section tangent pairs = {resid:.3e}", file=sys.stderr)
    path = os.path.join(args.out, f"section_{args.algebra}.csv")
    _atomic_write(path, _csv("t,base_tag", t_values, sections))
    _atomic_write(
        os.path.join(args.out, f"section_{args.algebra}_report.json"),
        [json.dumps(report, indent=2) + "\n"],
    )
    print(path)
    return 0


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--config", help="flat key=value config file; flags override it")
    p.add_argument("--algebra", default="sl2r",
                   help="algebra descriptor: " + ", ".join(al.DESCRIPTORS))
    p.add_argument("--seed", type=_parse_seed, default=0)


def _add_sampling(p: argparse.ArgumentParser, fiber: bool = True):
    """The chamber element and the sample counts, which only the export commands read."""
    p.add_argument("--H", default="regular",
                   help='chamber element: "regular", "wall:k", or comma-separated coefficients')
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
    p.add_argument("--abs-eps", type=float, default=1e-9)
    p.add_argument("--rel-eps", type=float, default=1e-7)
    p.add_argument("--suite", default="all", choices=["all", *checks.SUITES])
    p.add_argument("--out", help="write the JSON report here instead of stdout")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("orbit-sample", help="emit orbit sample CSVs",
                       exit_on_error=exit_on_error)
    _add_common(p)
    _add_sampling(p)
    p.add_argument("--kind", default="adjoint", choices=["semidirect", "adjoint", "deformed"])
    p.add_argument("--r", help='comma-separated r values; "inf" allowed '
                               "(default 1; --kind semidirect is at inf only)")
    p.add_argument("--out", default=".", help="output directory")
    p.set_defaults(fn=cmd_orbit_sample)

    p = sub.add_parser("deform-sweep", help="sample the orbit across an r grid",
                       exit_on_error=exit_on_error)
    _add_common(p)
    _add_sampling(p)
    p.add_argument("--r", default="1,10,100", help="ascending comma-separated r values")
    p.add_argument("--out", default=".", help="output directory")
    p.set_defaults(fn=cmd_deform_sweep)

    p = sub.add_parser("lagrangian-section", help="emit Lagrangian section samples",
                       exit_on_error=exit_on_error)
    _add_common(p)
    _add_sampling(p, fiber=False)
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
