"""Command-line surface: verification suites, orbit sampling, r-sweeps
and Lagrangian sections.  All outputs are deterministic given a seed;
a command's files are one set, written by one _write_files call.  Every CSV
comes from one writer, _csv: each float field is "%.17g" (r = inf prints as
inf), each integer tag "%d", and the text is streamed in blocks of
_BLOCK_ROWS rows.  orbit-sample and deform-sweep share _sweep_files, whose
r = 1 sample is pushed to each r only as that r's file is written, so a
command holds one pushed batch and one block of text at a time.

Exit codes: 0 all checks pass / output written, 1 check failure,
2 usage or configuration error.  Commands raise, and main alone maps an
error, a count too large to allocate included, to 2 and one "error:" line.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
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
from .algebra import DomainError


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


def _write_files(files: list[tuple[str, Iterable[str]]]):
    """Write each (path, str chunks) to a temp file beside path, file after file, then rename all.

    Each file gets the mode open(path, "w") would leave: path's permission
    bits if it exists, else 0o666 less the umask.  An existing directory at a
    path is refused first.  Any error before the renames, a chunk generator's
    or a later file's included, removes every temp file and leaves every path
    untouched; a failed mkstemp or rename names the path given.
    """
    for path, chunks in files:
        if isinstance(chunks, str):
            # iterating a str would write it one character at a time
            raise TypeError("_write_files takes iterables of str chunks, not a str")
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    umask = os.umask(0)  # the umask is read by setting it; restored at once
    os.umask(umask)
    temps = []
    try:
        for path, chunks in files:
            try:
                fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), suffix=".tmp")
            except OSError as exc:
                # name the path asked for, not the random temp name mkstemp tried
                raise OSError(exc.errno, exc.strerror, path) from None
            temps.append(tmp)
            with os.fdopen(fd, "w") as fh:
                for chunk in chunks:
                    fh.write(chunk)
            # mkstemp created tmp 0o600
            os.chmod(tmp, os.stat(path).st_mode & 0o777 if os.path.exists(path) else 0o666 & ~umask)
        for (path, _), tmp in zip(files, temps):
            try:
                os.replace(tmp, path)
            except OSError as exc:
                # as for mkstemp: name the path asked for, not the temp file
                raise OSError(exc.errno, exc.strerror, path) from None
    except BaseException:
        for tmp in temps:
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
    return cd, al.chamber_element(cd, args.H)


def _sweep_files(args, cd: al.CartanData, h: np.ndarray, r_values: list[float], prefix: str):
    """The r = 1 batch, each r's context and each r's (<prefix>_r<r>.csv, text).

    Every context is built before the sample, so a bad r is refused first.
    A text pushes the batch to its r only when first read, so the files
    written one after another hold one pushed batch at a time."""
    contexts = [df.make_context(cd, r) for r in r_values]
    base = df.sample_deformed_orbit(cd, h, args.seed, args.n_base, args.n_fiber)

    def text(ctx: df.DeformationContext) -> Iterator[str]:
        yield from _csv("r,base_tag,fiber_tag", [ctx.r], df.tilde_psi_r(ctx, base).points[None])

    return base, contexts, [(f"{prefix}_r{ctx.r:.17g}.csv", text(ctx)) for ctx in contexts]


def cmd_verify(args) -> int:
    # the tolerances only select the forced-failure mode; they must still be valid
    if not all(0 <= eps < math.inf for eps in (args.abs_eps, args.rel_eps)):
        raise ValueError("tolerances must be finite and nonnegative")
    cd = al.cartan_structure(al.build_algebra(*al.parse_descriptor(args.algebra)))
    results = checks.run(cd, al.chamber_element(cd, "regular"), args.seed, args.suite)
    if not results:
        # an empty report would pass while certifying nothing
        raise DomainError(f"suite {args.suite} has no checks for algebra {args.algebra}")
    if args.abs_eps == args.rel_eps == 0:
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
        _write_files([(args.out, [text])])
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
        raise DomainError("semidirect sampling is at r = inf; --r must be inf")
    if args.kind == "adjoint" and r_values != [1.0]:
        raise DomainError("adjoint sampling requires r=1")
    prefix = os.path.join(args.out, f"orbit_{args.algebra}_{args.kind}")
    if args.kind == "semidirect":
        batch = sd.sample_semidirect_orbit(cd, h, args.seed, args.n_base, args.n_fiber)
        files = [(f"{prefix}_rinf.csv", _csv("r,base_tag,fiber_tag", [math.inf], batch.points[None]))]
    else:
        files = _sweep_files(args, cd, h, r_values, prefix)[2]
    _write_files(files)
    print("\n".join(path for path, _ in files))
    return 0


def cmd_deform_sweep(args) -> int:
    cd, h = _build(args)
    r_values = _parse_list(args.r, "r", ascending=True)
    base, contexts, files = _sweep_files(args, cd, h, r_values,
                                         os.path.join(args.out, f"sweep_{args.algebra}"))
    summary = []
    for ctx, (path, _) in zip(contexts, files):
        entry = {"r": "inf" if math.isinf(ctx.r) else ctx.r, "csv": os.path.basename(path)}
        if ctx.finite:
            entry["limit_deviation"] = df.limit_deviation(ctx, base)
        summary.append(entry)
    spath = os.path.join(args.out, f"sweep_{args.algebra}_summary.json")
    _write_files([*files, (spath, [json.dumps(summary, indent=2) + "\n"])])
    print(spath)
    return 0


def cmd_lagrangian_section(args) -> int:
    t_values = _parse_list(args.t, "t")
    cd, h = _build(args)
    if cd.alg.j_op is None:
        raise DomainError("Lagrangian sections require a complex-family algebra")
    hc = sp.make_hermitian_context(cd)
    flag = al.flag_orbit_sample(cd, h, args.seed, args.n_base)
    # a finite t can still be too large for the section's coordinates
    with np.errstate(over="raise", invalid="raise"):
        try:
            sections, residuals = sp.lagrangian_section(hc, h, flag, np.array(t_values))
        except FloatingPointError as exc:
            raise DomainError(f"--t values too large: the section overflows ({exc})") from exc
    path = os.path.join(args.out, f"section_{args.algebra}.csv")
    report = [{"t": t, "max_omega_residual": r} for t, r in zip(t_values, residuals.tolist())]
    _write_files([(path, _csv("t,base_tag", t_values, sections)),
                  (os.path.join(args.out, f"section_{args.algebra}_report.json"),
                   [json.dumps(report, indent=2) + "\n"])])
    # the residual lines follow the write, so a failed write shows its error alone
    for t, r in zip(t_values, residuals.tolist()):
        print(f"t={t}: max |Omega(u, v)| over unit section tangents u, v = {r:.3e}", file=sys.stderr)
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
    p.add_argument("--t", default="0,0.5,1,2", help="comma-separated section parameters; a list "
                                                     "starting with a negative value is written --t=-0.5,1")
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
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
