"""Run one orbitdeform CLI command in-process with every layer function timed.

Usage: python3 perfbench/tracer.py STATS_JSON -- <orbitdeform arguments>

The command runs through ``orbitdeform.cli.main(argv)``.  Before the call,
each function named in ``LAYERS`` is replaced by a timing wrapper, in its
defining module and in every ``orbitdeform`` module that bound the same
object at import (``from .numerics import matrix_exp`` and the like);
``LieAlgebraData`` methods are wrapped on the class.  The program's own
files are not modified.  The per-function counts and times are written
to STATS_JSON and the process exits with the command's exit code.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# Traced functions by orbitdeform module; a dotted name is a class method.
LAYERS = {
    "numerics": ["matrix_exp", "nullspace", "orthonormal_range", "simultaneous_eigenspaces"],
    "algebra": [
        "build_algebra", "cartan_structure", "LieAlgebraData.bracket", "LieAlgebraData.ad",
        "sample_k_operators", "h_subspaces", "flag_orbit_sample",
    ],
    "deformation": [
        "make_context", "bracket_r", "ad_r", "sample_deformed_orbit", "tilde_psi_r",
        "limit_deviation",
    ],
    "semidirect": [
        "sample_semidirect_orbit", "orbit_tangent_at", "coadjoint_fiber", "semidirect_bracket",
        "phi_cotangent",
    ],
    "symplectic": [
        "make_hermitian_context", "orbit_tangent_basis", "fiber_tangent_at",
        "check_symplectic_on_orbit", "gradient_at", "lagrangian_section",
        "section_omega_residual",
    ],
    "checks": [
        "numerics_suite", "algebra_suite", "deformation_suite", "semidirect_suite",
        "symplectic_suite",
    ],
}


def _make_context_madds(cd, r, *_, **__):
    # the unoptimised four-operand einsum visits every (i, j, k, a, b, c)
    return cd.alg.dim ** 6 if r != float("inf") else 0


def _bracket_madds(alg, *_, **__):
    return alg.dim ** 3  # "i,j,ijk->k"


# Multiply-adds computed from operand shapes, not counted by the program.
MADDS = {
    "deformation.make_context": _make_context_madds,
    "algebra.LieAlgebraData.bracket": _bracket_madds,
}


class Tracer:
    """Per-function call counts, inclusive and self time, and computed madds."""

    def __init__(self):
        self.stats: dict[str, dict[str, float]] = {}
        self._child_time = [0.0]  # time spent in traced callees, one slot per open span

    def wrap(self, key: str, fn):
        entry = self.stats.setdefault(key, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "madds": 0})
        madds = MADDS.get(key)
        child_time = self._child_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            child_time.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span = time.perf_counter() - start
                entry["calls"] += 1
                entry["total_s"] += span
                entry["self_s"] += span - child_time.pop()
                child_time[-1] += span
                if madds is not None:
                    entry["madds"] += madds(*args, **kwargs)

        return traced

    def install(self):
        """Wrap every LAYERS function at each place a module bound it."""
        pkg = {name: mod for name, mod in sys.modules.items()
               if name == "orbitdeform" or name.startswith("orbitdeform.")}
        for layer, names in LAYERS.items():
            module = pkg[f"orbitdeform.{layer}"]
            for name in names:
                key = f"{layer}.{name}"
                if "." in name:
                    cls_name, meth = name.split(".")
                    cls = getattr(module, cls_name)
                    setattr(cls, meth, self.wrap(key, getattr(cls, meth)))
                    continue
                original = getattr(module, name)
                wrapped = self.wrap(key, original)
                for mod in pkg.values():
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapped)


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    stats_path, cli_argv = argv[0], argv[2:]
    start = time.perf_counter()
    import orbitdeform.cli as cli  # noqa: PLC0415  (timed on purpose)

    import_s = time.perf_counter() - start
    tracer = Tracer()
    tracer.install()
    run = tracer.wrap("cli.main", cli.main)
    try:
        code = run(cli_argv)
    finally:
        with open(stats_path, "w") as fh:
            json.dump({"import_s": import_s, "stats": tracer.stats}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
