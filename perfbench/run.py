"""Session benchmark of the orbitdeform CLI.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a checkout; the program is imported from ``src/``.
A session runs a workload's commands as real ``orbitdeform`` processes,
one at a time from this process (closed loop, one client).  Sessions
repeat until ``--seconds`` have passed and every command's output is
checked.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
alternates untraced sessions with sessions whose commands run under
``perfbench/tracer.py`` and prints the per-layer metrics.  The last line
of standard output is the JSON result; the line before it records the
environment.  ``--workload all`` runs every workload both ways and
prints one ``workload metric value unit`` line per metric.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

from tracer import LAYERS, MADDS

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 5  # fresh processes timed per run; setup_s is their median
COMMAND_TIMEOUT_S = 90.0
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
OMEGA_BOUND = 1e-6  # criterion 8's bound on the Lagrangian-section residual

N_BASE, N_FIBER = "200", "20"

# name -> (commands, largest algebra).  A command is its CLI arguments
# without --seed and --out; the benchmark seed reaches it only as --seed.
WORKLOADS = {
    "verify-sl3c": ([["verify", "--algebra", "sl3c"]], "sl3c"),
    "verify-small": (
        [["verify", "--algebra", a] for a in ("sl2r", "sl3r", "sl2c", "so3", "so4")],
        "sl3r",
    ),
    "export-sl2c": (
        [
            ["deform-sweep", "--algebra", "sl2c", "--n-base", N_BASE, "--n-fiber", N_FIBER,
             "--r", "1,2,10,100,inf"],
            ["orbit-sample", "--kind", "semidirect", "--algebra", "sl2c", "--n-base", N_BASE,
             "--n-fiber", N_FIBER],
            ["lagrangian-section", "--algebra", "sl2c", "--n-base", N_BASE, "--t", "0,0.5,1,2"],
        ],
        "sl2c",
    ),
}

END_TO_END_UNITS = {
    "wall_s": "s", "setup_s": "s", "items_per_s": "1/s", "peak_rss_mb": "MB",
}


class OutputError(Exception):
    """A command's output broke an invariant the test suite asserts."""


@dataclass
class Session:
    wall_s: float
    items: int = 0
    failed: int = 0
    peak_rss_mb: float = 0.0
    bytes_written: int = 0
    layer: dict = field(default_factory=dict)  # traced sessions only


# ---------------------------------------------------------------- output checks

def _arg(cmd: list[str], flag: str) -> str:
    return cmd[cmd.index(flag) + 1]


def _csv_rows(path: str, expected_rows: int, first_col: float | None = None) -> int:
    """Check a sample CSV: row count, field count and finite coordinates."""
    with open(path) as fh:
        header, *rows = fh.read().splitlines()
    width = len(header.split(","))
    n_tags = 3 if header.startswith("r,") else 2
    if len(rows) != expected_rows:
        raise OutputError(f"{os.path.basename(path)}: {len(rows)} rows, expected {expected_rows}")
    for row in rows:
        parts = row.split(",")
        if len(parts) != width:
            raise OutputError(f"{os.path.basename(path)}: ragged row")
        if first_col is not None and float(parts[0]) != first_col:
            raise OutputError(f"{os.path.basename(path)}: wrong r column {parts[0]}")
        if not all(math.isfinite(float(v)) for v in parts[n_tags:]):
            raise OutputError(f"{os.path.basename(path)}: non-finite coordinate")
    return len(rows)


def _r_tag(r: str) -> str:
    return "inf" if r == "inf" else f"{float(r):.17g}"


def check_output(cmd: list[str], code: int, stdout_path: str, out_dir: str,
                 expected_checks: dict) -> int:
    """Raise OutputError unless the command's output is correct; return its item count."""
    if code != 0:
        raise OutputError(f"exit code {code}")
    kind, algebra = cmd[0], _arg(cmd, "--algebra")
    if kind == "verify":
        with open(stdout_path) as fh:
            report = json.load(fh)
        results = {c["name"]: c["pass"] for c in report["checks"]}
        missing = [n for n in expected_checks[algebra] if not results.get(n, False)]
        if not report["all_pass"] or missing:
            raise OutputError(f"verify {algebra}: failing or missing checks {missing}")
        return len(report["checks"])
    if kind == "deform-sweep":
        rows = int(_arg(cmd, "--n-base")) * int(_arg(cmd, "--n-fiber"))
        r_values = _arg(cmd, "--r").split(",")
        items = sum(_csv_rows(os.path.join(out_dir, f"sweep_{algebra}_r{_r_tag(r)}.csv"),
                              rows, float(r)) for r in r_values)
        with open(os.path.join(out_dir, f"sweep_{algebra}_summary.json")) as fh:
            dev = {float(e["r"]): e.get("limit_deviation") for e in json.load(fh)}
        devs = [dev[r] for r in (2.0, 10.0, 100.0)]
        if not all(d is not None and math.isfinite(d) for d in devs) or not devs[0] > devs[1] > devs[2]:
            raise OutputError(f"deform-sweep: limit_deviation not decreasing: {devs}")
        return items
    if kind == "orbit-sample":
        rows = int(_arg(cmd, "--n-base")) * int(_arg(cmd, "--n-fiber"))
        path = os.path.join(out_dir, f"orbit_{algebra}_{_arg(cmd, '--kind')}_rinf.csv")
        return _csv_rows(path, rows, math.inf)
    if kind == "lagrangian-section":
        t_values = _arg(cmd, "--t").split(",")
        items = _csv_rows(os.path.join(out_dir, f"section_{algebra}.csv"),
                          len(t_values) * int(_arg(cmd, "--n-base")))
        with open(os.path.join(out_dir, f"section_{algebra}_report.json")) as fh:
            residuals = [e["max_omega_residual"] for e in json.load(fh)]
        if len(residuals) != len(t_values) or not all(r < OMEGA_BOUND for r in residuals):
            raise OutputError(f"lagrangian-section: residuals {residuals}")
        return items
    raise OutputError(f"no output check for {kind}")


# ---------------------------------------------------------------- processes

def spawn_wait(argv: list[str], env: dict, stdout_path: str, stderr_path: str
               ) -> tuple[int, float]:
    """Run argv to completion; return (exit code, peak RSS in MB) from wait4."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        proc = subprocess.Popen(argv, env=env, stdout=out, stderr=err, stdin=subprocess.DEVNULL)
    timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def _dir_bytes(path: str) -> int:
    return sum(e.stat().st_size for e in os.scandir(path) if e.is_file())


class Runner:
    def __init__(self, root: str, seed: int):
        self.root = root
        self.seed = seed
        self.work = os.path.join(root, ".bench_out", f"run-{os.getpid()}")
        os.makedirs(self.work, exist_ok=True)
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"]
                                        if self.env.get("PYTHONPATH") else "")
        # one process at a time on one core: BLAS threads would only spin on the other
        for var in BLAS_THREAD_VARS:
            self.env.setdefault(var, "1")
        with open(os.path.join(BENCH_DIR, "expected_checks.json")) as fh:
            self.expected_checks = json.load(fh)

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.work))
        except OSError:
            pass  # another run's directory is still there

    def setup_s(self, algebra: str) -> float:
        """Median spawn-to-exit time of a fresh import + build_algebra + cartan_structure."""
        code = ("import orbitdeform.cli\n"
                "from orbitdeform.algebra import build_algebra, cartan_structure, parse_descriptor\n"
                f"cartan_structure(build_algebra(*parse_descriptor({algebra!r})))\n")
        times = []
        for i in range(SETUP_PROBES):
            out = os.path.join(self.work, f"setup{i}")
            start = time.perf_counter()
            code_rc, _ = spawn_wait([sys.executable, "-c", code], self.env, out + ".out",
                                    out + ".err")
            times.append(time.perf_counter() - start)
            if code_rc != 0:
                with open(out + ".err") as fh:
                    raise RuntimeError(f"set-up probe failed:\n{fh.read()}")
        return statistics.median(times)

    def session(self, commands: list[list[str]], traced: bool) -> Session:
        out_dir = os.path.join(self.work, "out")
        shutil.rmtree(out_dir, ignore_errors=True)
        os.makedirs(out_dir)
        runs = []
        start = time.perf_counter()
        for i, cmd in enumerate(commands):
            argv = cmd + ["--seed", str(self.seed)]
            if cmd[0] != "verify":
                argv += ["--out", out_dir]
            stats = os.path.join(self.work, f"stats{i}.json")
            prefix = ([sys.executable, os.path.join(BENCH_DIR, "tracer.py"), stats, "--"]
                      if traced else [sys.executable, "-m", "orbitdeform.cli"])
            stdout = os.path.join(self.work, f"cmd{i}.out")
            code, rss = spawn_wait(prefix + argv, self.env, stdout, stdout[:-4] + ".err")
            runs.append((cmd, code, stdout, rss, stats))
        s = Session(wall_s=time.perf_counter() - start)
        for cmd, code, stdout, rss, stats in runs:
            s.peak_rss_mb = max(s.peak_rss_mb, rss)
            s.bytes_written += os.path.getsize(stdout)
            try:
                s.items += check_output(cmd, code, stdout, out_dir, self.expected_checks)
            except (OutputError, OSError, ValueError, KeyError) as exc:
                s.failed += 1
                print(f"output check failed: {' '.join(cmd)}: {exc}", file=sys.stderr)
            if traced and os.path.exists(stats):
                with open(stats) as fh:
                    _merge_layer(s.layer, json.load(fh))
        s.bytes_written += _dir_bytes(out_dir)
        return s


# ---------------------------------------------------------------- metrics

def _merge_layer(acc: dict, child: dict):
    """Add one traced process's counts and times into its session's totals."""
    acc["cli.import_s"] = acc.get("cli.import_s", 0.0) + child["import_s"]
    for key, entry in child["stats"].items():
        into = acc.setdefault(key, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "madds": 0})
        for k, v in entry.items():
            into[k] += v


def layer_values(s: Session) -> dict[str, float]:
    """One traced session's per-layer metrics, named <module>.<function>.<stat>."""
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "madds": 0}
    values = {}
    for layer, funcs in LAYERS.items():
        for fn in funcs:
            entry = s.layer.get(f"{layer}.{fn}", empty)
            if layer == "checks":
                values[f"checks.{fn}.s"] = entry["total_s"]
            else:
                values[f"{layer}.{fn}.calls"] = entry["calls"]
                values[f"{layer}.{fn}.self_s"] = entry["self_s"]
    values["cli.import_s"] = s.layer.get("cli.import_s", 0.0)
    values["cli.main.self_s"] = s.layer.get("cli.main", empty)["self_s"]
    values["cli.bytes_written"] = s.bytes_written
    for key in MADDS:
        values[f"{key}.madds"] = s.layer.get(key, empty)["madds"]
    return values


def layer_unit(name: str) -> str:
    for suffix, unit in ((".calls", "count"), (".madds", "madd_computed"), ("_s", "s"),
                         (".s", "s"), ("_written", "bytes"), ("_ratio", "ratio")):
        if name.endswith(suffix):
            return unit
    raise KeyError(name)


def end_to_end(sessions: list[Session], setup_s: float) -> dict:
    return {
        "wall_s": statistics.median(s.wall_s for s in sessions),
        "setup_s": setup_s,
        "items_per_s": statistics.median(s.items / s.wall_s for s in sessions),
        "peak_rss_mb": max(s.peak_rss_mb for s in sessions),
    }


def per_layer(plain: list[Session], traced: list[Session], attempted: int, failed: int) -> dict:
    per_session = [layer_values(s) for s in traced]
    values = {k: statistics.median(v[k] for v in per_session) for k in per_session[0]}
    values["trace.overhead_ratio"] = (statistics.median(s.wall_s for s in traced)
                                      / statistics.median(s.wall_s for s in plain))
    values["failed_ratio"] = failed / attempted
    return values


def environment(args, runner: Runner) -> dict:
    import numpy  # noqa: PLC0415  (kept out of the CLI processes' timings)
    import scipy  # noqa: PLC0415

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       cpu)
    except OSError:
        pass
    blas = {mod.__name__: _blas_config(mod) for mod in (numpy, scipy)}
    try:
        # a checkout that is not a git repository reports "unknown"; git may not look above it
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.getcwd()))
        commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                                env=env, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": commit, "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": blas,
        "thread_env": {v: runner.env.get(v) for v in BLAS_THREAD_VARS},
    }


def _blas_config(mod) -> str:
    """The BLAS a package was built against, as its own build configuration reports it."""
    try:
        blas = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "unknown"
    return blas.get("openblas configuration") or f"{blas.get('name')} {blas.get('version')}"


# ---------------------------------------------------------------- runs

def run_workload(runner: Runner, name: str, seconds: float, trace: int) -> dict:
    commands, largest = WORKLOADS[name]
    plain, traced = [], []
    attempted = failed = 0
    setup_s = runner.setup_s(largest) if trace == 0 else None
    start = time.perf_counter()
    while not plain or time.perf_counter() - start < seconds:
        s = runner.session(commands, traced=False)
        plain.append(s)
        attempted, failed = attempted + len(commands), failed + s.failed
        if trace:
            s = runner.session(commands, traced=True)
            traced.append(s)
            attempted, failed = attempted + len(commands), failed + s.failed
    metrics = (per_layer(plain, traced, attempted, failed) if trace
               else end_to_end(plain, setup_s))
    units = {k: layer_unit(k) for k in metrics} if trace else END_TO_END_UNITS
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "session_wall_s": {"plain": [s.wall_s for s in plain],
                           "traced": [s.wall_s for s in traced]},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "orbitdeform", "cli.py")):
        print("error: run from a checkout root; src/orbitdeform/cli.py not found",
              file=sys.stderr)
        return 2
    runner = Runner(root, args.seed)
    try:
        if args.workload == "all":
            ok = True
            for name in WORKLOADS:
                for trace in (0, 1):
                    res = run_workload(runner, name, args.seconds, trace)
                    ok = ok and res["correct"]
                    for metric, m in res["metrics"].items():
                        print(f"{name} {metric} {m['value']:.6g} {m['unit']}")
                    print(f"{name} correct={res['correct']} attempted={res['attempted']} "
                          f"failed={res['failed']}", flush=True)
            return 0 if ok else 1
        res = run_workload(runner, args.workload, args.seconds, args.trace)
    finally:
        runner.close()
    print(json.dumps({"env": environment(args, runner), "session_wall_s": res.pop("session_wall_s")}))
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
