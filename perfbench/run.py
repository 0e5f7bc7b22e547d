"""alignsig benchmark: one workload, a closed loop of fresh CLI processes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; the package is taken from the
checkout's `src/`. Inputs are generated from the seed before timing starts.
Then one client runs `python3 -m alignsig.cli ...` back to back, each
invocation a fresh process, for about S seconds, and checks every
invocation's outputs.

With --trace 0 the last stdout line reports the end-to-end metrics (medians
over invocations): wall_s, cpu_s, peak_rss_mb and setup_s, the time a fresh
interpreter takes to import `alignsig.cli`. With --trace 1 the loop alternates
an untraced invocation with a traced one (perfbench/traced_cli.py) and the
last line reports the per-layer metrics of perfbench/spans.py instead.
Failed invocations (non-zero exit or a failed output check) are counted in
`failed` of the same line; error rate = failed / attempted.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from typing import List, Optional

from spans import METRICS as LAYER_METRICS
from spans import layer_metrics
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
PYTHON = sys.executable
SPAWN = Path(__file__).with_name("spawn.py")
# Fresh-interpreter imports per run for setup_s; the median is reported.
SETUP_REPEATS = 3
# No invocation may run past this many seconds after the benchmark starts.
HARD_LIMIT_S = 170.0
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


@dataclass
class Invocation:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int
    stdout: str


class Runner:
    """Starts measured processes, through spawn.py, with the checkout's package on the path."""

    def __init__(self, workdir: Path, started: float):
        self.workdir = workdir
        self.started = started
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        extra = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + extra if extra else "")

    def run(self, cmd: List[str]) -> Invocation:
        """Run `cmd` to completion through spawn.py and return its measurements."""
        timeout = max(1.0, HARD_LIMIT_S - (time.perf_counter() - self.started))
        out_path, result_path = self.workdir / "stdout.txt", self.workdir / "result.json"
        result_path.unlink(missing_ok=True)
        wrapper = subprocess.Popen(
            [PYTHON, str(SPAWN), str(result_path), str(timeout), str(out_path),
             str(self.workdir / "stderr.txt"), "--", *cmd],
            env=self.env, cwd=self.workdir)
        try:
            wrapper.wait()
        finally:
            if wrapper.returncode is None:
                wrapper.terminate()
                wrapper.wait()
        if wrapper.returncode != 0:
            raise SystemExit(f"spawn.py failed with exit code {wrapper.returncode}")
        result = json.loads(result_path.read_text("utf-8"))
        return Invocation(stdout=out_path.read_text("utf-8", errors="replace"), **result)


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def git_commit() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def environment(args) -> dict:
    def version(dist: str) -> Optional[str]:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "click": version("click"),
        "blas_env": {name: os.environ.get(name) for name in BLAS_ENV},
        "commit": git_commit(),
        "src_sha256": source_digest(),
    }


def measure_setup(runner: Runner) -> List[float]:
    """Wall times of fresh interpreters importing alignsig.cli from the checkout."""
    probe = [PYTHON, "-c", "import alignsig.cli as c; print(c.__file__)"]
    times = []
    for _ in range(SETUP_REPEATS):
        inv = runner.run(probe)
        where = Path(inv.stdout.strip() or ".").resolve()
        if inv.exit_code != 0 or ROOT / "src" not in where.parents:
            raise SystemExit(f"alignsig.cli does not import from {ROOT / 'src'}: "
                             f"exit {inv.exit_code}, {inv.stdout.strip()!r}")
        times.append(inv.wall_s)
    return times


def summarize(name: str, unit: str, values: List[float]) -> str:
    return (f"{name:28s} median {statistics.median(values):.6g} {unit}  "
            f"n={len(values)} min {min(values):.6g} max {max(values):.6g}")


@dataclass
class Measurement:
    plain: List[Invocation] = field(default_factory=list)
    traced: List[Invocation] = field(default_factory=list)
    layers: List[dict] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)


def measure(prepared, runner: Runner, args) -> Measurement:
    """Closed loop of invocations for about `args.seconds`, checking each one.

    A round is one untraced invocation, followed with --trace 1 by a traced one.
    """
    out = Measurement()
    spans_path = runner.workdir / "spans.json"
    plain_cmd = [PYTHON, "-m", "alignsig.cli", *prepared.argv]
    loop_start = time.perf_counter()
    while True:
        for is_traced in ((False, True) if args.trace else (False,)):
            for path in prepared.outputs + [spans_path]:
                path.unlink(missing_ok=True)
            run_id = f"{args.workload}-{args.seed}-{len(out.plain) + len(out.traced)}"
            cmd = plain_cmd
            if is_traced:
                cmd = [PYTHON, str(Path(__file__).with_name("traced_cli.py")),
                       str(spans_path), run_id, "--", *prepared.argv]
            inv = runner.run(cmd)
            problem = f"exit code {inv.exit_code}" if inv.exit_code else None
            if problem is None:
                try:
                    problem = prepared.check(inv.stdout)
                except (OSError, ValueError, KeyError, TypeError) as exc:
                    problem = f"output check raised {exc!r}"
            if problem:
                out.failures.append(f"{run_id}: {problem}")
                print(f"FAILED {run_id}: {problem}", file=sys.stderr)
            (out.traced if is_traced else out.plain).append(inv)
            if is_traced and spans_path.exists():
                out.layers.append(layer_metrics(json.loads(spans_path.read_text("utf-8"))))
        # Start another round only if it should end within half a round of the
        # deadline, so that a run measures about --seconds in all.
        elapsed = time.perf_counter() - loop_start
        per_round = elapsed / len(out.plain)
        if (elapsed + per_round / 2 > args.seconds
                or time.perf_counter() - runner.started + 2 * per_round > HARD_LIMIT_S):
            return out


def per_layer_metrics(m: Measurement) -> dict:
    """Medians over the traced invocations, plus the tracing overhead."""
    metrics = {}
    for name, unit in LAYER_METRICS.items():
        if not name.startswith("trace."):
            values = [layer[name] for layer in m.layers] or [0.0]
            metrics[name] = {"value": statistics.median(values), "unit": unit}
    traced_wall = statistics.median([i.wall_s for i in m.traced])
    plain_wall = statistics.median([i.wall_s for i in m.plain])
    metrics["trace.wall_s"] = {"value": traced_wall, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": traced_wall - plain_wall, "unit": "s"}
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()
    if not (ROOT / "src" / "alignsig" / "cli.py").is_file():
        print(f"error: no alignsig sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # Turn SIGTERM into SystemExit so that a running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    workdir = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        print("env " + json.dumps(environment(args), sort_keys=True))
        prepared = WORKLOADS[args.workload](args.seed, workdir, ROOT)
        runner = Runner(workdir, started)
        setup = measure_setup(runner)
        m = measure(prepared, runner, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    samples = {
        "wall_s": [i.wall_s for i in m.plain],
        "cpu_s": [i.cpu_s for i in m.plain],
        "peak_rss_mb": [i.peak_rss_mb for i in m.plain],
        "setup_s": setup,
    }
    for name, values in samples.items():
        print(summarize(name, END_TO_END[name], values))
    if args.trace:
        metrics = per_layer_metrics(m)
        for name, value in metrics.items():
            print(f"{name:28s} {value['value']:.6g} {value['unit']}")
    else:
        metrics = {name: {"value": statistics.median(values), "unit": END_TO_END[name]}
                   for name, values in samples.items()}
    attempted = len(m.plain) + len(m.traced)
    print(f"error_rate {len(m.failures)}/{attempted}")
    print(json.dumps({"correct": not m.failures, "attempted": attempted,
                      "failed": len(m.failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
