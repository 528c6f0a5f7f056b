"""qhm benchmark: time to verdict on three seeded workloads.

Run from the repository root:

    python3 perfbench/run.py --workload adjudicate --seed 0 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
package is imported from ``src/`` next to this directory; without it the run
exits with code 2.  Scratch files go to ``.perfbench_out/``.
"""
from __future__ import annotations

import argparse
import contextlib
import importlib.metadata
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import spans
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
FINGERPRINT = HERE / "fingerprint.json"

MIN_PASSES = 3        # a median needs at least three passes
SETUP_PER_ROUND = 2   # fresh processes timed for setup_s after each pass
CLI_PER_ROUND = 4     # cold command-line runs timed for cli_cold_s after each pass
TAIL_PER_ROUND = 300  # small probe jobs for job_s.p90 where a pass has < 100 jobs
TOL_PER_ROUND = 3     # tolerance ladders timed for tol_s after each pass
PROBE_STEPS = max(SETUP_PER_ROUND, CLI_PER_ROUND, TOL_PER_ROUND)
CHILD_TIMEOUT_S = 150

UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "job_s.p50": "s",
    "job_s.p90": "s",
    "tol_s": "s",
    "cli_cold_s": "s",
    "peak_rss_mb": "MB",
}

COUNTERS = (
    "import_s",
    "jobs.serialize_report.bytes",
    "models.build_swanson_bf.out_bytes",
    "models.build_swanson_jr.out_bytes",
    "models.hamiltonian.distinct_ratio",
    "verify.spectrum.kept_ratio",
    "trace.wall_s",
    "trace.overhead_s",
    "trace.coverage",
    "baseline.threads1.wall_s",
)
PER_LAYER = tuple(
    f"{name}.{key}" for name in spans.SPAN_NAMES for key in ("self_s", "calls", "errors")
) + COUNTERS


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--threads", type=int, default=len(os.sched_getaffinity(0)),
                        help="BLAS threads (default: the CPUs this process may use)")
    parser.add_argument("--child", choices=("setup", "pass", "tol"), help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def child_env(threads: int) -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    env["PYTHONPATH"] = str(SRC)
    return env


def environment(args) -> dict:
    import numpy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


class Runner:
    """Runs generated jobs through parse_config -> run_job -> serialize_report
    and counts attempted and failed jobs."""

    def __init__(self, seed: int, out_dir: Path):
        import qhm
        import qhm.jobs

        self.jobs = qhm.jobs
        self.expected_errors = (qhm.jobs.ConfigError, qhm.NumericGuardError)
        self.seed = seed
        self.out_dir = out_dir
        out_dir.mkdir(parents=True, exist_ok=True)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.stored = {}
        self.measured = {}
        if seed == wl.DEFAULT_SEED and FINGERPRINT.exists():
            self.stored = json.loads(FINGERPRINT.read_text())

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        self.failed += bool(problems)
        self.failures += problems

    def run(self, job: wl.Job, tracer=None, fingerprint_of: str | None = None):
        """Latency and report of one job; checks its outcome and, when
        ``fingerprint_of`` names a workload, its default-seed fingerprint."""
        if tracer is not None:
            tracer.job = job.job_id
        doc = error = None
        t0 = time.perf_counter()
        try:
            doc = self.jobs.run_job(self.jobs.parse_config(job.text))
            self.jobs.serialize_report(doc, self.out_dir)
        except self.expected_errors as exc:
            error = exc
        except Exception as exc:  # noqa: BLE001 - any other exception fails the job
            error = exc
            traceback.print_exc(file=sys.stderr)
        latency = time.perf_counter() - t0
        problems = wl.check_outcome(job, wl.outcome_of(doc, error))
        if fingerprint_of is not None:
            problems += self.check_fingerprint(fingerprint_of, job, doc, error)
        self.record(problems)
        return latency, doc

    def run_pass(self, workload: str, pass_index, tracer=None):
        """Wall time and per-job latencies of one pass."""
        jobs = wl.make_pass(workload, self.seed, pass_index)
        fp = workload if pass_index == 0 and self.seed == wl.DEFAULT_SEED else None
        if tracer is not None:
            tracer.scope = pass_index
        latencies = []
        t0 = time.perf_counter()
        for job in jobs:
            latencies.append(self.run(job, tracer, fp)[0])
        return time.perf_counter() - t0, latencies

    def check_fingerprint(self, workload: str, job: wl.Job, doc, error) -> list[str]:
        got = wl.fingerprint_of(doc, error)
        self.measured.setdefault(workload, {})[job.job_id] = got
        stored = self.stored.get(workload, {}).get(job.job_id)
        if stored is None:
            return [f"{job.job_id}: no stored fingerprint"]
        return wl.compare_fingerprint(job.job_id, stored, got)

    def tol_time(self) -> float | None:
        """Summed warm time of the ladder rungs up to the first one on target."""
        total = 0.0
        for job in wl.tol_ladder_jobs(self.seed):
            latency, doc = self.run(job)
            total += latency
            if doc and doc["results"]["residuals"][-1]["residual_action"] < wl.TOL_TARGET:
                return total
        self.record([f"tol ladder never reached {wl.TOL_TARGET}"])
        return None


def _child_cmd(args, role: str, threads: int) -> list[str]:
    return [sys.executable, str(Path(__file__).resolve()), "--child", role,
            "--workload", args.workload, "--seed", str(args.seed),
            "--threads", str(threads)]


def run_child(args, role: str, threads: int) -> tuple[float, dict | None]:
    t0 = time.perf_counter()
    proc = subprocess.run(_child_cmd(args, role, threads), env=child_env(threads),
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return wall, None
    return wall, json.loads(proc.stdout.strip().splitlines()[-1])


def child_main(args) -> int:
    """Set up as a fresh process does; role 'pass' then times one pass."""
    if args.child == "tol":
        return tol_server(args)
    out_dir = OUT / f"child-{os.getpid()}"
    try:
        runner = Runner(args.seed, out_dir)
        wl.make_pass(args.workload, args.seed, 0)
        runner.run(wl.warmup_job())
        wall = runner.run_pass(args.workload, 0)[0] if args.child == "pass" else None
        result = {"wall_s": wall, "failures": runner.failures}
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0 if not result["failures"] else 1


def tol_server(args) -> int:
    """Times one tolerance ladder per line read from stdin until it closes.

    A warm process of its own: the ladder reaches 1025 points, which would
    otherwise set the benchmark process's peak resident set on workloads
    that never go past 257.  The first reply follows one untimed ladder.
    Each reply also carries the attempts and failures since the last one.
    """
    out_dir = OUT / f"tol-{os.getpid()}"
    try:
        runner = Runner(args.seed, out_dir)
        seen = [0, 0, 0]

        def reply(tol_s):
            now = [runner.attempted, runner.failed, len(runner.failures)]
            print(json.dumps({"tol_s": tol_s, "attempted": now[0] - seen[0],
                              "failed": now[1] - seen[1],
                              "failures": runner.failures[seen[2]:]}), flush=True)
            seen[:] = now

        runner.run(wl.warmup_job())
        runner.tol_time()
        reply(None)
        for _ in sys.stdin:
            reply(runner.tol_time())
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    return 0


class TolLadders:
    """The parent's end of tol_server.  The server sleeps while the parent
    works and the parent waits while a ladder runs, so the two never compete
    for the CPUs."""

    def __init__(self, args, runner: Runner):
        self.runner = runner
        self.proc = subprocess.Popen(_child_cmd(args, "tol", args.threads),
                                     env=child_env(args.threads), cwd=ROOT, text=True,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        self._take_reply()

    def _take_reply(self) -> float | None:
        line = self.proc.stdout.readline()
        if not line:
            self.runner.record(["tolerance ladder process ended early"])
            return None
        reply = json.loads(line)
        self.runner.attempted += reply["attempted"]
        self.runner.failed += reply["failed"]
        self.runner.failures += reply["failures"]
        return reply["tol_s"]

    def sample(self) -> float | None:
        with contextlib.suppress(OSError):  # a server that ended replies with EOF
            self.proc.stdin.write("ladder\n")
            self.proc.stdin.flush()
        return self._take_reply()

    def close(self) -> None:
        try:
            with contextlib.suppress(OSError):
                self.proc.stdin.close()
            self.proc.wait(timeout=CHILD_TIMEOUT_S)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
            self.proc.stdout.close()


def setup_sample(args, runner: Runner) -> float:
    """Wall time of one fresh process that sets up like the benchmark."""
    wall, result = run_child(args, "setup", args.threads)
    runner.record([] if result else ["setup child failed"])
    return wall


def cli_sample(runner: Runner, job: wl.Job, job_file: Path, threads: int) -> float:
    """Wall time of one cold command-line run of the small job."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "qhm.cli", str(job_file), "--out", str(runner.out_dir)],
        env=child_env(threads), cwd=ROOT, capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S)
    wall = time.perf_counter() - t0
    ok = proc.returncode == 0 and proc.stdout.startswith(f"{job.kind}: {job.expect['outcome']}")
    runner.record([] if ok else [f"cli: exit {proc.returncode}, {proc.stdout.strip()!r}"])
    return wall


def end_to_end(args, runner: Runner) -> tuple[dict, dict]:
    """Rounds of one pass plus a share of each probe until the time budget is
    used, so that every median draws on samples spread over the whole run."""
    runner.run(wl.warmup_job())
    probe = wl.small_jobs(args.seed)
    cli_job = next(probe)
    cli_file = runner.out_dir / "cli-job.json"
    cli_file.write_text(cli_job.text)
    # A p90 needs >= 100 samples (>= 10 beyond it).  It is taken per round, so
    # that a burst of contention moves one round's value, and the median over
    # rounds is reported.  A pass with fewer jobs borrows a probe of identical
    # small jobs instead.
    own_p90 = len(wl.make_pass(args.workload, args.seed, 0)) >= 100
    s = {"wall_s": [], "setup_s": [], "cli_cold_s": [], "tol_s": [], "job_s.p90": []}
    latencies = []
    ladders = TolLadders(args, runner)
    try:
        t0 = time.perf_counter()
        while len(s["wall_s"]) < MIN_PASSES or time.perf_counter() - t0 < args.seconds:
            wall, lat = runner.run_pass(args.workload, len(s["wall_s"]))
            s["wall_s"].append(wall)
            latencies += lat
            # The probes take turns, so that each one's samples in a round
            # come from several moments of it and not from one burst.
            tail = []
            for step in range(PROBE_STEPS):
                if step < CLI_PER_ROUND:
                    s["cli_cold_s"].append(cli_sample(runner, cli_job, cli_file, args.threads))
                if step < TOL_PER_ROUND and (t := ladders.sample()) is not None:
                    s["tol_s"].append(t)
                if step < SETUP_PER_ROUND:
                    s["setup_s"].append(setup_sample(args, runner))
                if not own_p90:
                    tail += [runner.run(next(probe))[0]
                             for _ in range(TAIL_PER_ROUND // PROBE_STEPS)]
            s["job_s.p90"].append(spans.percentile(lat if own_p90 else tail, 0.9))
    finally:
        ladders.close()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": spans.interquartile_mean(s["setup_s"]),
        "wall_s": statistics.median(s["wall_s"]),
        "job_s.p50": statistics.median(latencies),
        "job_s.p90": statistics.median(s["job_s.p90"]),
        "tol_s": statistics.median(s["tol_s"] or [float("nan")]),
        "cli_cold_s": spans.interquartile_mean(s["cli_cold_s"]),
        "peak_rss_mb": peak_rss_mb,
    }
    return metrics, {"samples": s}


def per_layer(args, runner: Runner, import_s: float) -> tuple[dict, dict]:
    runner.run(wl.warmup_job())
    tracer = spans.Tracer()
    plain, traced = [], []
    t0 = time.perf_counter()
    # Alternate untraced and traced passes so drift hits both alike.
    while True:
        index = len(plain) + len(traced)
        if len(plain) <= len(traced):
            plain.append(runner.run_pass(args.workload, index)[0])
        else:
            with spans.instrument(tracer):
                traced.append(runner.run_pass(args.workload, index, tracer)[0])
        if len(plain) == len(traced) and time.perf_counter() - t0 >= args.seconds:
            break

    n = len(traced)
    metrics = {}
    for name, row in spans.layer_table(tracer.spans).items():
        if name != "cli.main":
            for key in ("self_s", "calls", "errors"):
                metrics[f"{name}.{key}"] = row[key] / n
    covered = sum(spans.self_times(tracer.spans))
    c = tracer.counters
    builds = c["models.hamiltonian.builds"]
    metrics.update({
        "import_s": import_s,
        "jobs.serialize_report.bytes": c["jobs.serialize_report.bytes"] / n,
        "models.build_swanson_bf.out_bytes": c["models.build_swanson_bf.out_bytes"] / n,
        "models.build_swanson_jr.out_bytes": c["models.build_swanson_jr.out_bytes"] / n,
        "models.hamiltonian.distinct_ratio":
            len(tracer.hamiltonian_keys) / builds if builds else 0.0,
        "verify.spectrum.kept_ratio": c["verify.spectrum.levels"] / c["verify.spectrum.eigenpairs"]
            if c["verify.spectrum.eigenpairs"] else 0.0,
        "trace.wall_s": statistics.median(traced),
        "trace.overhead_s": statistics.median(traced) - statistics.median(plain),
        "trace.coverage": covered / sum(traced),
    })

    # The command-line layer, traced in-process on the small probe job.
    import qhm.cli

    cli_tracer = spans.Tracer()
    job = next(wl.small_jobs(args.seed))
    job_file = runner.out_dir / "cli-job.json"
    job_file.write_text(job.text)
    with spans.instrument(cli_tracer), contextlib.redirect_stdout(io.StringIO()) as out:
        code = qhm.cli.main([str(job_file), "--out", str(runner.out_dir)])
    ok = code == 0 and out.getvalue().startswith(f"{job.kind}: {job.expect['outcome']}")
    runner.record([] if ok else [f"cli.main: exit {code}, {out.getvalue().strip()!r}"])
    row = spans.layer_table(cli_tracer.spans)["cli.main"]
    for key in ("self_s", "calls", "errors"):
        metrics[f"cli.main.{key}"] = row[key]

    # Plain single-threaded baseline of the same pass.
    wall, result = run_child(args, "pass", 1)
    runner.record([] if result else ["single-threaded baseline pass failed"])
    metrics["baseline.threads1.wall_s"] = result["wall_s"] if result else wall
    all_spans = tracer.spans + cli_tracer.spans
    return {name: metrics[name] for name in PER_LAYER}, {
        "samples": {"plain_wall_s": plain, "traced_wall_s": traced},
        "spans": [s.as_dict() for s in all_spans],
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(args.threads)
    if not (SRC / "qhm" / "__init__.py").is_file():
        print(f"error: qhm sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.child:
        return child_main(args)

    t0 = time.perf_counter()
    import qhm.cli  # noqa: F401  (qhm and the layer the traced run wraps last)
    import_s = time.perf_counter() - t0
    out_dir = OUT / f"run-{os.getpid()}"
    runner = Runner(args.seed, out_dir)
    env = environment(args)
    print("env " + json.dumps(env, sort_keys=True))
    try:
        if args.trace:
            metrics, details = per_layer(args, runner, import_s)
        else:
            metrics, details = end_to_end(args, runner)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT.mkdir(exist_ok=True)
    (OUT / f"{tag}.json").write_text(json.dumps(
        {"env": env, "metrics": metrics, "failures": runner.failures, **details}))
    if runner.measured:
        path = OUT / f"fingerprint-{args.workload}.json"
        path.write_text(json.dumps(runner.measured, indent=1, sort_keys=True) + "\n")
        print(f"fingerprint measured: {path.relative_to(ROOT)}")
    for line in runner.failures[:20]:
        print("FAILED " + line)
    failed = runner.failed
    print(f"fail_ratio = {failed / runner.attempted:.4g} ({failed}/{runner.attempted})")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {UNITS.get(name, '')}".rstrip())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": UNITS.get(name, unit_of(name))}
            for name, value in metrics.items()
        },
    }))
    return 0


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes"):
        return "bytes"
    if name.endswith("_ratio") or name.endswith("coverage"):
        return "1"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
