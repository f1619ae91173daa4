"""Benchmark of the `intersective` CLI: workloads scan, census and forms.

    python3 perfbench/run.py --workload scan --seed 0 --seconds 30 --trace 0

Jobs are real CLI runs (`python -m intersective.cli ...` with the repo's
`src` on PYTHONPATH), generated from the seed and sent as a closed loop
with one client: one child at a time.  A run repeats whole passes over the
job list until `--seconds` have gone by, checks every output, and prints
as its last stdout line one JSON object with `correct`, `attempted`,
`failed` and `metrics`.  An operation is one job of the list: `attempted`
is the number of jobs and `failed` the number that failed in any pass, so
both depend on the seed alone, not on how many passes fit in the time.  With `--trace 0` the metrics are the end-to-end
ones; with `--trace 1` the per-layer ones, from passes run through
`shim.py`, plus the overhead against one untraced pass.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
from workloads import WORKLOADS, Job

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
SETUP_RUNS = 5
JOB_TIMEOUT_S = 60
# A further pass starts only if, at the mean pass time so far, it would end
# within this many seconds, so a run ends well within 180 s.
DEADLINE_S = 120
SUBCOMMANDS = ("scan", "census", "cover", "density", "check", "realroots")

# Boundaries the per-layer metrics read; a missing one is reported by name.
EXPECTED_BOUNDARIES = (
    "cli.main",
    "intpoly.squarefree_kernel_factors",
    "modular.count_roots_block",
    "modular.cycle_type_of_good_prime",
    "modular.jacobi",
    "primes.iter_prime_arrays",
    "quadcover.decide_cover",
    "quadcover.exact_root_distribution",
    "scanner.scan",
    "sturm.count_real_roots",
    "sturm.isolate_real_roots",
    "sturm.sturm_chain",
)
LAYERS = ("cli", "parse", "reports", "intpoly", "primes", "modular", "scanner",
          "quadcover", "sturm")


@dataclass
class Result:
    job: Job
    wall: float
    cpu: float
    code: int | None
    stdout: str
    stderr: str
    summary: dict | None = None
    problems: list[str] = field(default_factory=list)
    refused: bool = False

    @property
    def failed(self) -> bool:
        return self.refused or bool(self.problems)


def child_env() -> dict:
    """The caller's environment with src on PYTHONPATH and no thread override,
    so scans use the code's default worker count."""
    env = dict(os.environ)
    env.pop("INTERSECTIVE_THREADS", None)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(argv: list[str], env: dict) -> tuple[float, float, int | None, str, str]:
    """Run one child to completion; wall and user+sys CPU seconds."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=JOB_TIMEOUT_S)
        code, out, err = proc.returncode, proc.stdout, proc.stderr
    except subprocess.TimeoutExpired:
        code, out, err = None, "", f"timed out after {JOB_TIMEOUT_S} s"
    wall = time.perf_counter() - t0
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return wall, cpu, code, out, err


def run_job(job: Job, env: dict, summary_dir: str | None) -> Result:
    if summary_dir is None:
        argv = [sys.executable, "-m", "intersective.cli", *job.argv]
        return Result(job, *run_child(argv, env))
    summary_path = os.path.join(summary_dir, "summary.json")
    argv = [sys.executable, str(HERE / "shim.py"), summary_path, *job.argv]
    result = Result(job, *run_child(argv, env))
    try:
        with open(summary_path) as fh:
            result.summary = json.load(fh)
        os.remove(summary_path)
    except (OSError, ValueError) as exc:
        result.problems.append(f"no trace summary: {exc}")
    return result


def check_result(result: Result, reference: dict) -> None:
    """Fill in result.problems, or mark an honest refusal (exit 2, `error:`)."""
    if result.code == 2 and result.stderr.startswith("error: "):
        result.refused = True
        return
    if result.code != 0:
        result.problems.append(f"exit {result.code}: {result.stderr.strip()[-300:]}")
        return
    obj, problems = checks.canonical_problems(result.stdout)
    if obj is not None:
        try:
            problems += checks.check_job(obj, result.job)
        except (KeyError, TypeError, ValueError) as exc:
            problems.append(f"malformed output: {exc!r}")
        want = reference.get(reference_key(result.job))
        if not problems and want is not None and checks.content(obj, result.job.command) != want:
            problems.append("mathematical content differs from the reference")
    result.problems.extend(problems)


def run_passes(jobs: list[Job], env: dict, seconds: float, summary_dir: str | None,
               reference: dict) -> list[list[Result]]:
    """Whole passes over the job list until `seconds` have gone by."""
    passes: list[list[Result]] = []
    start = time.perf_counter()
    while True:
        results = [run_job(job, env, summary_dir) for job in jobs]
        for r in results:
            check_result(r, reference)
        passes.append(results)
        used = time.perf_counter() - start
        if used >= seconds or used * (len(passes) + 1) / len(passes) > DEADLINE_S:
            return passes


def measure_setup(env: dict) -> float:
    """Median wall time of a child that only imports the CLI, warm caches."""
    argv = [sys.executable, "-c", "import intersective.cli"]
    run_child(argv, env)
    return statistics.median(run_child(argv, env)[0] for _ in range(SETUP_RUNS))


def machine_facts(env: dict) -> dict:
    probe = (
        "import json, platform, numpy\n"
        "try:\n"
        "    from intersective.scanner import resolve_workers\n"
        "    workers = resolve_workers()\n"
        "except ImportError:\n"
        "    workers = None\n"
        "print(json.dumps({'python': platform.python_version(),"
        " 'numpy': numpy.__version__, 'workers': workers}))\n"
    )
    _, _, code, out, _ = run_child([sys.executable, "-c", probe], env)
    facts = json.loads(out) if code == 0 else {}
    cpu_model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    facts.update(nproc=os.cpu_count(), cpu_model=cpu_model)
    return facts


def subcommand_seconds(results: list[Result]) -> dict[str, float]:
    totals: dict[str, float] = {}
    for r in results:
        totals[r.job.command] = totals.get(r.job.command, 0.0) + r.wall
    return {f"{cmd}_s": totals[cmd] for cmd in SUBCOMMANDS if cmd in totals}


def primes_per_second(results: list[Result]) -> float:
    """Good primes reported per second of scan and census wall time."""
    primes, wall = 0, 0.0
    for r in results:
        if r.job.command in ("scan", "census") and not r.failed:
            primes += json.loads(r.stdout)["good_prime_count"]
            wall += r.wall
    return primes / wall if wall else 0.0


def per_job_medians(passes: list[list[Result]], attr: str) -> list[float]:
    """Each job's median over the passes, so one slow launch moves a
    figure less than it would a pass total."""
    return [statistics.median(getattr(rs[i], attr) for rs in passes)
            for i in range(len(passes[0]))]


def end_to_end(passes: list[list[Result]], setup_s: float) -> dict:
    walls = per_job_medians(passes, "wall")
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (sum(walls), "s"),
        "cpu_s": (sum(per_job_medians(passes, "cpu")), "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024, "MiB"),
        "job_p50_s": (statistics.median(walls), "s"),
    }


def found_boundaries(results: list[Result]) -> set[str]:
    return {name for r in results if r.summary for name in r.summary["found"]}


def missing_boundaries(results: list[Result]) -> list[str]:
    return sorted(set(EXPECTED_BOUNDARIES) - found_boundaries(results))


def layer_metrics(results: list[Result], untraced: list[Result]) -> dict:
    """Per-layer metrics of one traced pass, against the untraced pass."""
    names: dict[str, dict] = {}
    import_s = unattributed = 0.0
    for r in results:
        if r.summary is None:
            continue
        import_s += r.summary["import_s"]
        unattributed += r.wall - r.summary["import_s"] - r.summary["top_s"]
        for name, rec in r.summary["names"].items():
            agg = names.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                          "child_busy_s": 0.0, "counters": {}})
            for key in ("calls", "total_s", "self_s", "child_busy_s"):
                agg[key] += rec.get(key, 0)
            for key, value in rec["counters"].items():
                old = agg["counters"].get(key, 0)
                agg["counters"][key] = max(old, value) if key.endswith("_max") else old + value

    def get(name: str, key: str) -> float:
        return names.get(name, {}).get(key, 0)

    def counter(name: str, key: str) -> float:
        return names.get(name, {}).get("counters", {}).get(key, 0)

    def module_self(layer: str) -> float:
        return sum(rec["self_s"] for n, rec in names.items() if n.startswith(layer + "."))

    scan_total = get("scanner.scan", "total_s")
    m = {f"{layer}.self_s": (module_self(layer), "s") for layer in LAYERS}
    m.update({
        "cli.import_s": (import_s, "s"),
        "intpoly.kernel_s": (get("intpoly.squarefree_kernel_factors", "total_s"), "s"),
        "intpoly.kernel_calls": (get("intpoly.squarefree_kernel_factors", "calls"), "count"),
        "primes.count": (counter("primes.iter_prime_arrays", "primes"), "count"),
        "modular.roots_s": (get("modular.count_roots_block", "self_s"), "s"),
        "modular.lanes": (counter("modular.count_roots_block", "lanes"), "count"),
        "modular.split_lanes": (counter("modular.count_roots_block", "split_lanes"), "count"),
        "modular.fallback_lanes": (
            counter("modular.count_roots_block", "fallback_lanes"), "count"),
        "modular.cycle_s": (get("modular.cycle_type_of_good_prime", "self_s"), "s"),
        "modular.cycle_calls": (get("modular.cycle_type_of_good_prime", "calls"), "count"),
        "modular.jacobi_calls": (get("modular.jacobi", "calls"), "count"),
        "scanner.overlap": (
            get("scanner.scan", "child_busy_s") / scan_total if scan_total else 0.0, "ratio"),
        "quadcover.decide_s": (get("quadcover.decide_cover", "total_s"), "s"),
        "quadcover.distribution_s": (
            get("quadcover.exact_root_distribution", "total_s"), "s"),
        "quadcover.rank_max": (max(counter("quadcover.decide_cover", "rank_max"),
                                   counter("quadcover.exact_root_distribution", "rank_max")),
                               "count"),
        "quadcover.classes_enumerated": (
            counter("quadcover.exact_root_distribution", "classes"), "count"),
        "sturm.isolate_s": (get("sturm.isolate_real_roots", "total_s"), "s"),
        "sturm.count_s": (get("sturm.count_real_roots", "total_s"), "s"),
        "sturm.chain_terms": (counter("sturm.sturm_chain", "terms"), "count"),
        "trace.overhead_s": (
            sum(r.wall for r in results) - sum(r.wall for r in untraced), "s"),
        "trace.unattributed_s": (unattributed, "s"),
        "trace.missing_boundaries": (len(missing_boundaries(results)), "count"),
    })
    # Untraced figures that exist only on some workloads, so they carry no bound.
    untraced_subs = subcommand_seconds(untraced)
    for cmd in SUBCOMMANDS:
        m[f"{cmd}_s"] = (untraced_subs.get(f"{cmd}_s", 0.0), "s")
    m["primes_per_s"] = (primes_per_second(untraced), "1/s")
    return m


def failed_jobs(passes: list[list[Result]]) -> int:
    """Jobs that failed in any pass.  A job is one operation; its launches
    in later passes are timing samples of the same operation."""
    return sum(any(r.failed for r in rs) for rs in zip(*passes))


def median_metrics(per_pass: list[dict]) -> dict:
    return {
        name: (statistics.median(p[name][0] for p in per_pass), per_pass[0][name][1])
        for name in per_pass[0]
    }


def reference_key(job: Job) -> str:
    """Short stable id of a job's command line."""
    return hashlib.sha256(job.key.encode()).hexdigest()[:24]


def load_reference() -> dict:
    if REFERENCE.exists():
        return json.loads(REFERENCE.read_text())
    return {}


def record_reference(results: list[Result], reference: dict) -> int:
    """Add the content of every output that passed its checks; never
    overwrite a recorded entry.  Returns the number of entries added."""
    added = 0
    for r in results:
        key = reference_key(r.job)
        if r.failed or key in reference:
            continue
        reference[key] = checks.content(json.loads(r.stdout), r.job.command)
        added += 1
    lines = [f"{json.dumps(k)}:{json.dumps(v, sort_keys=True, separators=(',', ':'))}"
             for k, v in sorted(reference.items())]
    REFERENCE.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    return added


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="run one pass and add its verified outputs to reference.json")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "intersective" / "cli.py").is_file():
        print(f"error: no intersective package under {SRC}", file=sys.stderr)
        return 2
    jobs = WORKLOADS[args.workload](args.seed)
    env = child_env()
    reference = load_reference()
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            **machine_facts(env)}

    if args.record:
        passes = run_passes(jobs, env, 0, None, reference)
        info["recorded"] = record_reference(passes[0], reference)
        metrics = {}
    elif args.trace:
        untraced = run_passes(jobs, env, 0, None, reference)[0]
        summary_dir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
        try:
            left = max(0.0, args.seconds - sum(r.wall for r in untraced))
            traced = run_passes(jobs, env, left, summary_dir, reference)
        finally:
            shutil.rmtree(summary_dir, ignore_errors=True)
        per_pass = [layer_metrics(rs, untraced) for rs in traced]
        info["boundaries"] = sorted(found_boundaries(traced[0]))
        info["missing_boundaries"] = missing_boundaries(traced[0])
        info["passes"] = len(traced)
        metrics = median_metrics(per_pass)
        passes = [untraced, *traced]
    else:
        setup_s = measure_setup(env)
        passes = run_passes(jobs, env, args.seconds, None, reference)
        metrics = end_to_end(passes, setup_s)
        info.update(passes=len(passes), jobs=len(jobs),
                    job_samples=sum(len(rs) for rs in passes),
                    primes_per_s=primes_per_second([r for rs in passes for r in rs]),
                    **subcommand_seconds(passes[0]))

    problems = [f"{r.job.key[:120]}: {p}" for rs in passes for r in rs for p in r.problems]
    for line in problems:
        print(f"problem: {line}", file=sys.stderr)
    info.update(problems=len(problems),
                refused=[job.key[:120] for job, rs in zip(jobs, zip(*passes))
                         if any(r.refused for r in rs)])
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": not problems,
        "attempted": len(jobs),
        "failed": failed_jobs(passes),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
