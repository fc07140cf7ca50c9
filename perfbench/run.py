"""shadowraft benchmark: one workload per call, end-to-end or traced per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sharded-long --seed 1 --seconds 25 --trace 0

With ``--trace 0`` the run repeats the workload's pass until ``--seconds``
are used up, times set-up in a fresh interpreter before each of the first
passes, and reports the end-to-end metrics as medians. With ``--trace 1`` it alternates
untraced and traced passes and reports the per-layer metrics and the tracing
overhead. Either way, every operation's outputs are checked and their
SHA-256 digests must repeat exactly across passes.

Human-readable lines go first; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``,
holding the metrics BENCHMARK.json declares for the mode. A full record
(environment, every pass, all figures, digests) is written to
``perfbench/_work/results/``.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import hashlib
import importlib.metadata
import json
import os
import platform
import pstats
import resource
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import fmean, median

from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
PLAN = json.loads((BENCH / "plan.json").read_text())
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
SETUP_REPEATS = 7  # fresh interpreters per run; setup_s is their median
MIN_PASSES = 3  # untraced passes in an end-to-end run
MIN_PAIRS = 2  # untraced + traced pairs in a traced run; counts must repeat
REF_INTERVAL_S = 0.025  # wall time between reference-loop samples
REF_ITERATIONS = 150  # about 0.1-0.2 ms per sample, so under 1% of a pass


class BenchError(Exception):
    """The benchmark cannot run here; it exits without a result."""


def environment() -> dict:
    commit = "unavailable (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        commit = proc.stdout.strip() or commit
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "shadowraft").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "cryptography": importlib.metadata.version("cryptography"),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
    }


def spawn_setup(code: str) -> float:
    """Seconds from spawning a fresh interpreter until ``code`` has run."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, "-c", code + "print('ready', flush=True)\n"],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
    ) as proc:
        ready = proc.stdout.readline().strip() == "ready"
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        status = proc.wait(timeout=60)
    if not ready or status != 0:
        raise BenchError(f"set-up process failed (exit {status})")
    return elapsed


def reference_loop() -> None:
    h, d = b"reference", {}
    for i in range(REF_ITERATIONS):
        h = hashlib.sha256(h).digest()
        d[h[:2]] = i


class HostSpeed:
    """Times ``reference_loop`` every REF_INTERVAL_S of wall time while active.

    On a shared VM the host's speed changes from minute to minute: the same
    pass can take 1.8 times as long in a slow phase. A pass's host time
    divided by the mean reference time sampled during that pass cancels most
    of the change; that quotient is ``run_ref``.
    """

    def __init__(self):
        self.samples: list[float] = []

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        reference_loop()
        self.samples.append(time.perf_counter() - start)

    def __enter__(self) -> "HostSpeed":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, REF_INTERVAL_S, REF_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if not self.samples:  # a pass that failed at once
            self._sample(None, None)


def run_passes(seconds: float, minimum: int, make_pass) -> None:
    """Call ``make_pass`` at least ``minimum`` times, then until ``seconds`` would be overrun."""
    start = time.perf_counter()
    done = 0
    while True:
        gc.collect()
        make_pass()
        done += 1
        elapsed = time.perf_counter() - start
        if done >= minimum and elapsed + elapsed / done > seconds:
            return


def merge_digests(passes) -> dict[str, str] | None:
    """Every output file's digest, or None if two passes disagree on one."""
    merged: dict[str, str] = {}
    for p in passes:
        for name, digest in p.digests.items():
            if merged.setdefault(name, digest) != digest:
                return None
    return merged


def profile_by_module(workload, path: Path) -> None:
    """One profiled pass, self time grouped by module (a diagnostic, not a metric)."""
    profiler = cProfile.Profile()
    profiler.runcall(workload.run_pass)
    by_module: dict[str, float] = {}
    by_function = []
    for (filename, line, func), (_, calls, self_time, _, _) in pstats.Stats(profiler).stats.items():
        if filename == "~":
            module = "(built-in)"
        elif filename == "<string>":
            module = "(generated dataclass methods)"
        elif "shadowraft" in Path(filename).parts:
            module = "shadowraft." + Path(filename).stem
        else:
            module = Path(filename).stem
        by_module[module] = by_module.get(module, 0.0) + self_time
        by_function.append((self_time, calls, f"{module}:{line}:{func}"))
    total = sum(by_module.values())
    lines = [f"cProfile of one {workload.name} pass: {total:.3f} s of self time", ""]
    lines.append("self time by module:")
    for module, secs in sorted(by_module.items(), key=lambda kv: -kv[1]):
        if secs >= 0.001 * total:
            lines.append(f"  {secs / total:6.1%}  {secs:8.3f} s  {module}")
    lines += ["", "top functions by self time:"]
    for secs, calls, name in sorted(by_function, reverse=True)[:25]:
        lines.append(f"  {secs / total:6.1%}  {secs:8.3f} s  {calls:>9} calls  {name}")
    path.write_text("\n".join(lines) + "\n")


def measure_end_to_end(workload, seconds: float) -> tuple[list, dict, dict]:
    """Untraced passes with set-up spawns between them: (passes, metrics, extra record)."""
    from workloads import nearest_rank

    code = workload.setup_code()
    spawn_setup(code)  # unmeasured: warms the file cache
    setup_times, passes, refs = [], [], []

    def one_pass():
        # one set-up before each pass spreads them over the run, so their
        # median is not set by whatever the host does in one second
        if len(setup_times) < SETUP_REPEATS:
            setup_times.append(spawn_setup(code))
        with HostSpeed() as host:
            # sharded-long's verify-order runs on the first pass only, which
            # leaves time for more samples of the gated run time
            passes.append(workload.run_pass(verify=not passes))
        refs.append(fmean(host.samples))

    run_passes(seconds, MIN_PASSES, one_pass)
    while len(setup_times) < SETUP_REPEATS:
        setup_times.append(spawn_setup(code))
    metrics = {
        "run_s": median([p.times["run_s"] for p in passes]),
        "run_ref": median([p.times["run_s"] / ref for p, ref in zip(passes, refs)]),
        "setup_s": median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    verify = [p.times["verify_s"] for p in passes if "verify_s" in p.times]
    if verify:
        metrics["verify_s"] = median(verify)
    sim_ms = [ms for p in passes for ms in p.sim_ms]
    if sim_ms:
        metrics["sim_ms_p50"] = nearest_rank(sim_ms, 50)
        metrics["sim_ms_p95"] = nearest_rank(sim_ms, 95)
        metrics["sims"] = len(sim_ms)
    metrics.update(passes[0].outputs)
    return passes, metrics, {"setup_s": setup_times, "reference_s": refs}


def measure_traced(workload, seconds: float) -> tuple[list, list, dict, list[str]]:
    """Untraced and traced passes in turn: (untraced, traced, metrics, unstable counts).

    Layer times are medians over the traced passes; counts and ratios must
    repeat exactly, and the names of any that do not are returned.
    """
    untraced, traced, per_pass = [], [], []

    def pair():
        untraced.append(workload.run_pass())
        gc.collect()
        tracer = Tracer()
        tracer.install()
        try:
            result = workload.run_pass()
        finally:
            tracer.uninstall()
        for key, value in result.facts.items():
            tracer.facts[key] += value
        traced.append(result)
        per_pass.append(tracer.layer_metrics())

    run_passes(seconds, MIN_PAIRS, pair)
    metrics, unstable = {}, []
    for name in per_pass[0]:
        values = [m[name] for m in per_pass]
        if name.endswith("_s") or ".us_per_" in name:
            metrics[name] = median(values)
        else:
            metrics[name] = values[0]
            if any(v != values[0] for v in values):
                unstable.append(name)
    metrics["bench.trace_overhead"] = median([p.times["run_s"] for p in traced]) / median(
        [p.times["run_s"] for p in untraced]
    )
    return untraced, traced, metrics, unstable


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(PLAN["workloads"]))
    parser.add_argument("--seed", type=int, default=PLAN["default_seed"])
    parser.add_argument("--seconds", type=float, default=DECLARED["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "shadowraft" / "__init__.py").is_file():
        raise BenchError(f"no shadowraft sources under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    mode = "end_to_end" if args.trace == 0 else "per_layer"
    units = {m["name"]: m["unit"] for m in DECLARED[mode]}
    work = BENCH / "_work" / f"{args.workload}-{os.getpid()}"
    results = BENCH / "_work" / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": environment(),
    }
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, work)
        if args.trace == 0:
            untraced, metrics, extra = measure_end_to_end(workload, args.seconds)
            traced, unstable = [], []
            record.update(extra)
            units.update(workloads.EXTRA_UNITS, run_s="s", error_rate="ratio")
        else:
            untraced, traced, metrics, unstable = measure_traced(workload, args.seconds)
            if args.workload == "sharded-long":
                profile = results / f"profile-{args.workload}-seed{args.seed}.txt"
                profile_by_module(workload, profile)
                record["profile"] = str(profile.relative_to(ROOT))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    passes = untraced + traced
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    digests = merge_digests(passes)
    if args.trace == 0:
        metrics["error_rate"] = failed / attempted
    correct = failed == 0 and digests is not None and not unstable
    record.update(
        attempted=attempted,
        failed=failed,
        correct=correct,
        digests_agree=digests is not None,
        unstable_counts=unstable,
        passes=[{"traced": False, "times": p.times, "failed": p.failed} for p in untraced]
        + [{"traced": True, "times": p.times, "failed": p.failed} for p in traced],
        metrics={k: {"value": v, "unit": units.get(k, "")} for k, v in metrics.items()},
        digests=digests or {},
    )
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=1) + "\n")

    env = record["environment"]
    print(
        f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
        f"{len(untraced)} untraced + {len(traced)} traced passes; python {env['python']}, "
        f"cryptography {env['cryptography']}, nproc {env['nproc']}, commit {env['git_commit']}"
    )
    for key, value in metrics.items():
        print(f"  {key:<38} {value:>14.6g} {units.get(key, '')}")
    for key, digest in sorted(record["digests"].items()):
        print(f"  sha256 {digest}  {key}")
    print(
        f"  operations {attempted}, failed {failed}; output digests "
        f"{'repeat' if digests is not None else 'DIFFER'} across passes"
        + (f"; counts differ between traced passes: {', '.join(unstable)}" if unstable else "")
    )
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in DECLARED[mode]
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
