"""The four workloads: inputs drawn from the workload seed, one pass, output checks.

A workload's inputs (SimConfigs and CLI arguments) come from
``random.Random(workload_seed)``; the program only sees those inputs. One
pass runs the workload's job once through the public entry points
(``shadowraft.cli.main`` and ``shadowraft.sim.run_simulation``), times each
operation, and checks the outputs. Every pass of a run repeats the same
inputs, so its output digests must repeat exactly.

Client load inside every simulation is open-loop: transactions arrive on the
seeded ``tx_rate`` schedule whatever the protocol's state, and confirmation
latency counts from a transaction's submit tick.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import random
import re
import sys
import time
import traceback
from dataclasses import dataclass, field, fields
from pathlib import Path

from shadowraft import cli, sim

BEACON_NODES, BEACON_BITS, BEACON_EPOCHS = 128, 7, 10_000
BEACON_TOLERANCE = 0.02  # allowed |empirical repeat rate - (1-2^-l)^N|
RAFT_SUITE_RUNS = 200  # p95 of the per-simulation time has 10 samples above it
RAFT_SIZES = (1, 3, 5, 7)  # n = 1 is the single-node baseline

# Units of the end-to-end figures that only some workloads have. They are
# printed and saved with every run but are not in BENCHMARK.json, whose
# end-to-end metrics every workload reports.
EXTRA_UNITS = {
    "verify_s": "s",
    "sim_ms_p50": "ms",
    "sim_ms_p95": "ms",
    "confirm_p50_ticks": "ticks",
    "confirm_p99_ticks": "ticks",
    "tx_per_tick": "tx/tick",
    "msgs_per_block": "msgs",
    "sims": "count",
}


@dataclass
class PassResult:
    times: dict[str, float] = field(default_factory=dict)  # host seconds
    sim_ms: list[float] = field(default_factory=list)  # host ms per simulation
    attempted: int = 0
    failed: int = 0
    digests: dict[str, str] = field(default_factory=dict)
    outputs: dict[str, float] = field(default_factory=dict)  # deterministic
    facts: dict[str, int] = field(default_factory=dict)  # counts for the trace

    def fail(self, why: str) -> None:
        self.failed += 1
        print(f"perfbench: failed operation: {why}", file=sys.stderr)


def nearest_rank(values, pct: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def _call_cli(argv: list[str]) -> tuple[int, str, float]:
    """Run ``shadowraft.cli.main(argv)``: (exit code, stdout, host seconds)."""
    buf = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a traceback is a failed operation, not a benchmark crash
        traceback.print_exc()
        code = -1
    return code, buf.getvalue(), time.perf_counter() - start


def _digest_files(directory: Path, prefix: str, result: PassResult) -> None:
    for path in sorted(directory.iterdir()):
        data = path.read_bytes()
        result.digests[prefix + path.name] = hashlib.sha256(data).hexdigest()
        result.facts["cli.export_bytes"] = result.facts.get("cli.export_bytes", 0) + len(data)


def _csv_rows(path: Path) -> list[list[str]]:
    lines = path.read_text().splitlines()[1:]
    return [line.split(",") for line in lines]


def _sim_outputs(latencies, committed_txs, window, messages, blocks) -> dict[str, float]:
    return {
        "confirm_p50_ticks": nearest_rank(latencies, 50),
        "confirm_p99_ticks": nearest_rank(latencies, 99),
        "tx_per_tick": committed_txs / window,
        "msgs_per_block": messages / blocks,
    }


def _run_dir_outputs(run_dir: Path) -> dict[str, float]:
    """End-to-end figures read back from the files ``shadowraft run`` wrote."""
    latencies = [int(row[3]) for row in _csv_rows(run_dir / "latency.csv")]
    throughput = _csv_rows(run_dir / "throughput.csv")
    blocks = sum(int(row[1]) for row in throughput)
    committed = sum(int(row[2]) for row in throughput)
    window = int(throughput[0][3])
    summary = (run_dir / "summary.txt").read_text()
    counts = re.search(r"^  messages: (.*)$", summary, re.M).group(1)
    messages = sum(int(item.split("=")[1]) for item in counts.split())
    return _sim_outputs(latencies, committed, window, messages, blocks)


def _write_config(path: Path, config: sim.SimConfig) -> None:
    lines = []
    for f in fields(sim.SimConfig):
        value = getattr(config, f.name)
        if f.name == "crash_schedule":
            value = ",".join(f"{when}:{nid}" for when, nid in value)
        lines.append(f"{f.name} = {value}")
    path.write_text("\n".join(lines) + "\n")


class Workload:
    name = ""

    def __init__(self, seed: int, work_dir: Path):
        self.rand = random.Random(seed)
        self.work = work_dir
        self.work.mkdir(parents=True, exist_ok=True)

    def setup_code(self) -> str:
        """Python source a fresh interpreter runs up to the first simulated work."""
        raise NotImplementedError

    def run_pass(self, verify: bool = True) -> PassResult:
        """Run the job once; ``verify`` also runs its offline check, if it has one."""
        raise NotImplementedError


class _RunCommand(Workload):
    """One ``shadowraft run`` per pass, on a config file drawn from the seed."""

    has_verify = False

    def __init__(self, seed: int, work_dir: Path, **config):
        super().__init__(seed, work_dir)
        self.config = sim.SimConfig(seed=self.rand.getrandbits(48), **config)
        self.config_path = self.work / "experiment.cfg"
        _write_config(self.config_path, self.config)
        self.run_dir = self.work / "run"
        self.verify_dir = self.work / "verify"

    def setup_code(self) -> str:
        return (
            "import shadowraft.cli as cli\n"
            "from shadowraft.sim import Simulation\n"
            f"config, _ = cli.build_config(cli.read_config_file({str(self.config_path)!r}))\n"
            "Simulation(config)\n"
        )

    def run_pass(self, verify: bool = True) -> PassResult:
        result = PassResult(attempted=1)
        code, _, result.times["run_s"] = _call_cli(
            ["run", "--config", str(self.config_path), "--out", str(self.run_dir)]
        )
        safety = self.run_dir / "safety.csv"
        if code != 0:
            result.fail(f"{self.name}: run exited {code}")
        elif _csv_rows(safety):
            result.fail(f"{self.name}: safety.csv has {len(_csv_rows(safety))} flag(s)")
        else:
            result.outputs = _run_dir_outputs(self.run_dir)
            _digest_files(self.run_dir, "run/", result)
        if verify and self.has_verify:
            result.attempted += 1
            code, out, result.times["verify_s"] = _call_cli(
                ["verify-order", str(self.run_dir), "--out", str(self.verify_dir)]
            )
            if code != 0:
                result.fail(f"{self.name}: verify-order exited {code}")
            else:
                views = re.search(r"(\d+) snapshot orders consistent", out)
                result.facts["cli.verify.views"] = int(views.group(1))
                _digest_files(self.verify_dir, "verify/", result)
        return result


class ShardedLong(_RunCommand):
    """40 nodes on 8 chains over a long horizon, then verify-order on the output."""

    name = "sharded-long"
    has_verify = True

    def __init__(self, seed: int, work_dir: Path):
        super().__init__(
            seed,
            work_dir,
            num_nodes=40,
            num_chains=8,
            tx_rate=0.4,
            snapshot_interval=250,
            run_duration=4000,
        )


class TxHeavy(_RunCommand):
    """One 5-node chain at about 20 tx/tick, half of them sealed."""

    name = "tx-heavy"

    def __init__(self, seed: int, work_dir: Path):
        super().__init__(
            seed,
            work_dir,
            num_nodes=5,
            num_chains=1,
            tx_rate=20.0,
            sensitive_fraction=0.5,
            max_batch=1_000_000,
            # the beacon locks within a few epochs, so every seed leaves about
            # the same number of ticks, and of transactions, after it
            lottery_bits=2,
            run_duration=3000,
        )


class RaftFaults(Workload):
    """A suite of short single-chain runs with crashes below quorum."""

    name = "raft-faults"

    def __init__(self, seed: int, work_dir: Path):
        super().__init__(seed, work_dir)
        rand = self.rand
        self.configs = []
        for i in range(RAFT_SUITE_RUNS):
            # sizes cycle so that every seed runs the same mix of cluster sizes
            n = RAFT_SIZES[i % len(RAFT_SIZES)]
            crashes = rand.sample(range(n), rand.randint(0, (n - 1) // 2))
            config = sim.SimConfig(
                seed=rand.getrandbits(48),
                num_nodes=n,
                num_chains=1,
                lottery_bits=2,
                raft_delay_max=rand.choice([3, 5, 8]),
                election_timeout=rand.choice([60, 100, 140]),
                heartbeat_interval=15,
                block_interval=50,
                tx_rate=0.25,
                crash_schedule=tuple((rand.randint(250, 700), nid) for nid in crashes),
                run_duration=900,
                snapshot_interval=300,
            )
            self.configs.append(config)

    def setup_code(self) -> str:
        first = {f.name: getattr(self.configs[0], f.name) for f in fields(sim.SimConfig)}
        return (
            "import shadowraft.cli\n"
            "from shadowraft.sim import SimConfig, Simulation\n"
            f"config = SimConfig(**{first!r})\n"
            "config.validate()\n"
            "Simulation(config)\n"
        )

    def run_pass(self, verify: bool = True) -> PassResult:
        result = PassResult(attempted=len(self.configs))
        hashers = {}
        latencies: list[int] = []
        committed = window = messages = blocks = 0
        for i, config in enumerate(self.configs):
            start = time.perf_counter()
            try:
                trace = sim.run_simulation(config)
            except Exception:
                traceback.print_exc()
                result.fail(f"raft-faults: simulation {i} raised")
                continue
            finally:
                result.sim_ms.append((time.perf_counter() - start) * 1e3)
            if trace.safety_flags:
                result.fail(f"raft-faults: simulation {i}: {trace.safety_flags[0]}")
                continue
            for name, data in trace.csv_outputs().items():
                hashers.setdefault(name, hashlib.sha256()).update(data)
            latencies.extend(row[3] for row in trace.latency_rows)
            committed += trace.total_committed_txs()
            window += config.run_duration - trace.workload_start
            messages += sum(trace.message_counts.values())
            blocks += sum(trace.committed_blocks.values())
        result.times["run_s"] = sum(result.sim_ms) / 1e3
        result.digests = {f"suite/{k}": h.hexdigest() for k, h in sorted(hashers.items())}
        if latencies and blocks:
            result.outputs = _sim_outputs(latencies, committed, window, messages, blocks)
        return result


class BeaconMC(Workload):
    """``beacon-stats`` Monte Carlo at N = 128, l = 7."""

    name = "beacon-mc"

    def __init__(self, seed: int, work_dir: Path):
        super().__init__(seed, work_dir)
        self.beacon_seed = self.rand.getrandbits(48)
        self.out_dir = self.work / "beacon"

    def setup_code(self) -> str:
        return (
            "import shadowraft.cli as cli\n"
            f"cli.make_beacon_nodes({BEACON_NODES}, {BEACON_BITS}, {self.beacon_seed})\n"
        )

    def run_pass(self, verify: bool = True) -> PassResult:
        result = PassResult(attempted=1)
        argv = [
            "beacon-stats",
            "--nodes", str(BEACON_NODES),
            "--bits", str(BEACON_BITS),
            "--epochs", str(BEACON_EPOCHS),
            "--seed", str(self.beacon_seed),
            "--out", str(self.out_dir),
        ]  # fmt: skip
        code, _, result.times["run_s"] = _call_cli(argv)
        if code != 0:
            result.fail(f"beacon-mc: beacon-stats exited {code}")
            return result
        rows = _csv_rows(self.out_dir / "beacon.csv")
        succeeded = sum(int(row[1]) for row in rows)
        repeat_rate = 1 - succeeded / len(rows)
        closed = (1 - 2.0**-BEACON_BITS) ** BEACON_NODES
        if abs(repeat_rate - closed) > BEACON_TOLERANCE:
            result.fail(f"beacon-mc: repeat rate {repeat_rate:.4f} vs closed form {closed:.4f}")
        result.outputs = {"repeat_rate": repeat_rate, "repeat_rate_closed_form": closed}
        result.facts = {"beacon.epochs": len(rows), "beacon.locks": succeeded}
        _digest_files(self.out_dir, "beacon/", result)
        return result


WORKLOADS = {w.name: w for w in (ShardedLong, TxHeavy, RaftFaults, BeaconMC)}
