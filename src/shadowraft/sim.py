"""Deterministic discrete-event simulation of the whole protocol stack.

One run executes: (1) beacon epochs until a seed locks, each costing one
synchronous round of `delta` ticks; the horizon is the one bound, so at most
end_time // delta epochs run, and a beacon that locks no seed in them fails
the run; (2) committee assignment from the locked seed; (3) per-chain Raft with
leaders batching client transactions into blocks on a timer, rank fields
taken from the proposer's current view; (4) committed-header gossip, from the
replica that appends it, to every other node, which drives each node's
ConfirmBar and total order; (5) metric and safety collection.

Time is an integer tick counter. Events execute in (time, insertion
sequence) order off a single heap, so a run is a pure function of its
SimConfig: identical configs give byte-identical CSV outputs. The client
workload is drawn before the run starts into each chain's pending list, so
in nonce and submit-time order, with no heap entry. Each transaction
reserves one sequence number and counts as one event at its submit time,
before run_duration <= end_time. The ticks that get one arrival more than
int(tx_rate) are drawn as geometric gaps, one draw each. A proposal at
tick t takes up to max_batch of its chain's transactions submitted before
t. SimConfig.validate bounds (int(tx_rate) + 1) * run_duration by 2**64, so
every nonce fits in a u64. A node's superseded Raft deadline is not an
event, and its timer fires at the (deadline, seq) its last arming reserved.
Tracing is a run option, not a SimConfig field: it adds events.csv, whose
set-up rows are sorted into place at the end, and changes no other byte.

Two delay regimes: the beacon phase is synchronous with bound delta, the
Raft/gossip phase draws per-message delays uniformly from
[raft_delay_min, raft_delay_max]. Raft messages and gossip draw them from
separate streams, so a change to gossip moves no Raft delay. Each delay is
raft_delay_min + next_below(span), read by next_below's loop inlined on the
stream's next_u64 with a limit computed once per run (see rng). Crashes are
crash-stop, at most one per node, and liveness is one rule: node n is down at
tick t iff Simulation.crash_time[n] <= t, and from then on it receives nothing,
fires nothing, sends nothing, and never recovers. A crash scheduled after
end_time never happens (its crash_time stays inf). A crash is no heap entry:
it reserves its sequence number first, and is an event only by end_time.

The simulator is also the property-test vehicle: beacon certificates, the
Raft rules, state-machine safety at apply, rank discipline, prefix
stability of the total order, and sealed round-trip integrity are all
checked during the run and recorded as safety flags, which must stay empty.
The Raft rules are one raft.SafetyMonitor per chain, fed only where a rule
can break: a node's first leadership of a term, a granted vote, a change of
commit_index, and the end-of-run log check over every committee member,
crashed ones included.

Each chain has one ledger. The first replica to apply a committed entry
decodes it, appends it to the ledger and to the run's one header store, and
gossips its header to every other live node, so each header is sent at most
N-1 times; every other replica checks that its own command has the same bytes
and keeps only its height in that ledger. Each node's view is a Frontier over
the store, so every order is a prefix of the store's by construction, not a
flag. Latency and transaction counts are read from frontiers and ledgers.

A transaction is confirmed at the first tick at which some replica of its
chain has applied its block and holds a ConfirmBar above the block's rank.
Only two events make that true, and each samples where it happens: a bar
rise at a node, and a replica's apply of a height whose header gossip
brought it first. Each chain's heights are sampled once, in order.

A snapshot writes, for each live node, only the headers that entered its
view since its previous snapshot; the view of node n at time t is the union
of n's snapshot rows up to t.

Every output of a run is a SimTrace field, declared once with its default.
The handlers fill the run's one record, Simulation.out, and run() returns it.
"""

from __future__ import annotations

import heapq
import io
import math
import struct
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field, replace
from typing import NamedTuple

from . import beacon as beacon_mod
from .beacon import assign_chains, invoke_beacon, make_beacon_nodes, select_seed
from .ledger import (
    BlockHeader,
    ChainLedger,
    DecodeError,
    LedgerError,
    Transaction,
    append_block,
    decode_block,
    encode_block,
    # unused here, but perfbench/tracer.py wraps shadowraft.sim.hash_header by name
    hash_header,
    make_genesis,
    new_block,
)
from .ordering import (
    Frontier,
    GlobalView,
    OrderingError,
    propose_rank_fields,
    reference_total_order,
    validate_view,
)
from .raft import LEADER, RaftNode, SafetyMonitor, VoteReply, quorum_threshold
from .rng import Stream, below_limit, chance_limit
from .sealing import KeyDirectory, SealingError, seal


class SimError(Exception):
    pass


class ConfigError(SimError):
    pass


@dataclass(frozen=True)
class SimConfig:
    """Full description of one experiment; every field has a sane default."""

    seed: int = 42
    num_nodes: int = 5
    num_chains: int = 1
    lottery_bits: int = 6
    delta: int = 10
    raft_delay_min: int = 1
    raft_delay_max: int = 5
    election_timeout: int = 100
    heartbeat_interval: int = 20
    block_interval: int = 50
    tx_rate: float = 0.4
    sensitive_fraction: float = 0.1
    crash_schedule: tuple[tuple[int, int], ...] = ()
    run_duration: int = 2000
    drain_window: int = 400
    max_batch: int = 64
    snapshot_interval: int = 250
    num_seal_keys: int = 4

    def validate(self) -> None:
        def bad(key, why):
            raise ConfigError(f"{key}: {why}")

        if not 0 <= self.seed < 2**64:
            bad("seed", "must be a 64-bit unsigned integer")
        if self.num_nodes < 1:
            bad("num_nodes", "must be >= 1")
        if not 1 <= self.num_chains <= self.num_nodes:
            bad("num_chains", f"must be in [1, num_nodes={self.num_nodes}]")
        if not 1 <= self.lottery_bits <= 32:
            bad("lottery_bits", "must be in [1, 32]")
        if self.delta < 1:
            bad("delta", "must be >= 1")
        if not 1 <= self.raft_delay_min <= self.raft_delay_max:
            bad("raft_delay_min", "need 1 <= raft_delay_min <= raft_delay_max")
        if self.raft_delay_max - self.raft_delay_min >= 2**64:  # the span of a bounded draw
            bad("raft_delay_max", "need raft_delay_max - raft_delay_min < 2**64")
        if not 1 <= self.election_timeout <= 2**64:
            bad("election_timeout", "must be in [1, 2**64]")
        if not 1 <= self.heartbeat_interval <= self.election_timeout:
            bad("heartbeat_interval", "must be in [1, election_timeout]")
        if self.block_interval < 1:
            bad("block_interval", "must be >= 1")
        if not 0 <= self.tx_rate < math.inf:
            bad("tx_rate", "must be finite and >= 0")
        if not 0 <= self.sensitive_fraction <= 1:
            bad("sensitive_fraction", "must be in [0, 1]")
        if self.run_duration < 1:
            bad("run_duration", "must be >= 1")
        if (int(self.tx_rate) + 1) * self.run_duration > 2**64:
            bad("tx_rate", "too high: need (int(tx_rate) + 1) * run_duration <= 2**64")
        if self.drain_window < 0:
            bad("drain_window", "must be >= 0")
        if self.max_batch < 1:
            bad("max_batch", "must be >= 1")
        if self.snapshot_interval < 1:
            bad("snapshot_interval", "must be >= 1")
        if not 1 <= self.num_seal_keys <= 2**32:  # a sealed payload's key id is a u32
            bad("num_seal_keys", "must be in [1, 2**32]")
        listed = set()
        for when, nid in self.crash_schedule:
            if when < 0:
                bad("crash_schedule", f"negative time {when}")
            if not 0 <= nid < self.num_nodes:
                bad("crash_schedule", f"unknown node {nid}")
            if nid in listed:
                bad("crash_schedule", f"node {nid} listed twice")
            listed.add(nid)


def _gap_table(frac: float, ticks: int) -> list[int]:
    """Thresholds mapping a u64 draw u to a Geometric(frac) gap, 1 + bisect_right(table, u).

    Entry g - 1 is 2^64 - floor((1 - frac)^g * 2^64), the powers taken by
    repeated IEEE multiplication (exactly rounded, no libm). The table ends
    where the tail reaches 0, or at `ticks` entries, past which a gap ends the run.
    """
    table = []
    survive = 1.0
    while len(table) < ticks:
        survive *= 1.0 - frac
        threshold = int(survive * 2.0**64)
        if not threshold:
            break
        table.append(2**64 - threshold)
    return table


def csv_bytes(header: str, rows) -> bytes:
    """One CSV file: the header, then each row (a tuple of its width) by one "%s,...,%s" line."""
    line = ",".join(["%s"] * (header.count(",") + 1)) + "\n"
    buf = io.StringIO()
    buf.write(header + "\n")
    for row in rows:
        buf.write(line % row)
    return buf.getvalue().encode()


def _quoted(cell: str) -> str:
    """A CSV cell per RFC 4180: quoted, its quotes doubled, if it holds a comma, quote or line break."""
    if any(c in cell for c in ',"\r\n'):
        return '"%s"' % cell.replace('"', '""')
    return cell


def beacon_csv(rows) -> bytes:
    """beacon.csv from (epoch, succeeded, certificates, seed or None, messages)."""
    return csv_bytes(
        "epoch,succeeded,num_certificates,seed,messages_sent",
        ((e, s, c, "" if seed is None else seed, m) for e, s, c, seed, m in rows),
    )


class Lottery:
    """One beacon run's enclaves, settled epoch by epoch, invoking only those that are due.

    An enclave is due at the epoch whose invocation reaches its next winning
    record or the end of its batch, and every enclave is due at epoch 0,
    when its first batch is read. Each invocation consumes one record, so
    the records before that one all lose: after each invocation the
    enclave's lapse() skips them, closing its gate on their epochs, and
    names its next due epoch. A heap holds (due epoch, node id, enclave).
    Each settle() takes the next epoch, from 0, pops only the enclaves due
    at it, in node id order, and invokes each through this module's
    invoke_beacon, so the rows equal those of invoking every live enclave
    every epoch.

    Liveness is the simulator's rule at each epoch's start tick: node n is
    down in epoch e iff crash_time[n] <= e * delta. An enclave that is down
    when it comes due leaves the heap for good, since faults are crash-stop.
    It leaves lapsed to the epoch before its due one, which may be past its
    crash: a restart must re-insert it with its record index advanced only
    by the epochs in which it was live.
    """

    def __init__(self, enclaves, crash_time=None, delta: int = 1):
        self._keys = {e.node_id: beacon_mod.tag_key(e.secret) for e in enclaves}
        self._crash_time = crash_time or [math.inf] * len(enclaves)
        self._delta = delta
        self._last = -1  # the last settled epoch
        self._heap = [(0, e.node_id, e) for e in enclaves]
        heapq.heapify(self._heap)

    def settle(self):
        """Invoke the enclaves due at the next epoch and lock its seed if one can be.

        The epoch is the one after the last settled, counted from 0 as the
        heap's due epochs are. Every certificate, valid or not, is
        broadcast to the other N - 1 nodes. The seed is the lowest rnd
        among the certificates whose epoch, node and tag verify against the
        directory, which keys each enclave's secret once (tag_key) and
        shares no state with the enclave. Returns the beacon.csv row
        (epoch, succeeded, valid certificates, seed or None, messages) and
        the certificates that failed verification.
        """
        epoch = self._last = self._last + 1
        heap, crash_time, start = self._heap, self._crash_time, epoch * self._delta
        certs = []
        while heap and heap[0][0] == epoch:
            _, nid, enclave = heap[0]
            if crash_time[nid] <= start:
                heapq.heappop(heap)
                continue
            if cert := invoke_beacon(enclave, epoch):
                certs.append(cert)
            heapq.heapreplace(heap, (enclave.lapse(), nid, enclave))
        keys = self._keys
        valid, forged = [], []
        for cert in certs:
            ok = cert.epoch == epoch and cert.node_id in keys
            if ok and beacon_mod.verify_certificate(cert, keys):
                valid.append(cert)
            else:
                forged.append(cert)
        seed = select_seed(valid)
        messages = len(certs) * (len(keys) - 1)
        return (epoch, int(seed is not None), len(valid), seed, messages), forged


# the header lines of the files verify-order reads back, which it checks and takes widths from
ORDER_HEADER = "position,rank,chain_id,height,block_hash,tx_count"
SNAPSHOTS_HEADER = (
    "time,node_id,chain_id,height,rank,next_rank,proposer_term,parent_hash,tx_root,block_hash"
)


def order_csv(rows) -> bytes:
    """order.csv from (rank, chain, height, block hash hex, tx count), numbered."""
    return csv_bytes(ORDER_HEADER, ((i, *row) for i, row in enumerate(rows)))


def snapshots_csv(rows) -> bytes:
    """snapshots.csv from (time, node, header, block hash) rows.

    The bytes of csv_bytes over each row's ten cells: time, node_id, then the
    header's chain_id, height, rank, next_rank, proposer_term, parent_hash,
    tx_root and block_hash, the last three in hex. A header recurs in the rows
    of every node that holds it, so its eight-cell line tail is formatted once,
    keyed by its block hash, and the "time,node_id," prefix once per run of
    rows with one (time, node).
    """
    tails: dict[bytes, str] = {}
    parts = [SNAPSHOTS_HEADER + "\n"]
    append = parts.append
    last_time = last_node = None
    for time, node, h, block_hash in rows:
        if time != last_time or node != last_node:
            last_time, last_node = time, node
            prefix = f"{time},{node},"
        tail = tails.get(block_hash)
        if tail is None:
            tail = tails[block_hash] = "%s,%s,%s,%s,%s,%s,%s,%s\n" % (
                h.chain_id,
                h.height,
                h.rank,
                h.next_rank,
                h.proposer_term,
                h.parent_hash.hex(),
                h.tx_root.hex(),
                block_hash.hex(),
            )
        append(prefix)
        append(tail)
    return "".join(parts).encode()


@dataclass
class SimTrace:
    """Everything one run produced: metrics, safety flags, and snapshots.

    Each output is declared once, here, with its default. A Simulation's
    handlers fill its record as the run goes; run() sets the committed and
    submitted totals and returns it.
    """

    config: SimConfig
    end_time: int
    workload_start: int = 0
    beacon_rows: list[tuple[int, int, int, int | None, int]] = field(default_factory=list)
    assignment: list[list[int]] = field(default_factory=list)
    committed_txs: dict[int, int] = field(default_factory=dict)
    committed_blocks: dict[int, int] = field(default_factory=dict)
    skipped_blocks: int = 0
    submitted_txs: int = 0
    latency_rows: list[tuple[int, int, int, int]] = field(default_factory=list)
    bar_rows: list[tuple[int, int, int]] = field(default_factory=list)
    message_counts: dict[str, int] = field(default_factory=dict)
    safety_flags: list[str] = field(default_factory=list)
    expected_stall: bool = False
    snapshot_rows: list[tuple[int, int, BlockHeader, bytes]] = field(default_factory=list)
    final_order: list[tuple[int, int, int, str, int]] = field(default_factory=list)
    sealed_verified: int = 0
    events_processed: int = 0
    event_rows: list[tuple] | None = None  # events.csv, in a traced run only

    def total_committed_txs(self) -> int:
        return sum(self.committed_txs.values())

    @property
    def window(self) -> int:
        """The proposal window: ticks from workload start to run_duration, at least 1."""
        return max(1, self.config.run_duration - self.workload_start)

    def throughput(self) -> float:
        return self.total_committed_txs() / self.window

    def latency_stats(self) -> tuple[float, float]:
        """(mean, 95th percentile) of confirmation latency, 0 if no samples."""
        samples = [row[3] for row in self.latency_rows]
        if not samples:
            return 0.0, 0.0
        ordered = sorted(samples)
        p95 = ordered[int(0.95 * (len(ordered) - 1))]
        return math.fsum(samples) / len(samples), float(p95)

    def beacon_repeat_rate(self) -> float:
        if not self.beacon_rows:
            return 0.0
        repeats = sum(1 for row in self.beacon_rows if not row[1])
        return repeats / len(self.beacon_rows)

    # -- serialization ----------------------------------------------------

    def csv_outputs(self) -> dict[str, bytes]:
        """All output files as name -> bytes; the determinism unit."""
        out: dict[str, bytes] = {}
        window = self.window
        out["throughput.csv"] = csv_bytes(
            "chain_id,committed_blocks,committed_txs,window,txs_per_tick",
            [
                (
                    c,
                    self.committed_blocks.get(c, 0),
                    self.committed_txs.get(c, 0),
                    window,
                    f"{self.committed_txs.get(c, 0) / window:.6f}",
                )
                for c in range(self.config.num_chains)
            ],
        )
        out["latency.csv"] = csv_bytes(
            "nonce,submit_time,confirm_time,latency", self.latency_rows
        )
        out["confirmbar.csv"] = csv_bytes("time,node_id,confirm_bar", self.bar_rows)
        out["beacon.csv"] = beacon_csv(self.beacon_rows)
        out["safety.csv"] = csv_bytes("flag", [(_quoted(f),) for f in self.safety_flags])
        out["snapshots.csv"] = snapshots_csv(self.snapshot_rows)
        out["order.csv"] = order_csv(self.final_order)
        if self.event_rows is not None:
            out["events.csv"] = csv_bytes(
                "time,seq,kind,node_id,detail", self.event_rows
            )
        return out

    def summary_text(self) -> str:
        mean_lat, p95_lat = self.latency_stats()
        lines = [
            "run summary",
            f"  nodes={self.config.num_nodes} chains={self.config.num_chains} "
            f"seed={self.config.seed}",
            f"  beacon: {len(self.beacon_rows)} epoch(s), "
            f"empirical repeat rate {self.beacon_repeat_rate():.4f}, "
            f"closed form {beacon_mod.repeat_probability(self.config.num_nodes, self.config.lottery_bits):.4f}",
            f"  workload start t={self.workload_start}, horizon t={self.end_time}",
            f"  submitted txs: {self.submitted_txs}",
            f"  committed txs: {self.total_committed_txs()} "
            f"({self.throughput():.4f}/tick over the proposal window)",
            f"  committed blocks: {sum(self.committed_blocks.values())} "
            f"(+{self.skipped_blocks} stale proposals skipped)",
            f"  latency: mean {mean_lat:.2f}, p95 {p95_lat:.2f} "
            f"({len(self.latency_rows)} samples)",
            f"  sealed round-trips verified: {self.sealed_verified}",
            "  messages: "
            + " ".join(f"{k}={v}" for k, v in sorted(self.message_counts.items())),
            f"  safety flags: {len(self.safety_flags)}",
        ]
        if self.expected_stall:
            lines.append(
                "  note: expected-stall (a committee lost quorum to crashes; "
                "liveness waived, safety still enforced)"
            )
        for flag in self.safety_flags:
            lines.append(f"  FLAG {flag}")
        return "\n".join(lines) + "\n"


# heap event kinds, dispatched by integer for heap-compare speed; the deliveries first
_MSG, _GOSSIP, _TIMER, _PROPOSE, _SNAPSHOT = range(5)

_KIND_NAMES = {
    _MSG: "msg",
    _GOSSIP: "gossip",
    _TIMER: "timer",
    _PROPOSE: "propose",
    _SNAPSHOT: "snapshot",
}

# one client transaction's workload draws: chain, sensitivity and fee u64s, the
# payload, then the seal-key u64, which only a sealed transaction consumes
_TX_DRAWS = struct.Struct(">QQQ24sQ")
_AD = struct.Struct(">QQ").pack  # a sealed payload's associated data: nonce, fee


class _Node:
    """Simulator-side wrapper: raft instance plus ledger height, frontier, and buffers."""

    __slots__ = (
        "node_id", "chain_id", "raft", "height", "applied", "led_term",
        "view", "buffer", "written", "timer_at", "timer_seq", "queued",
    )

    def __init__(self, node_id: int, chain_id: int, raft: RaftNode, store: GlobalView):
        self.node_id = node_id
        self.chain_id = chain_id
        self.raft = raft
        self.height = 0  # blocks of the chain's ledger this replica has applied
        self.applied = 0
        self.led_term = 0
        self.view = Frontier(store)
        for chain, headers in enumerate(store.chains):
            self.view.advance(chain, headers[0].next_rank)  # every genesis
        self.buffer: list[dict[int, BlockHeader]] = [{} for _ in store.chains]
        self.written = [0] * len(store.chains)  # headers per chain in snapshots
        self.timer_at, self.timer_seq = None, 0  # the timer fires at (deadline, seq)
        self.queued: tuple[int, int] | None = None  # the timer heap entry it keeps


class Simulation:
    def __init__(self, config: SimConfig, *, trace: bool = False):
        config.validate()
        self.cfg = config
        self.end_time = config.run_duration + config.drain_window
        self._seq = 0
        self.queue: list[tuple] = []
        self.crash_time = [math.inf] * config.num_nodes  # see the module docstring
        for when, nid in config.crash_schedule:
            if when <= self.end_time:
                self.crash_time[nid] = when
        self.out = SimTrace(config, self.end_time, event_rows=[] if trace else None)

        self._delay = Stream.from_labels("delays", config.seed)
        self._gossip = Stream.from_labels("gossip", config.seed)
        # a delay is raft_delay_min + next_below(_delay_span): see rng.below_limit
        self._delay_span = config.raft_delay_max - config.raft_delay_min + 1
        self._delay_limit = below_limit(self._delay_span)
        self._workload = Stream.from_labels("workload", config.seed)
        self.directory = KeyDirectory(config.num_seal_keys, Stream.from_labels("seal", config.seed))
        self.plaintexts: list[bytes | None] = []  # by nonce; None if not sealed
        self.submit_times: list[int] = []  # by nonce
        self.sampled = [0] * config.num_chains  # by chain: top height whose txs are sampled
        self.pending: dict[int, list[Transaction]] = {
            c: [] for c in range(config.num_chains)
        }
        self.canonical: dict[int, ChainLedger] = {}
        self.store = GlobalView(config.num_chains)  # every node's view is a frontier over it
        # (chain, index) -> (command, block or DecodeError, height or None if skipped)
        self.committed_cmds: dict[tuple[int, int], tuple] = {}
        self.monitors = [SafetyMonitor(c, self.out.safety_flags) for c in range(config.num_chains)]

    # -- plumbing ---------------------------------------------------------

    def _push(self, time: int, kind: int, nid: int, payload) -> None:
        self._seq += 1
        heapq.heappush(self.queue, (time, self._seq, kind, nid, payload))

    def _count(self, name: str, n: int = 1) -> None:
        counts = self.out.message_counts
        counts[name] = counts.get(name, 0) + n

    def _flag(self, text: str) -> None:
        self.out.safety_flags.append(text)

    def _arm_timer(self, node: _Node, now: int) -> None:
        """Move the node's timer to its deadline; it fires at the seq reserved here.

        Only a first or an earlier deadline pushes a heap entry. An entry that
        pops before the deadline, or at it with an older seq, is no event: run
        pushes it again at the timer's (deadline, seq).
        """
        deadline = node.raft.next_deadline()
        if deadline < now:
            deadline = now
        if deadline > self.end_time or deadline == node.timer_at:
            return
        self._seq += 1
        node.timer_at, node.timer_seq = deadline, self._seq
        if node.queued is None or deadline < node.queued[0]:
            self._queue_timer(node)

    def _queue_timer(self, node: _Node) -> None:
        node.queued = (node.timer_at, node.timer_seq)
        heapq.heappush(self.queue, (*node.queued, _TIMER, node.node_id, None))

    # -- beacon phase ------------------------------------------------------

    def _run_beacon_phase(self) -> int:
        cfg = self.cfg
        enclaves = make_beacon_nodes(cfg.num_nodes, cfg.lottery_bits, cfg.seed)
        lottery = Lottery(enclaves, self.crash_time, cfg.delta)
        for epoch in range(self.end_time // cfg.delta):  # each epoch ends by the horizon
            row, forged = lottery.settle()
            self._count("BeaconCertificate", row[4])
            for cert in forged:
                self._flag(f"beacon-certificate epoch={epoch} node={cert.node_id}")
            self.out.beacon_rows.append(row)
            if row[1]:
                self.locked_seed = row[3]
                return (epoch + 1) * cfg.delta
        raise SimError(f"beacon failed to lock a seed by the horizon t={self.end_time}")

    # -- workload ----------------------------------------------------------

    def _generate_workload(self, start: int) -> None:
        cfg = self.cfg
        wl = self._workload
        peek, skip, next_u64 = wl.peek, wl.skip, wl.next_u64
        whole = int(cfg.tx_rate)
        frac = cfg.tx_rate - whole
        gaps = _gap_table(frac, cfg.run_duration - start) if frac else []
        # the next tick with one arrival more; each gap is 1 + bisect_right(gaps, draw)
        extra = start + bisect_right(gaps, next_u64()) if frac else cfg.run_duration
        num_chains, num_keys = cfg.num_chains, cfg.num_seal_keys
        keys = self.directory.keys
        chain_limit, fee_limit = below_limit(num_chains), below_limit(1000)
        key_limit = below_limit(num_keys)
        sensitive_limit = chance_limit(cfg.sensitive_fraction)
        plaintexts, submit_times, new = self.plaintexts, self.submit_times, tuple.__new__
        pending = self.pending
        sealed_size = _TX_DRAWS.size
        nonce = 0
        t = start if whole else extra
        while t < cfg.run_duration:
            k = whole
            if t == extra:
                k += 1
                extra += 1 + bisect_right(gaps, next_u64())
            for _ in range(k):
                # one read; the sequential draws only where a draw it uses would reject
                c, s, f, payload, key_draw = peek(_TX_DRAWS)
                sensitive = s < sensitive_limit
                if c < chain_limit and f < fee_limit and (not sensitive or key_draw < key_limit):
                    skip(sealed_size if sensitive else sealed_size - 8)
                    chain, fee, key_id = c % num_chains, f % 1000, key_draw % num_keys
                else:
                    chain = wl.next_below(num_chains)
                    sensitive = wl.chance(cfg.sensitive_fraction)
                    fee = wl.next_below(1000)
                    payload = wl.next_bytes(24)
                    key_id = wl.next_below(num_keys) if sensitive else 0
                if sensitive:
                    plaintexts.append(payload)
                    payload = seal(keys[key_id], payload, _AD(nonce, fee))
                else:
                    plaintexts.append(None)
                # tuple.__new__ skips Transaction's Python-level __new__, one call per tx
                pending[chain].append(new(Transaction, (payload, sensitive, fee, nonce)))
                nonce += 1
            submit_times += [t] * k
            t = t + 1 if whole else extra
        first = self._seq + 1  # the transaction of nonce n is the event of seq first + n
        self._seq += nonce
        out = self.out
        out.events_processed += nonce
        if out.event_rows is not None:
            out.event_rows += [
                (submit_times[tx.nonce], first + tx.nonce, "client", chain, "client")
                for chain, txs in pending.items() for tx in txs
            ]

    # -- raft interaction --------------------------------------------------

    def _after_raft(self, node: _Node, now: int, outgoing) -> None:
        """Send what a Raft handler returned, then apply new commits and re-arm the timer."""
        r = node.raft
        if r.role is LEADER and r.current_term != node.led_term:
            node.led_term = r.current_term
            self.monitors[node.chain_id].leader(r)
            # a no-op entry lets the new leader commit inherited entries
            outgoing = outgoing + r.client_submit(b"", now)
        if outgoing:  # each send: its delay draw, its count and its heap entry
            next_u64, limit = self._delay.next_u64, self._delay_limit
            lo, span = self.cfg.raft_delay_min, self._delay_span
            src, counts, queue, seq = node.node_id, self.out.message_counts, self.queue, self._seq
            for dst, msg in outgoing:
                kind = type(msg)
                if kind is VoteReply and msg.granted:
                    self.monitors[node.chain_id].vote(src, msg.term, dst)
                v = next_u64()
                while v >= limit:
                    v = next_u64()
                name = kind.__name__
                counts[name] = counts.get(name, 0) + 1
                seq += 1
                heapq.heappush(queue, (now + lo + v % span, seq, _MSG, dst, (src, msg)))
            self._seq = seq
        if r.commit_index != node.applied:  # a fall is flagged, and applies nothing
            self.monitors[node.chain_id].commit(r)
            self._apply_committed(node, now)
        self._arm_timer(node, now)

    def _apply_committed(self, node: _Node, now: int) -> None:
        r = node.raft
        while node.applied < r.commit_index:
            entry = r.log[node.applied]
            node.applied += 1
            if not entry.command:
                continue
            key = (node.chain_id, entry.index)
            seen = self.committed_cmds.get(key)
            appender = seen is None
            if appender:
                seen = self.committed_cmds[key] = self._append_committed(
                    node.chain_id, entry.command
                )
            if seen[0] != entry.command:  # replicas share one object: an identity check
                self._flag(
                    f"state-machine-safety chain={node.chain_id} index={entry.index}"
                )
                continue
            _, block, height = seen
            if isinstance(block, DecodeError):
                self._flag(f"command-decode chain={node.chain_id}: {block}")
                continue
            if height is None:
                continue  # a stale proposal, skipped by every replica
            if height != node.height + 1:
                self._flag(
                    f"ledger-divergence chain={node.chain_id} node={node.node_id} "
                    f"index={entry.index} height={height} expected={node.height + 1}"
                )
                continue
            node.height = height
            if height >= node.view.heights[node.chain_id]:
                self._ingest_header(node, block.header, now)
            elif height > self.sampled[node.chain_id]:  # gossip brought the header first
                self._sample_latency(node, now)
            if appender:
                self._gossip_block(node, block.header, now)

    def _append_committed(self, chain: int, command: bytes):
        """Decode a committed command and append it to the chain's ledger."""
        try:
            block = decode_block(command)
        except DecodeError as exc:
            return command, exc, None
        ledger = self.canonical[chain]
        try:
            append_block(ledger, block)
        except LedgerError:
            self.out.skipped_blocks += 1  # a stale proposal from a superseded leader
            return command, block, None
        self.store.add(block.header, ledger.hashes[-1])
        return command, block, block.header.height

    # -- views and gossip ----------------------------------------------------

    def _ingest_header(self, node: _Node, header: BlockHeader, now: int) -> None:
        view, store = node.view, self.store
        chain, height = header.chain_id, header.height
        held = view.heights[chain]
        if height < held:
            if not store.holds(header):
                self._flag(f"view-divergence node={node.node_id} chain={chain} height={height}")
            return
        buf = node.buffer[chain]
        buf.setdefault(height, header)
        bar, tip = view.bar, held
        while tip in buf:
            nxt = buf.pop(tip)
            if not store.holds(nxt):  # a fork, or an orphan past the store's tip
                self._flag(f"header-linkage node={node.node_id} chain={chain} height={tip}")
                break
            view.advance(chain, nxt.next_rank)
            tip += 1
        if view.bar > bar:
            self.out.bar_rows.append((now, node.node_id, view.bar))
            self._sample_latency(node, now)

    def _gossip_block(self, node: _Node, header: BlockHeader, now: int) -> None:
        next_u64, limit = self._gossip.next_u64, self._delay_limit
        lo, span = self.cfg.raft_delay_min, self._delay_span
        src, crash_time, queue, seq = node.node_id, self.crash_time, self.queue, self._seq
        for dst in range(self.cfg.num_nodes):
            if dst == src or crash_time[dst] <= now:
                continue
            v = next_u64()
            while v >= limit:
                v = next_u64()
            seq += 1
            heapq.heappush(queue, (now + lo + v % span, seq, _GOSSIP, dst, header))
        if seq > self._seq:
            self._count("Gossip", seq - self._seq)
            self._seq = seq

    def _sample_latency(self, node: _Node, now: int) -> None:
        """Sample txs of the heights the node applied that rank below its bar."""
        chain = node.chain_id
        top = min(bisect_left(self.store.refs[chain], (node.view.bar,)), node.height + 1)
        blocks, submit_times = self.canonical[chain].blocks, self.submit_times
        rows = self.out.latency_rows
        for height in range(self.sampled[chain] + 1, top):
            for tx in blocks[height].transactions:
                submit = submit_times[tx.nonce]
                rows.append((tx.nonce, submit, now, now - submit))
            self.sampled[chain] = height

    # -- event handlers --------------------------------------------------------

    def _on_propose(self, chain: int, now: int) -> None:
        committee = self.assignment[chain]
        leaders = [
            self.nodes[n]
            for n in committee
            if self.crash_time[n] > now and self.nodes[n].raft.role is LEADER
        ]
        if not leaders:
            return
        node = max(leaders, key=lambda nd: (nd.raft.current_term, nd.node_id))
        r = node.raft
        # propose only from a fully settled log: everything committed and
        # applied, so the new block extends the real tip
        if r.commit_index != len(r.log) or node.applied != r.commit_index:
            return
        queue, submit_times = self.pending[chain], self.submit_times
        # a tick's arrivals take later seqs than its proposals: take those submitted before now;
        # with none, the empty block still catches the chain's rank up, so the bar can rise
        n = bisect_left(
            queue, now, hi=min(len(queue), self.cfg.max_batch),
            key=lambda tx: submit_times[tx.nonce],
        )
        txs = queue[:n]
        del queue[:n]
        rank, next_rank = propose_rank_fields(node.view, chain)
        block = new_block(
            chain_id=chain,
            height=node.height + 1,
            parent_hash=self.canonical[chain].hashes[node.height],
            rank=rank,
            next_rank=next_rank,
            transactions=txs,
            proposer_term=r.current_term,
        )
        out = r.client_submit(encode_block(block), now)
        self._after_raft(node, now, out)

    def _on_snapshot(self, now: int) -> None:
        rows, chains, refs = self.out.snapshot_rows, self.store.chains, self.store.refs
        for node in self.nodes:
            if self.crash_time[node.node_id] <= now:
                continue
            written = node.written
            for chain, height in enumerate(node.view.heights):
                headers, chain_refs = chains[chain], refs[chain]
                for i in range(written[chain], height):
                    rows.append((now, node.node_id, headers[i], chain_refs[i].block_hash))
                written[chain] = height

    # -- main loop ----------------------------------------------------------

    def run(self) -> SimTrace:
        cfg, out = self.cfg, self.out
        t_start = out.workload_start = self._run_beacon_phase()
        self.assignment = out.assignment = assign_chains(
            self.locked_seed, cfg.num_nodes, cfg.num_chains
        )
        chain_of = {nid: c for c, members in enumerate(self.assignment) for nid in members}

        for chain in range(cfg.num_chains):
            ledger = self.canonical[chain] = ChainLedger(chain)
            append_block(ledger, make_genesis(chain))
            self.store.add(ledger.blocks[0].header, ledger.hashes[0])

        self.nodes = [
            _Node(
                nid,
                chain_of[nid],
                RaftNode(
                    nid,
                    self.assignment[chain_of[nid]],
                    cfg.election_timeout,
                    cfg.heartbeat_interval,
                    Stream.from_labels("timeout", cfg.seed, nid),
                    now=t_start,
                ),
                self.store,
            )
            for nid in range(cfg.num_nodes)
        ]

        crash_time, end_time, event_rows = self.crash_time, self.end_time, out.event_rows
        for when, nid in cfg.crash_schedule:  # each reserves a seq before any other
            self._seq += 1
            if when <= end_time:
                out.events_processed += 1
                if event_rows is not None:
                    event_rows.append((when, self._seq, "crash", nid, "crash"))
        # a committee stalls once fewer than a quorum of its members are live by the horizon
        out.expected_stall = any(
            sum(crash_time[n] > end_time for n in members) < quorum_threshold(len(members))
            for members in self.assignment
        )

        for node in self.nodes:
            self._arm_timer(node, t_start)
        t = t_start + cfg.block_interval
        while t <= cfg.run_duration:
            for chain in range(cfg.num_chains):
                self._push(t, _PROPOSE, chain, None)
            t += cfg.block_interval
        t = t_start + cfg.snapshot_interval
        while t <= cfg.run_duration:
            self._push(t, _SNAPSHOT, -1, None)
            t += cfg.snapshot_interval
        self._generate_workload(t_start)

        queue, nodes, heappop = self.queue, self.nodes, heapq.heappop
        after_raft = self._after_raft
        events = 0
        while queue:
            time, seq, kind, nid, payload = heappop(queue)
            if kind == _TIMER:
                node = nodes[nid]
                if node.queued == (time, seq):
                    node.queued = None
                up = crash_time[nid] > time
                if time != node.timer_at or seq != node.timer_seq or not up:
                    # an early or superseded entry, or a down node's: no event
                    if up and node.queued is None and node.timer_at is not None:
                        self._queue_timer(node)
                    continue
            events += 1
            if event_rows is not None:
                detail = _KIND_NAMES[kind]
                if kind == _MSG:
                    detail = f"{type(payload[1]).__name__}<-{payload[0]}"
                elif kind == _GOSSIP:
                    detail = f"header c{payload.chain_id}h{payload.height}"
                event_rows.append((time, seq, _KIND_NAMES[kind], nid, detail))

            # timers, proposals and snapshots stop by the horizon; deliveries run past it,
            # so views converge
            if kind <= _GOSSIP and crash_time[nid] <= time:
                continue  # a delivery to a down node: an event that does nothing
            if kind == _MSG:
                src, msg = payload
                node = nodes[nid]
                after_raft(node, time, node.raft.handle_message(src, msg, time))
            elif kind == _GOSSIP:
                self._ingest_header(nodes[nid], payload, time)
            elif kind == _TIMER:
                node.timer_at = None
                after_raft(node, time, node.raft.tick(time))
            elif kind == _PROPOSE:
                self._on_propose(nid, time)
            elif kind == _SNAPSHOT:
                self._on_snapshot(time)
        out.events_processed += events

        if event_rows is not None:
            event_rows.sort()  # the set-up rows into their places
        self._final_checks()
        out.committed_txs = {
            c: sum(len(b.transactions) for b in ledger.blocks)
            for c, ledger in self.canonical.items()
        }
        out.committed_blocks = {c: len(ledger.blocks) - 1 for c, ledger in self.canonical.items()}
        out.submitted_txs = len(self.submit_times)
        return out

    # -- end-of-run verification ------------------------------------------

    def _final_checks(self) -> None:
        honest = [n for n in self.nodes if self.crash_time[n.node_id] > self.end_time]
        try:
            validate_view(self.store)
        except OrderingError as exc:
            self._flag(f"final-view: {exc}")

        out = self.out
        if honest:
            first = honest[0]
            order = first.view.order  # every order is a prefix of the store's
            for other in honest[1:]:
                if len(other.view.order) != len(order):
                    self._flag(f"final-order-divergence nodes={first.node_id},{other.node_id}")
                    break
            if order != reference_total_order(first.view):
                self._flag(f"prefix-stability node={first.node_id} t=final")
            for rank, chain, height, bh in order:
                tx_count = len(self.canonical[chain].blocks[height].transactions)
                out.final_order.append((rank, chain, height, bh.hex(), tx_count))

        for monitor, members in zip(self.monitors, self.assignment):
            monitor.check_logs([self.nodes[n].raft for n in members])

        for ledger in self.canonical.values():
            for block in ledger.blocks:
                for tx in block.transactions:
                    if not tx.sensitive:
                        continue
                    try:
                        plain = self.directory.unseal(tx.payload, _AD(tx.nonce, tx.fee))
                    except SealingError as exc:
                        self._flag(f"sealed-roundtrip nonce={tx.nonce}: {exc}")
                        continue
                    if plain != self.plaintexts[tx.nonce]:
                        self._flag(f"sealed-roundtrip nonce={tx.nonce}: wrong plaintext")
                    else:
                        out.sealed_verified += 1


def run_simulation(config: SimConfig, *, trace: bool = False) -> SimTrace:
    """Execute one deterministic run; pure function of the config (trace adds events.csv)."""
    return Simulation(config, trace=trace).run()


class ScalingPoint(NamedTuple):
    chains: int
    nodes: int
    committed_txs: int
    window: int
    throughput: float


def measure_scaling(base: SimConfig, chain_counts: list[int]) -> list[ScalingPoint]:
    """Throughput at several chain counts with per-chain load held fixed.

    The base config gives both per-chain figures: its committee size,
    num_nodes / num_chains, which must be whole, and its load per chain,
    tx_rate / num_chains. Each point runs that committee on every chain and
    scales the offered load with the chain count, so per-chain conditions
    are identical and only the degree of parallelism varies.
    """
    committee_size, extra = divmod(base.num_nodes, base.num_chains)
    if extra:
        raise ConfigError(
            f"num_nodes: scale needs a multiple of num_chains={base.num_chains}, "
            f"got {base.num_nodes}"
        )
    per_chain_rate = base.tx_rate / base.num_chains
    points = []
    for c in chain_counts:
        cfg = replace(
            base,
            num_chains=c,
            num_nodes=committee_size * c,
            tx_rate=per_chain_rate * c,
        )
        trace = run_simulation(cfg)
        points.append(
            ScalingPoint(
                chains=c,
                nodes=cfg.num_nodes,
                committed_txs=trace.total_committed_txs(),
                window=trace.window,
                throughput=trace.throughput(),
            )
        )
    return points
