"""Deterministic discrete-event simulation of the whole protocol stack.

One run executes: (1) beacon epochs until a seed locks, each costing one
synchronous round of `delta` ticks, the last ending by end_time or the run
fails; (2) committee assignment from the locked seed; (3) per-chain Raft with
leaders batching client transactions into blocks on a timer, rank fields
taken from the proposer's current view; (4) committed-header gossip, from the
replica that appends it, to every other node, which drives each node's
ConfirmBar and total order; (5) metric and safety collection.

Time is an integer tick counter. Events execute in (time, insertion
sequence) order off a single heap, so a run is a pure function of its
SimConfig: identical configs give byte-identical CSV outputs. The client
workload is drawn before the run starts, as one heap entry per tick with
arrivals: it holds that tick's transactions in nonce order and reserves one
sequence number for each, and each transaction counts as one event. The
ticks that get one arrival more than int(tx_rate) are drawn as geometric
gaps, one draw each. Submit times are fixed at generation: every tick with
arrivals is before run_duration <= end_time, and only the flush after
end_time drops events, so each entry is processed at its own tick.
SimConfig.validate bounds (int(tx_rate) + 1) * run_duration by 2**64, so
every nonce fits in a u64. A node's superseded Raft deadline is not an event.

Two delay regimes: the beacon phase is synchronous with bound delta, the
Raft/gossip phase draws per-message delays uniformly from
[raft_delay_min, raft_delay_max]. Raft messages and gossip draw them from
separate streams, so a change to gossip moves no Raft delay. Each delay is
raft_delay_min + next_below(span), read by next_below's loop inlined on the
stream's next_u64 with a limit computed once per run (see rng). Crashes are
crash-stop, at most one per node, and liveness is one rule: node n is down at
tick t iff Simulation.crash_time[n] <= t, and from then on it receives nothing,
fires nothing, sends nothing, and never recovers. A crash's heap entry is an
event only, pushed before all others, so it pops first at its tick. Past
end_time liveness is read at end_time: a crash scheduled later never happens.

The simulator is also the property-test vehicle: beacon certificates,
election safety, one vote per term, log matching, state-machine safety,
commit quorum, rank discipline, prefix stability of the total order, and
sealed round-trip integrity are all checked during the run and recorded as
safety flags, which must stay empty.

Each chain has one ledger. The first replica to apply a committed entry
decodes it, appends it to the ledger and to the run's one header store, and
gossips its header to every other live node, so each header is sent at most
N-1 times; every other replica checks that its own command has the same bytes
and keeps only its height in that ledger. Each node's view is a Frontier over
the store, so every order is a prefix of the store's by construction, not a
flag. Latency and transaction counts are read from frontiers and ledgers.

A snapshot writes, for each live node, only the headers that entered its
view since its previous snapshot; the view of node n at time t is the union
of n's snapshot rows up to t.
"""

from __future__ import annotations

import heapq
import io
import math
import struct
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace

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
from .raft import LEADER, RaftNode, VoteReply, quorum_threshold
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
    empty_blocks: bool = True
    num_seal_keys: int = 4
    max_beacon_epochs: int = 10000
    trace_events: bool = False

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
        if self.election_timeout < 1:
            bad("election_timeout", "must be >= 1")
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
        if self.num_seal_keys < 1:
            bad("num_seal_keys", "must be >= 1")
        if self.max_beacon_epochs < 1:
            bad("max_beacon_epochs", "must be >= 1")
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


def beacon_csv(rows) -> bytes:
    """beacon.csv from (epoch, succeeded, certificates, seed or None, messages)."""
    return csv_bytes(
        "epoch,succeeded,num_certificates,seed,messages_sent",
        ((e, s, c, "" if seed is None else seed, m) for e, s, c, seed, m in rows),
    )


def settle_epoch(enclaves, epoch: int, keys: dict[int, bytes]):
    """Invoke each enclave once for the epoch and lock its seed if one can be.

    Every certificate, valid or not, is broadcast to the other len(keys) - 1
    nodes. The seed is the lowest rnd among the certificates whose epoch,
    node and tag verify against keys. Returns the beacon.csv row (epoch,
    succeeded, valid certificates, seed or None, messages) and the
    certificates that failed verification.
    """
    certs = [cert for e in enclaves if (cert := invoke_beacon(e, epoch))]
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


def order_csv(rows) -> bytes:
    """order.csv from (rank, chain, height, block hash hex, tx count), numbered."""
    return csv_bytes(
        "position,rank,chain_id,height,block_hash,tx_count",
        ((i, *row) for i, row in enumerate(rows)),
    )


@dataclass
class SimTrace:
    """Everything one run produced: metrics, safety flags, and snapshots."""

    config: SimConfig
    workload_start: int
    end_time: int
    beacon_rows: list[tuple[int, int, int, int | None, int]]
    assignment: list[list[int]]
    committed_txs: dict[int, int]
    committed_blocks: dict[int, int]
    skipped_blocks: int
    submitted_txs: int
    latency_rows: list[tuple[int, int, int, int]]
    bar_rows: list[tuple[int, int, int]]
    message_counts: dict[str, int]
    safety_flags: list[str]
    expected_stall: bool
    snapshot_rows: list[tuple[int, int, BlockHeader, bytes]]  # time, node, header, hash
    final_order: list[tuple[int, int, int, str, int]]
    sealed_verified: int
    events_processed: int
    event_rows: list[tuple] | None = None

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
        out["safety.csv"] = csv_bytes("flag", [(f,) for f in self.safety_flags])
        out["snapshots.csv"] = csv_bytes(
            "time,node_id,chain_id,height,rank,next_rank,proposer_term,"
            "parent_hash,tx_root,block_hash",
            (
                (
                    t,
                    n,
                    h.chain_id,
                    h.height,
                    h.rank,
                    h.next_rank,
                    h.proposer_term,
                    h.parent_hash.hex(),
                    h.tx_root.hex(),
                    bh.hex(),
                )
                for t, n, h, bh in self.snapshot_rows
            ),
        )
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


# event kinds, dispatched by integer for heap-compare speed; the deliveries first
_MSG, _GOSSIP, _TIMER, _PROPOSE, _CLIENT, _CRASH, _SNAPSHOT = range(7)

_KIND_NAMES = {
    _MSG: "msg",
    _GOSSIP: "gossip",
    _TIMER: "timer",
    _PROPOSE: "propose",
    _CLIENT: "client",
    _CRASH: "crash",
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
    def __init__(self, config: SimConfig):
        config.validate()
        self.cfg = config
        self.now = 0
        self.end_time = config.run_duration + config.drain_window
        self._seq = 0
        self.queue: list[tuple] = []
        self.crash_time = [math.inf] * config.num_nodes  # see the module docstring
        for when, nid in config.crash_schedule:
            self.crash_time[nid] = when
        self.flags: list[str] = []
        self.counts: dict[str, int] = {}
        self.events_processed = 0
        self.event_rows: list[tuple] | None = [] if config.trace_events else None

        self._delay = Stream.from_labels("delays", config.seed)
        self._gossip = Stream.from_labels("gossip", config.seed)
        # a delay is raft_delay_min + next_below(_delay_span): see rng.below_limit
        self._delay_span = config.raft_delay_max - config.raft_delay_min + 1
        self._delay_limit = below_limit(self._delay_span)
        self._workload = Stream.from_labels("workload", config.seed)
        self.directory = KeyDirectory.generate(
            config.num_seal_keys, Stream.from_labels("seal", config.seed)
        )
        self.plaintexts: list[bytes | None] = []  # by nonce; None if not sealed
        self.submit_times: list[int] = []  # by nonce
        self.sampled = [0] * config.num_chains  # by chain: top height whose txs are sampled
        self.latency_rows: list[tuple[int, int, int, int]] = []
        self.bar_rows: list[tuple[int, int, int]] = []
        self.snapshot_rows: list[tuple[int, int, BlockHeader, bytes]] = []
        self.beacon_rows: list[tuple[int, int, int, int | None, int]] = []
        self.pending: dict[int, list[Transaction]] = {
            c: [] for c in range(config.num_chains)
        }
        self.canonical: dict[int, ChainLedger] = {}
        self.store = GlobalView(config.num_chains)  # every node's view is a frontier over it
        # (chain, index) -> (command, block or DecodeError, height or None if skipped)
        self.committed_cmds: dict[tuple[int, int], tuple] = {}
        self.skipped = 0
        self.election_winners: dict[tuple[int, int], int] = {}
        self.votes: dict[tuple[int, int, int], int] = {}  # (chain, term, voter) -> candidate

    # -- plumbing ---------------------------------------------------------

    def _push(self, time: int, kind: int, nid: int, payload) -> None:
        self._seq += 1
        heapq.heappush(self.queue, (time, self._seq, kind, nid, payload))

    def _count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def _flag(self, text: str) -> None:
        self.flags.append(text)

    def _arm_timer(self, node: _Node, now: int) -> None:
        """Move the node's timer to its deadline; it fires at the seq reserved here.

        Only a first or an earlier deadline pushes a heap entry. An entry that
        pops before the deadline is no event: run pushes it again at the timer.
        """
        deadline = max(node.raft.next_deadline(), now)
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
        keys = {enclave.node_id: enclave.secret for enclave in enclaves}
        for epoch in range(cfg.max_beacon_epochs):
            t0 = epoch * cfg.delta
            if t0 + cfg.delta > self.end_time:  # no epoch may start past the horizon
                raise SimError(f"beacon failed to lock a seed by the horizon t={self.end_time}")
            live = [e for e in enclaves if self.crash_time[e.node_id] > t0]
            row, forged = settle_epoch(live, epoch, keys)
            self._count("BeaconCertificate", row[4])
            for cert in forged:
                self._flag(f"beacon-certificate epoch={epoch} node={cert.node_id}")
            self.beacon_rows.append(row)
            if row[1]:
                self.locked_seed = row[3]
                return (epoch + 1) * cfg.delta
        raise SimError(f"beacon failed to lock a seed in {cfg.max_beacon_epochs} epochs")

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
        keys = [self.directory.get(k) for k in range(num_keys)]
        chain_limit, fee_limit = below_limit(num_chains), below_limit(1000)
        key_limit = below_limit(num_keys)
        sensitive_limit = chance_limit(cfg.sensitive_fraction)
        plaintexts, submit_times, new = self.plaintexts, self.submit_times, tuple.__new__
        sealed_size = _TX_DRAWS.size
        nonce = 0
        t = start if whole else extra
        while t < cfg.run_duration:
            k = whole
            if t == extra:
                k += 1
                extra += 1 + bisect_right(gaps, next_u64())
            arrivals = []
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
                # fee < 1000, and SimConfig.validate keeps every nonce below 2**64
                arrivals.append((chain, new(Transaction, (payload, sensitive, fee, nonce))))
                nonce += 1
            # one entry per tick: its transactions take seqs seq .. seq + k - 1
            heapq.heappush(self.queue, (t, self._seq + 1, _CLIENT, -1, arrivals))
            self._seq += k
            submit_times += [t] * k  # the entry is processed at t < run_duration <= end_time
            t = t + 1 if whole else extra

    # -- raft interaction --------------------------------------------------

    def _after_raft(self, node: _Node, now: int, outgoing) -> None:
        """Send what a Raft handler returned, then apply new commits and re-arm the timer."""
        r = node.raft
        if r.role is LEADER and r.current_term != node.led_term:
            node.led_term = r.current_term
            key = (node.chain_id, r.current_term)
            holder = self.election_winners.setdefault(key, node.node_id)
            if holder != node.node_id:
                self._flag(
                    f"election-safety chain={node.chain_id} term={r.current_term} "
                    f"leaders={holder},{node.node_id}"
                )
            # a no-op entry lets the new leader commit inherited entries
            outgoing = outgoing + r.client_submit(b"", now)
        # each send: its delay draw, its count and its heap entry
        next_u64, limit = self._delay.next_u64, self._delay_limit
        lo, span = self.cfg.raft_delay_min, self._delay_span
        src, counts, queue, seq = node.node_id, self.counts, self.queue, self._seq
        for dst, msg in outgoing:
            kind = type(msg)
            if kind is VoteReply and msg.granted:
                self._record_vote(node, msg.term, dst)
            v = next_u64()
            while v >= limit:
                v = next_u64()
            name = kind.__name__
            counts[name] = counts.get(name, 0) + 1
            seq += 1
            heapq.heappush(queue, (now + lo + v % span, seq, _MSG, dst, (src, msg)))
        self._seq = seq
        if r.commit_index > node.applied:
            if r.role is LEADER:
                acks = 1 + sum(1 for p in r.peers if r.match_index[p] >= r.commit_index)
                if acks < r.quorum:
                    self._flag(
                        f"commit-quorum chain={node.chain_id} "
                        f"index={r.commit_index} acks={acks} quorum={r.quorum}"
                    )
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
            self._ingest_header(node, block.header, now)
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
            self.skipped += 1  # a stale proposal from a superseded leader
            return command, block, None
        self.store.add(block.header, ledger.hashes[-1])
        return command, block, block.header.height

    def _record_vote(self, node: _Node, term: int, candidate: int) -> None:
        key = (node.chain_id, term, node.node_id)
        first = self.votes.setdefault(key, candidate)
        if first != candidate:
            self._flag(
                f"vote-safety chain={node.chain_id} term={term} "
                f"voter={node.node_id} candidates={first},{candidate}"
            )

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
        if tip > held:
            if view.bar > bar:
                self.bar_rows.append((now, node.node_id, view.bar))
            self._sample_latency(node, now)

    def _gossip_block(self, node: _Node, header: BlockHeader, now: int) -> None:
        next_u64, limit = self._gossip.next_u64, self._delay_limit
        lo, span = self.cfg.raft_delay_min, self._delay_span
        src, crash_time, queue, seq = node.node_id, self.crash_time, self.queue, self._seq
        at = min(now, self.end_time)
        for dst in range(self.cfg.num_nodes):
            if dst == src or crash_time[dst] <= at:
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
        for height in range(self.sampled[chain] + 1, top):
            for tx in blocks[height].transactions:
                submit = submit_times[tx.nonce]
                self.latency_rows.append((tx.nonce, submit, now, now - submit))
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
        queue = self.pending[chain]
        txs = queue[: self.cfg.max_batch]
        if not txs and not self.cfg.empty_blocks:
            return
        del queue[: len(txs)]
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

    def _on_arrivals(self, now: int, seq: int, arrivals) -> None:
        """Queue one tick's (chain, tx) arrivals; each is one event, at seq + i."""
        self.events_processed += len(arrivals)
        if self.event_rows is not None:
            name = _KIND_NAMES[_CLIENT]
            self.event_rows.extend(
                (now, seq + i, name, chain, name) for i, (chain, _) in enumerate(arrivals)
            )
        pending = self.pending
        for chain, tx in arrivals:
            pending[chain].append(tx)

    def _on_snapshot(self, now: int) -> None:
        rows, chains, refs = self.snapshot_rows, self.store.chains, self.store.refs
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
        cfg = self.cfg
        t_start = self._run_beacon_phase()
        self.assignment = assign_chains(self.locked_seed, cfg.num_nodes, cfg.num_chains)
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
        self.workload_start = t_start

        # crashes are events only, pushed first so that each pops first at its tick
        for when, nid in cfg.crash_schedule:
            self._push(when, _CRASH, nid, None)
        crash_time, end_time = self.crash_time, self.end_time
        expected_stall = any(
            sum(crash_time[n] <= end_time for n in members) >= quorum_threshold(len(members))
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

        while self.queue:
            time, seq, kind, nid, payload = heapq.heappop(self.queue)
            at = time  # the tick whose liveness this event reads
            if time > end_time:
                # horizon reached: stop timers, workload and crashes, but keep
                # delivering in-flight traffic so views converge
                if kind not in (_MSG, _GOSSIP):
                    continue
                at = end_time
            self.now = time
            if kind == _CLIENT:
                self._on_arrivals(time, seq, payload)
                continue
            if kind == _TIMER:
                node = self.nodes[nid]
                if node.queued == (time, seq):
                    node.queued = None
                up = crash_time[nid] > time
                if time != node.timer_at or not up:
                    # an early or superseded entry, or a down node's: no event
                    if up and node.queued is None and node.timer_at is not None:
                        self._queue_timer(node)
                    continue
            self.events_processed += 1
            if self.event_rows is not None:
                detail = _KIND_NAMES[kind]
                if kind == _MSG:
                    detail = f"{type(payload[1]).__name__}<-{payload[0]}"
                elif kind == _GOSSIP:
                    detail = f"header c{payload.chain_id}h{payload.height}"
                self.event_rows.append((time, seq, _KIND_NAMES[kind], nid, detail))

            if kind <= _GOSSIP and crash_time[nid] <= at:
                continue  # a delivery to a down node: an event that does nothing
            if kind == _MSG:
                src, msg = payload
                node = self.nodes[nid]
                out = node.raft.handle_message(src, msg, time)
                self._after_raft(node, time, out)
            elif kind == _GOSSIP:
                self._ingest_header(self.nodes[nid], payload, time)
            elif kind == _TIMER:
                node.timer_at = None
                out = node.raft.tick(time)
                self._after_raft(node, time, out)
            elif kind == _PROPOSE:
                self._on_propose(nid, time)
            elif kind == _SNAPSHOT:
                self._on_snapshot(time)

        self._final_checks()
        committed_txs = {
            c: sum(len(b.transactions) for b in ledger.blocks)
            for c, ledger in self.canonical.items()
        }
        committed_blocks = {c: len(ledger.blocks) - 1 for c, ledger in self.canonical.items()}
        return SimTrace(
            config=cfg,
            workload_start=self.workload_start,
            end_time=self.end_time,
            beacon_rows=self.beacon_rows,
            assignment=[list(m) for m in self.assignment],
            committed_txs=committed_txs,
            committed_blocks=committed_blocks,
            skipped_blocks=self.skipped,
            submitted_txs=len(self.submit_times),  # every arrival is processed
            latency_rows=self.latency_rows,
            bar_rows=self.bar_rows,
            message_counts=self.counts,
            safety_flags=self.flags,
            expected_stall=expected_stall,
            snapshot_rows=self.snapshot_rows,
            final_order=self.final_order,
            sealed_verified=self.sealed_verified,
            events_processed=self.events_processed,
            event_rows=self.event_rows,
        )

    # -- end-of-run verification ------------------------------------------

    def _final_checks(self) -> None:
        honest = [n for n in self.nodes if self.crash_time[n.node_id] > self.end_time]
        for node in honest:
            self._sample_latency(node, self.now)
        try:
            validate_view(self.store)
        except OrderingError as exc:
            self._flag(f"final-view: {exc}")

        self.final_order = []
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
                self.final_order.append((rank, chain, height, bh.hex(), tx_count))

        # log matching: deepest shared (index, term) implies identical prefixes
        for chain, members in enumerate(self.assignment):
            alive = [self.nodes[n] for n in members if self.crash_time[n] > self.end_time]
            for i, a in enumerate(alive):
                for b in alive[i + 1 :]:
                    la, lb = a.raft.log, b.raft.log
                    top = min(len(la), len(lb))
                    while top > 0 and la[top - 1].term != lb[top - 1].term:
                        top -= 1
                    if top > 0 and la[:top] != lb[:top]:
                        self._flag(
                            f"log-matching chain={chain} nodes={a.node_id},{b.node_id}"
                        )

        self.sealed_verified = 0
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
                        self.sealed_verified += 1


def run_simulation(config: SimConfig) -> SimTrace:
    """Execute one deterministic run; pure function of the config."""
    return Simulation(config).run()


@dataclass(frozen=True)
class ScalingPoint:
    chains: int
    nodes: int
    committed_txs: int
    window: int
    throughput: float


def measure_scaling(
    base: SimConfig, chain_counts: list[int], committee_size: int = 5
) -> list[ScalingPoint]:
    """Throughput at several chain counts with per-chain load held fixed.

    Each point runs committee_size verifiers per chain and scales the
    offered load with the chain count, so per-chain conditions are identical
    and only the degree of parallelism varies.
    """
    per_chain_rate = base.tx_rate / base.num_chains
    points = []
    for c in chain_counts:
        if c < 1:
            raise ConfigError(f"chain_counts: invalid count {c}")
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
