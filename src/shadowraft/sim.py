"""Deterministic discrete-event simulation of the whole protocol stack.

One run executes: (1) beacon epochs until a seed locks, each costing one
synchronous round of `delta` ticks; (2) committee assignment from the locked
seed; (3) per-chain Raft with leaders batching client transactions into
blocks on a timer, rank fields taken from the proposer's current view;
(4) committed-header gossip, from the replica that appends it, to every
other node, which drives each node's ConfirmBar and total order; (5) metric
and safety collection.

Time is an integer tick counter. Events execute in (time, insertion
sequence) order off a single heap, so a run is a pure function of its
SimConfig: identical configs give byte-identical CSV outputs. The client
workload is drawn before the run starts, as one heap entry per tick with
arrivals: it holds that tick's transactions in nonce order and reserves one
sequence number for each, and each transaction counts as one event. The
ticks that get one arrival more than int(tx_rate) are drawn as geometric
gaps, one draw each. A node's superseded Raft deadline is not an event.

Two delay regimes: the beacon phase is synchronous with bound delta, the
Raft/gossip phase draws per-message delays uniformly from
[raft_delay_min, raft_delay_max]. Raft messages and gossip draw them from
separate streams, so a change to gossip moves no Raft delay. Crashes are
crash-stop, at most one per node: from the scheduled tick onward the node
receives nothing, fires nothing, sends nothing, and never recovers.

The simulator is also the property-test vehicle: beacon certificates,
election safety, one vote per term, log matching, state-machine safety,
commit quorum, rank discipline, ConfirmBar monotonicity, prefix stability
and cross-node prefix consistency of total orders, and sealed round-trip
integrity are all checked during the run and recorded as safety flags,
which must stay empty. A node's order is checked when its ConfirmBar rises.

Each chain has one ledger. The first replica to apply a committed entry
decodes it, appends it and gossips its header to every other live node, so
each header is sent at most N-1 times; every other replica checks that its
own command has the same digest and keeps only its height in that ledger.

A snapshot writes, for each live node, only the headers that entered its
view since its previous snapshot; the view of node n at time t is the union
of n's snapshot rows up to t.
"""

from __future__ import annotations

import hashlib
import heapq
import io
import math
import statistics
import struct
from bisect import bisect_right
from dataclasses import dataclass, replace

from . import beacon as beacon_mod
from .beacon import Repeat, assign_chains, invoke_beacon, make_beacon_nodes, select_seed
from .ledger import (
    BlockHeader,
    ChainLedger,
    DecodeError,
    LedgerError,
    Transaction,
    append_block,
    decode_block,
    encode_block,
    hash_header,
    make_genesis,
    new_block,
)
from .ordering import (
    GlobalView,
    LongestOrder,
    OrderingError,
    propose_rank_fields,
    reference_total_order,
    validate_view,
)
from .raft import RaftNode, Role, VoteReply, quorum_threshold
from .rng import Stream, below_limit, chance_limit
from .sealing import KeyDirectory, SealedPayload, SealingError, seal


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
    """One CSV file: the header line, then each row's cells joined by commas."""
    buf = io.StringIO()
    buf.write(header + "\n")
    for row in rows:
        buf.write(",".join(map(str, row)) + "\n")
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
    certs = [cert for cert in (invoke_beacon(e, epoch) for e in enclaves) if cert]
    valid, forged = [], []
    for cert in certs:
        ok = cert.epoch == epoch and cert.node_id in keys
        if ok and beacon_mod.verify_certificate(cert, keys):
            valid.append(cert)
        else:
            forged.append(cert)
    messages = len(certs) * (len(keys) - 1)
    try:
        seed = select_seed(valid, epoch)
    except Repeat:
        return (epoch, 0, 0, None, messages), forged
    return (epoch, 1, len(valid), seed, messages), forged


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

    def throughput(self) -> float:
        window = self.config.run_duration - self.workload_start
        if window <= 0:
            return 0.0
        return self.total_committed_txs() / window

    def latency_stats(self) -> tuple[float, float]:
        """(mean, 95th percentile) of confirmation latency, 0 if no samples."""
        samples = [row[3] for row in self.latency_rows]
        if not samples:
            return 0.0, 0.0
        ordered = sorted(samples)
        p95 = ordered[int(0.95 * (len(ordered) - 1))]
        return statistics.fmean(samples), float(p95)

    def beacon_repeat_rate(self) -> float:
        if not self.beacon_rows:
            return 0.0
        repeats = sum(1 for row in self.beacon_rows if not row[1])
        return repeats / len(self.beacon_rows)

    # -- serialization ----------------------------------------------------

    def csv_outputs(self) -> dict[str, bytes]:
        """All output files as name -> bytes; the determinism unit."""
        out: dict[str, bytes] = {}
        window = max(1, self.config.run_duration - self.workload_start)
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


# event kinds, dispatched by integer for heap-compare speed
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

# one client transaction's workload draws: chain, sensitivity and fee u64s, then the payload
_TX_DRAWS = struct.Struct(">QQQ24s")


class _Node:
    """Simulator-side wrapper: raft instance plus ledger height, view, and buffers."""

    __slots__ = (
        "node_id",
        "chain_id",
        "raft",
        "height",
        "applied",
        "led_term",
        "view",
        "buffer",
        "confirmed_ptr",
        "written",
        "timer_at",
        "timer_seq",
        "queued",
    )

    def __init__(self, node_id: int, chain_id: int, raft: RaftNode, ledgers):
        self.node_id = node_id
        self.chain_id = chain_id
        self.raft = raft
        self.height = 0  # blocks of the chain's ledger this replica has applied
        self.applied = 0
        self.led_term = 0
        self.view = GlobalView(len(ledgers))
        for ledger in ledgers.values():
            self.view.add(ledger.blocks[0].header, ledger.hashes[0])
        self.buffer: dict[int, dict[int, BlockHeader]] = {c: {} for c in ledgers}
        self.confirmed_ptr = 1  # genesis is already below the initial bar
        self.written = [0] * len(ledgers)  # headers per chain in snapshots
        self.timer_at, self.timer_seq = None, 0  # the timer fires at (deadline, seq)
        self.queued: tuple[int, int] | None = None  # the timer heap entry it keeps


class Simulation:
    def __init__(self, config: SimConfig):
        config.validate()
        self.cfg = config
        self.now = 0
        self._seq = 0
        self.queue: list[tuple] = []
        self.crashed: set[int] = set()
        self.crash_at = {nid: when for when, nid in config.crash_schedule}
        self.flags: list[str] = []
        self.counts: dict[str, int] = {}
        self.events_processed = 0
        self.event_rows: list[tuple] | None = [] if config.trace_events else None

        self._delay = Stream.from_labels("delays", config.seed)
        self._gossip = Stream.from_labels("gossip", config.seed)
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
        self.submitted = 0
        self.canonical: dict[int, ChainLedger] = {}
        # (chain, index) -> (digest, block or DecodeError, height or None if skipped)
        self.committed_cmds: dict[tuple[int, int], tuple] = {}
        self.skipped = 0
        self.election_winners: dict[tuple[int, int], int] = {}
        self.votes: dict[tuple[int, int, int], int] = {}  # (chain, term, voter) -> candidate
        self.longest = LongestOrder()  # holder is a node id

    # -- plumbing ---------------------------------------------------------

    def _push(self, time: int, kind: int, nid: int, payload) -> None:
        self._seq += 1
        heapq.heappush(self.queue, (time, self._seq, kind, nid, payload))

    def _count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def _flag(self, text: str) -> None:
        self.flags.append(text)

    def _send(self, src: int, dst: int, msg, now: int) -> None:
        delay = self._delay.uniform_int(self.cfg.raft_delay_min, self.cfg.raft_delay_max)
        self._count(type(msg).__name__)
        self._push(now + delay, _MSG, dst, (src, msg))

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
            live = [e for e in enclaves if self.crash_at.get(e.node_id, t0 + 1) > t0]
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
        whole = int(cfg.tx_rate)
        frac = cfg.tx_rate - whole
        gaps = _gap_table(frac, cfg.run_duration - start) if frac else []

        def gap() -> int:
            return 1 + bisect_right(gaps, wl.next_u64())

        extra = start - 1 + gap() if frac else cfg.run_duration  # next tick with one more
        nonce = 0
        keys = [self.directory.get(k) for k in range(cfg.num_seal_keys)]
        num_chains, tx_size = cfg.num_chains, _TX_DRAWS.size
        chain_limit, fee_limit = below_limit(num_chains), below_limit(1000)
        sensitive_limit = chance_limit(cfg.sensitive_fraction)
        t = start if whole else extra
        while t < cfg.run_duration:
            k = whole
            if t == extra:
                k += 1
                extra += gap()
            arrivals = []
            for _ in range(k):
                # one read; the sequential draws only where one of them would reject
                c, s, f, payload = wl.peek(_TX_DRAWS)
                if c < chain_limit and f < fee_limit:
                    wl.skip(tx_size)
                    chain, sensitive, fee = c % num_chains, s < sensitive_limit, f % 1000
                else:
                    chain = wl.next_below(num_chains)
                    sensitive = wl.chance(cfg.sensitive_fraction)
                    fee = wl.next_below(1000)
                    payload = wl.next_bytes(24)
                if sensitive:
                    key = keys[wl.next_below(len(keys))]
                    ad = nonce.to_bytes(8, "big") + fee.to_bytes(8, "big")
                    payload_bytes = seal(key, payload, ad).encode()
                    self.plaintexts.append(payload)
                else:
                    payload_bytes = payload
                    self.plaintexts.append(None)
                arrivals.append((chain, Transaction(payload_bytes, sensitive, fee, nonce)))
                nonce += 1
            # one entry per tick: its transactions take seqs seq .. seq + k - 1
            heapq.heappush(self.queue, (t, self._seq + 1, _CLIENT, -1, arrivals))
            self._seq += k
            t = t + 1 if whole else extra
        self.submit_times = [0] * nonce

    # -- raft interaction --------------------------------------------------

    def _after_raft(self, node: _Node, now: int, outgoing) -> None:
        pending = list(outgoing)
        r = node.raft
        if r.role is Role.LEADER and r.current_term != node.led_term:
            node.led_term = r.current_term
            key = (node.chain_id, r.current_term)
            holder = self.election_winners.setdefault(key, node.node_id)
            if holder != node.node_id:
                self._flag(
                    f"election-safety chain={node.chain_id} term={r.current_term} "
                    f"leaders={holder},{node.node_id}"
                )
            # a no-op entry lets the new leader commit inherited entries
            pending.extend(r.client_submit(b"", now))
        for dst, msg in pending:
            if type(msg) is VoteReply and msg.granted:
                self._record_vote(node, msg.term, dst)
            self._send(node.node_id, dst, msg, now)
        if r.commit_index > node.applied and r.role is Role.LEADER:
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
            digest = hashlib.sha256(entry.command).digest()
            seen = self.committed_cmds.get(key)
            appender = seen is None
            if appender:
                seen = self.committed_cmds[key] = self._append_committed(
                    node.chain_id, entry.command, digest
                )
            if seen[0] != digest:
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

    def _append_committed(self, chain: int, command: bytes, digest: bytes):
        """Decode a committed command and append it to the chain's ledger."""
        try:
            block = decode_block(command)
        except DecodeError as exc:
            return digest, exc, None
        try:
            append_block(self.canonical[chain], block)
        except LedgerError:
            self.skipped += 1  # a stale proposal from a superseded leader
            return digest, block, None
        return digest, block, block.header.height

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
        view = node.view
        chain = header.chain_id
        headers = view.chains[chain]
        if header.height < len(headers):
            known = view.refs[chain][header.height].block_hash
            # replicas share one decoded header object: only another one needs hashing
            if header is not headers[header.height] and hash_header(header) != known:
                self._flag(
                    f"view-divergence node={node.node_id} chain={chain} "
                    f"height={header.height}"
                )
            return
        buf = node.buffer[chain]
        buf.setdefault(header.height, header)
        bar, tail, confirmed = view.bar, len(headers), len(view.order)
        ledger = self.canonical[chain]
        while len(headers) in buf:
            nxt = buf.pop(len(headers))
            h = nxt.height
            # the ledger's own header object has its hash stored; hash any other
            if h < len(ledger.blocks) and ledger.blocks[h].header is nxt:
                block_hash = ledger.hashes[h]
            else:
                block_hash = hash_header(nxt)
            try:
                view.add(nxt, block_hash)
            except OrderingError:
                self._flag(
                    f"header-linkage node={node.node_id} chain={chain} "
                    f"height={nxt.height}"
                )
                break
        if len(headers) > tail:
            self._bar_advance(node, bar, confirmed, now)

    def _gossip_block(self, node: _Node, header: BlockHeader, now: int) -> None:
        for dst in range(self.cfg.num_nodes):
            if dst == node.node_id or dst in self.crashed:
                continue
            delay = self._gossip.uniform_int(
                self.cfg.raft_delay_min, self.cfg.raft_delay_max
            )
            self._count("Gossip")
            self._push(now + delay, _GOSSIP, dst, header)

    def _bar_advance(self, node: _Node, old_bar: int, confirmed: int, now: int) -> None:
        """Record a rise of the node's bar; check its order past position confirmed."""
        view = node.view
        if view.bar < old_bar:
            self._flag(f"confirmbar-regression node={node.node_id} t={now}")
            return
        if view.bar > old_bar:
            self.bar_rows.append((now, node.node_id, view.bar))
            if not self.longest.check(view.order, node.node_id, confirmed):
                holder = self.longest.holder
                self._flag(f"prefix-consistency nodes={holder},{node.node_id} t={now}")
        self._sample_latency(node, now)

    def _sample_latency(self, node: _Node, now: int) -> None:
        bar = node.view.bar
        headers = node.view.chains[node.chain_id]
        while node.confirmed_ptr < len(headers):
            header = headers[node.confirmed_ptr]
            if header.rank >= bar:
                break
            if header.height > node.height:
                break  # body not applied locally yet; a peer will sample it
            # heights are confirmed in order, so the sampled ones form a prefix
            if header.height > self.sampled[node.chain_id]:
                self.sampled[node.chain_id] = header.height
                block = self.canonical[node.chain_id].blocks[header.height]
                for tx in block.transactions:
                    submit = self.submit_times[tx.nonce]
                    self.latency_rows.append((tx.nonce, submit, now, now - submit))
            node.confirmed_ptr += 1

    # -- event handlers --------------------------------------------------------

    def _on_propose(self, chain: int, now: int) -> None:
        committee = self.assignment[chain]
        leaders = [
            self.nodes[n]
            for n in committee
            if n not in self.crashed and self.nodes[n].raft.role is Role.LEADER
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
        for chain, tx in arrivals:
            self.pending[chain].append(tx)
            self.submit_times[tx.nonce] = now
        self.submitted += len(arrivals)

    def _on_snapshot(self, now: int) -> None:
        live = [node for node in self.nodes if node.node_id not in self.crashed]
        rows = self.snapshot_rows
        for node in live:
            for chain, headers in enumerate(node.view.chains):
                start = node.written[chain]
                for h, ref in zip(headers[start:], node.view.refs[chain][start:]):
                    rows.append((now, node.node_id, h, ref.block_hash))
                node.written[chain] = len(headers)

    # -- main loop ----------------------------------------------------------

    def run(self) -> SimTrace:
        cfg = self.cfg
        t_start = self._run_beacon_phase()
        self.assignment = assign_chains(self.locked_seed, cfg.num_nodes, cfg.num_chains)
        chain_of = {}
        for chain, members in enumerate(self.assignment):
            for nid in members:
                chain_of[nid] = chain

        for chain in range(cfg.num_chains):
            ledger = self.canonical[chain] = ChainLedger(chain)
            append_block(ledger, make_genesis(chain))

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
                self.canonical,
            )
            for nid in range(cfg.num_nodes)
        ]
        self.workload_start = t_start
        self.end_time = cfg.run_duration + cfg.drain_window

        crashed_per_chain = {c: 0 for c in range(cfg.num_chains)}
        for nid, when in self.crash_at.items():
            self._push(when, _CRASH, nid, None)
            crashed_per_chain[chain_of[nid]] += 1
        expected_stall = any(
            crashed_per_chain[c] >= quorum_threshold(len(self.assignment[c]))
            for c in range(cfg.num_chains)
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

        flush = False
        while self.queue:
            time, seq, kind, nid, payload = heapq.heappop(self.queue)
            if not flush and time > self.end_time:
                # horizon reached: stop timers and workload, but keep
                # delivering in-flight traffic so views converge
                flush = True
            if flush and kind not in (_MSG, _GOSSIP):
                continue
            self.now = time
            if kind == _CLIENT:
                self._on_arrivals(time, seq, payload)
                continue
            if kind == _TIMER:
                node = self.nodes[nid]
                if node.queued == (time, seq):
                    node.queued = None
                if time != node.timer_at:
                    # an early or superseded entry: no event
                    if node.queued is None and node.timer_at is not None:
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

            if kind == _MSG:
                if nid in self.crashed:
                    continue
                src, msg = payload
                node = self.nodes[nid]
                out = node.raft.handle_message(src, msg, time)
                self._after_raft(node, time, out)
            elif kind == _GOSSIP:
                if nid in self.crashed:
                    continue
                self._ingest_header(self.nodes[nid], payload, time)
            elif kind == _TIMER:
                node.timer_at = None
                out = node.raft.tick(time)
                self._after_raft(node, time, out)
            elif kind == _PROPOSE:
                self._on_propose(nid, time)
            elif kind == _CRASH:
                self.crashed.add(nid)
                self.nodes[nid].timer_at = None  # its queued entries fire no event
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
            submitted_txs=self.submitted,
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
        honest = [n for n in self.nodes if n.node_id not in self.crashed]
        for node in honest:
            self._sample_latency(node, self.now)
            try:
                validate_view(node.view)
            except OrderingError as exc:
                self._flag(f"final-view node={node.node_id}: {exc}")

        self.final_order = []
        if honest:
            first = honest[0]
            for other in honest[1:]:
                if other.view.order != first.view.order:
                    self._flag(f"final-order-divergence nodes={first.node_id},{other.node_id}")
                    break
            if first.view.order != reference_total_order(first.view):
                self._flag(f"prefix-stability node={first.node_id} t=final")
            hash_to_block = {}
            for ledger in self.canonical.values():
                hash_to_block.update(zip(ledger.hashes, ledger.blocks))
            for rank, chain, height, bh in first.view.order:
                body = hash_to_block.get(bh)
                tx_count = len(body.transactions) if body is not None else 0
                self.final_order.append((rank, chain, height, bh.hex(), tx_count))

        # log matching: deepest shared (index, term) implies identical prefixes
        for chain, members in enumerate(self.assignment):
            alive = [self.nodes[n] for n in members if n not in self.crashed]
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
                    ad = tx.nonce.to_bytes(8, "big") + tx.fee.to_bytes(8, "big")
                    try:
                        sealed = SealedPayload.decode(tx.payload)
                        plain = self.directory.unseal(sealed, ad)
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
        window = max(1, cfg.run_duration - trace.workload_start)
        points.append(
            ScalingPoint(
                chains=c,
                nodes=cfg.num_nodes,
                committed_txs=trace.total_committed_txs(),
                window=window,
                throughput=trace.total_committed_txs() / window,
            )
        )
    return points
