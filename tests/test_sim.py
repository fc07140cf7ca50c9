"""Whole-system simulation runs: liveness, fault injection, determinism.

Most assertions are properties (flags empty, commits resumed) rather than
pinned numbers, since traces are deterministic but config-sensitive.
"""

import csv
import gc
import io
import math
import weakref
from dataclasses import replace

import pytest
from oracles import OracleStream, oracle_key
from test_golden import CASES

import shadowraft.ledger as ledger_module
import shadowraft.ordering as ordering_module
import shadowraft.sealing as sealing_module
import shadowraft.sim as sim_module
from shadowraft.beacon import Certificate
from shadowraft.ledger import encode_block, hash_header, make_genesis, new_block
from shadowraft.cli import build_config
from shadowraft.ordering import propose_rank_fields, reference_total_order
from shadowraft.raft import LogEntry, RaftNode, Role, VoteReply
from shadowraft.sim import (
    ConfigError,
    SimConfig,
    SimError,
    Simulation,
    csv_bytes,
    measure_scaling,
    run_simulation,
    snapshots_csv,
)


def small_cfg(**kw):
    return SimConfig(seed=kw.pop("seed", 11), run_duration=kw.pop("run_duration", 1200), **kw)


def first_leader(cfg, chain=0):
    """Probe run: winner of the chain's earliest decided term."""
    sim = Simulation(cfg)
    sim.run()
    winners = sim.monitors[chain].winners
    assert winners, "probe run elected nobody"
    first = min(winners)
    return winners[first], first


def test_fault_free_single_chain_run():
    cfg = small_cfg(num_nodes=4, num_chains=1, run_duration=1000)
    sim = Simulation(cfg)
    trace = sim.run()
    assert trace.safety_flags == []
    assert sim.monitors[0].winners  # someone won an election
    assert trace.total_committed_txs() > 0
    assert trace.committed_blocks[0] > 0
    assert not trace.expected_stall
    assert trace.message_counts["VoteRequest"] > 0
    assert trace.message_counts["AppendEntries"] > 0


def test_rerun_is_byte_identical():
    cfg = small_cfg(num_nodes=5, num_chains=2, run_duration=900)
    a = run_simulation(cfg, trace=True).csv_outputs()
    b = run_simulation(cfg, trace=True).csv_outputs()
    assert sorted(a) == sorted(b)
    for name in a:
        assert a[name] == b[name], f"{name} differs between identical runs"


def test_finished_simulation_is_freed_by_refcount():
    # no reference cycle holds a run: its memory goes when its last name does
    sim = Simulation(small_cfg(num_nodes=5, num_chains=2, run_duration=600))
    trace = sim.run()
    assert trace is sim.out  # run() returns the record the simulation filled
    ref = weakref.ref(sim)
    enabled = gc.isenabled()
    gc.disable()
    try:
        del sim
        assert ref() is None
    finally:
        if enabled:
            gc.enable()
    assert trace.committed_blocks[0] > 0


def test_different_seeds_differ():
    base = small_cfg(num_nodes=4, num_chains=1, run_duration=800)
    a = run_simulation(base).csv_outputs()
    b = run_simulation(replace(base, seed=base.seed + 1)).csv_outputs()
    assert a["latency.csv"] != b["latency.csv"]


def test_beacon_phase_accounting():
    trace = run_simulation(small_cfg(num_nodes=6, num_chains=2, run_duration=900))
    rows = trace.beacon_rows
    assert [r[0] for r in rows] == list(range(len(rows)))  # epochs count up
    assert all(r[1] == 0 for r in rows[:-1]) and rows[-1][1] == 1
    assert rows[-1][3] is not None
    # one synchronous round of delta ticks per attempted epoch
    assert trace.workload_start == len(rows) * trace.config.delta


def test_beacon_that_never_locks_is_an_error():
    cfg = small_cfg(num_nodes=1, num_chains=1, lottery_bits=32)
    with pytest.raises(SimError):
        run_simulation(cfg)


def test_forged_beacon_certificates_are_dropped_and_flagged(monkeypatch):
    cfg = small_cfg(num_nodes=6, num_chains=2, run_duration=600)
    clean = Simulation(cfg)
    clean.run()
    assert not clean.out.safety_flags
    forgers = []

    def forging(enclave, epoch):
        cert = real_invoke(enclave, epoch)
        if cert is not None or epoch > 0 or len(forgers) == 2:
            return cert
        forgers.append(enclave.node_id)
        # the lowest rnd there is: either would win the epoch if accepted
        if len(forgers) == 1:
            return Certificate(epoch, 0, enclave.node_id, b"\x00" * 32)
        return Certificate(epoch, 0, 99, b"\x00" * 32)  # no such node

    real_invoke = sim_module.invoke_beacon
    monkeypatch.setattr(sim_module, "invoke_beacon", forging)
    forged = Simulation(cfg)
    forged.run()
    assert forged.out.safety_flags == [
        f"beacon-certificate epoch=0 node={forgers[0]}",
        "beacon-certificate epoch=0 node=99",
    ]
    assert forged.locked_seed == clean.locked_seed
    assert forged.assignment == clean.assignment
    # the forged certificates were broadcast, so only the message count differs
    assert [row[:4] for row in forged.out.beacon_rows] == [row[:4] for row in clean.out.beacon_rows]


def test_beacon_phase_skips_nodes_crashed_by_epoch_start(monkeypatch):
    # node 1 is down from the start, node 2 crashes exactly as epoch 2 opens,
    # node 3 mid-way through epoch 3
    crashes = ((0, 1), (20, 2), (35, 3))
    cfg = small_cfg(seed=10, num_nodes=7, num_chains=1, lottery_bits=5,
                    run_duration=400, crash_schedule=crashes)
    calls = []

    def recording(enclave, epoch):
        calls.append((enclave.node_id, epoch))
        return real_invoke(enclave, epoch)

    real_invoke = sim_module.invoke_beacon
    monkeypatch.setattr(sim_module, "invoke_beacon", recording)
    trace = run_simulation(cfg)
    epochs = len(trace.beacon_rows)
    assert epochs >= 4 and cfg.delta == 10
    # only the enclaves that are due are invoked, and all are due at epoch 0;
    # none is invoked in the epoch that starts at or after its crash, or later
    crash_at = {nid: when for when, nid in crashes}
    assert [n for n, e in calls if e == 0] == [0, 2, 3, 4, 5, 6]
    for n, e in calls:
        assert e * cfg.delta < crash_at.get(n, math.inf), (n, e)
    assert {e for n, e in calls if n == 1} == set()


def test_assignment_partitions_nodes_into_committees():
    trace = run_simulation(small_cfg(num_nodes=9, num_chains=3, run_duration=800))
    flat = sorted(n for committee in trace.assignment for n in committee)
    assert flat == list(range(9))
    assert all(len(c) == 3 for c in trace.assignment)


def test_leader_crash_elects_successor_and_commits_resume():
    # quick beacon and a short timeout so the first leader holds office
    # well before the crash fires at t=200
    cfg = small_cfg(
        seed=5,
        num_nodes=5,
        num_chains=1,
        run_duration=2000,
        lottery_bits=2,
        election_timeout=60,
        heartbeat_interval=15,
    )
    leader, first_term = first_leader(cfg)

    crashed_cfg = replace(cfg, crash_schedule=((200, leader),))
    sim = Simulation(crashed_cfg)
    trace = sim.run()
    assert trace.safety_flags == []
    assert not trace.expected_stall
    later = {t: w for t, w in sim.monitors[0].winners.items() if t > first_term}
    assert later, "no re-election after the leader crash"
    assert all(w != leader for w in later.values())
    # blocks proposed under the successor's term made it onto the chain
    successor_terms = {b.header.proposer_term for b in sim.canonical[0].blocks}
    assert max(successor_terms) > first_term
    assert trace.total_committed_txs() > 0


def test_follower_crash_does_not_stop_the_chain():
    cfg = small_cfg(seed=6, num_nodes=5, num_chains=1, run_duration=1500)
    leader, _ = first_leader(cfg)
    follower = next(n for n in range(5) if n != leader)

    trace = run_simulation(replace(cfg, crash_schedule=((250, follower),)))
    assert trace.safety_flags == []
    assert not trace.expected_stall
    assert trace.committed_blocks[0] > 5


def test_quorum_loss_stalls_one_chain_and_freezes_the_bar():
    cfg = small_cfg(seed=9, num_nodes=6, num_chains=2, run_duration=1800)
    probe = run_simulation(cfg)
    victims = probe.assignment[1]  # kill chain 1's whole committee
    schedule = tuple((400 + 10 * i, nid) for i, nid in enumerate(victims))

    trace = run_simulation(replace(cfg, crash_schedule=schedule))
    assert trace.expected_stall
    assert trace.safety_flags == []
    # the healthy chain keeps committing while the min-based bar stays put
    assert trace.committed_blocks[0] > trace.committed_blocks[1]
    bars = [bar for (_, _, bar) in trace.bar_rows]
    settled = [bar for (t, _, bar) in trace.bar_rows if t > 700]
    if settled:
        assert max(settled) == max(bars)
    assert max(bars) < trace.committed_blocks[0]


def test_even_committee_stalls_with_half_its_members_down():
    # a committee of 4 needs 3 votes: 2 down leave 2 live, fewer than a quorum
    cfg = small_cfg(num_nodes=4, num_chains=1, run_duration=600)
    two = run_simulation(replace(cfg, crash_schedule=((300, 0), (310, 1))))
    assert two.safety_flags == []
    assert two.expected_stall
    assert "expected-stall" in two.summary_text()
    one = run_simulation(replace(cfg, crash_schedule=((300, 0),)))
    assert one.safety_flags == []
    assert not one.expected_stall
    assert "expected-stall" not in one.summary_text()


def test_stall_note_counts_only_crashes_by_the_horizon():
    cfg = SimConfig(seed=3, num_nodes=5, run_duration=600)
    plain = run_simulation(cfg)
    assert plain.end_time == 1000

    def crash_three(when):
        return run_simulation(replace(cfg, crash_schedule=((when, 0), (when, 1), (when, 2))))

    # a committee-wide crash after the horizon never happens
    late = crash_three(10**6)
    assert not late.expected_stall
    assert "expected-stall" not in late.summary_text()
    assert late.csv_outputs() == plain.csv_outputs()
    # one at the horizon itself takes effect
    at_horizon = crash_three(plain.end_time)
    assert at_horizon.expected_stall
    assert "expected-stall" in at_horizon.summary_text()


def test_crashing_twice_is_rejected():
    cfg = small_cfg(num_nodes=5, num_chains=1, crash_schedule=((100, 1), (300, 1)))
    with pytest.raises(ConfigError) as info:
        run_simulation(cfg)
    assert str(info.value) == "crash_schedule: node 1 listed twice"


def test_config_validation_names_the_offending_key():
    bad = [
        (dict(num_nodes=3, num_chains=4), "num_chains"),
        (dict(heartbeat_interval=200, election_timeout=100), "heartbeat_interval"),
        (dict(raft_delay_min=9, raft_delay_max=2), "raft_delay_min"),
        (dict(sensitive_fraction=1.5), "sensitive_fraction"),
        (dict(crash_schedule=((50, 40),)), "crash_schedule"),
        (dict(lottery_bits=0), "lottery_bits"),
        (dict(tx_rate=-1.0), "tx_rate"),
        (dict(tx_rate=float("nan")), "tx_rate"),
        (dict(tx_rate=float("inf")), "tx_rate"),
        # the run could hand out (int(tx_rate) + 1) * run_duration nonces, past 2**64
        (dict(tx_rate=float(2**32), run_duration=2**32), "tx_rate"),
        (dict(tx_rate=1e20, run_duration=1), "tx_rate"),
    ]
    for kwargs, key in bad:
        with pytest.raises(ConfigError) as info:
            Simulation(SimConfig(**kwargs))  # validates; only run() draws the workload
        assert str(info.value).startswith(f"{key}: ")
    SimConfig(tx_rate=float(2**32 - 1), run_duration=2**32).validate()  # exactly 2**64 nonces


def test_every_chain_proposes_on_cadence_with_no_load():
    # chains merge by rank, so the bar rises only while every chain keeps
    # proposing: with no transactions each leader proposes empty blocks
    cfg = small_cfg(tx_rate=0.0, num_nodes=6, num_chains=3, run_duration=900)
    trace = run_simulation(cfg)
    assert trace.safety_flags == []
    assert trace.total_committed_txs() == 0
    assert all(trace.committed_blocks[c] > 0 for c in range(3)), trace.committed_blocks
    top = {}
    for _, node, bar in trace.bar_rows:
        top[node] = max(top.get(node, 0), bar)
    assert sorted(top) == list(range(6)) and min(top.values()) > 1, top


def test_sealed_transactions_round_trip_on_chain():
    cfg = small_cfg(sensitive_fraction=1.0, tx_rate=0.5, num_nodes=4, run_duration=1000)
    trace = run_simulation(cfg)
    assert trace.safety_flags == []
    assert trace.sealed_verified > 0
    assert trace.sealed_verified == trace.total_committed_txs()


def test_latency_rows_are_well_formed():
    trace = run_simulation(small_cfg(num_nodes=4, num_chains=1, run_duration=1000))
    assert trace.latency_rows
    for nonce, submit, confirm, latency in trace.latency_rows:
        assert latency == confirm - submit >= 0
    mean, p95 = trace.latency_stats()
    assert 0 < mean <= p95


@pytest.mark.parametrize("seed,chains", [(11, 2), (5, 3), (27, 4)])
def test_latency_samples_each_confirmed_applied_transaction_once(seed, chains):
    # computed from the headers each member holds, not from view.confirmed
    cfg = small_cfg(seed=seed, num_nodes=3 * chains, num_chains=chains, tx_rate=0.6)
    sim = Simulation(cfg)
    trace = sim.run()
    assert not trace.safety_flags
    nonces = [row[0] for row in trace.latency_rows]
    assert len(nonces) == len(set(nonces))
    expected = set()
    for chain, members in enumerate(sim.assignment):
        top = -1
        for n in members:
            node = sim.nodes[n]
            held = [
                h for h in node.view.chains[chain]
                if h.rank < node.view.bar and h.height <= node.height
            ]
            top = max(top, len(held) - 1)
        assert top > 0, chain
        for block in sim.canonical[chain].blocks[1 : top + 1]:
            expected.update(tx.nonce for tx in block.transactions)
    assert expected and set(nonces) == expected


def test_latency_waits_for_the_node_to_apply_the_block():
    sim = Simulation(small_cfg(num_nodes=5, run_duration=600))
    sim.run()
    node = sim.nodes[sim.assignment[0][0]]
    blocks = sim.canonical[0].blocks
    assert node.height == len(blocks) - 1 > 3 and blocks[3].header.rank < node.view.bar
    assert all(block.transactions for block in blocks[1:4])
    node.height = 2  # as if the node had applied heights 1 and 2 only
    sim.sampled[0], sim.out.latency_rows = 0, []
    sim._sample_latency(node, sim.end_time)
    nonces = [tx.nonce for block in blocks[1:3] for tx in block.transactions]
    assert [row[0] for row in sim.out.latency_rows] == nonces


@pytest.mark.parametrize("seed", [7, 4, 9])
def test_latency_is_stamped_at_the_first_tick_a_replica_confirms(seed, monkeypatch):
    # a transaction confirms at the first tick at which some replica of its
    # chain has applied its block and holds a bar above the block's rank; in
    # the gossip-reorder shape a header often reaches a replica before its apply
    config, _ = build_config(CASES["gossip-reorder"][0])
    applied = {}  # (chain, height) -> {node: tick of its apply}
    real_apply = Simulation._apply_committed

    def recording(self, node, now):
        before = node.height
        real_apply(self, node, now)
        for height in range(before + 1, node.height + 1):
            applied.setdefault((node.chain_id, height), {})[node.node_id] = now

    monkeypatch.setattr(Simulation, "_apply_committed", recording)
    sim = Simulation(replace(config, seed=seed))
    trace = sim.run()
    assert not trace.safety_flags and trace.latency_rows
    bars = {n: [(trace.workload_start, 1)] for n in range(config.num_nodes)}  # genesis
    for time, node, bar in trace.bar_rows:
        bars[node].append((time, bar))
    where = {
        tx.nonce: (chain, height, block.header.rank)
        for chain, ledger in sim.canonical.items()
        for height, block in enumerate(ledger.blocks)
        for tx in block.transactions
    }

    def confirmed_at(node, tick, rank):
        above = [time for time, bar in bars[node] if bar > rank]
        return max(tick, above[0]) if above else math.inf

    for nonce, submit, confirm, latency in trace.latency_rows:
        chain, height, rank = where[nonce]
        replicas = applied[chain, height]
        assert confirm == min(confirmed_at(n, tick, rank) for n, tick in replicas.items()), nonce
        assert latency == confirm - submit


def test_final_order_shape():
    trace = run_simulation(small_cfg(num_nodes=6, num_chains=2, run_duration=1200))
    order = trace.final_order
    assert order, "fault-free run confirmed nothing"
    keys = [(rank, chain) for rank, chain, _, _, _ in order]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)
    # genesis rows come first, one per chain
    assert keys[:2] == [(0, 0), (0, 1)]
    assert sum(trace.committed_blocks.values()) + trace.config.num_chains >= len(order)


def snapshot_csv_rows(trace):
    """The rendered snapshots.csv as lists of fields, header line first."""
    text = trace.csv_outputs()["snapshots.csv"].decode()
    return [line.split(",") for line in text.splitlines()]


def test_snapshots_are_recorded():
    cfg = small_cfg(num_nodes=4, num_chains=1, run_duration=1100, snapshot_interval=200)
    header, *rows = snapshot_csv_rows(run_simulation(cfg))
    times = {row[0] for row in rows}
    assert len(times) >= 3
    assert len(header) == 10
    assert {len(row) for row in rows} == {10}


def test_snapshots_write_each_header_once_per_node():
    cfg = small_cfg(
        seed=23, num_nodes=9, num_chains=3, snapshot_interval=150,
        crash_schedule=((500, 4),), run_duration=1200,
    )
    trace = run_simulation(cfg)
    assert not trace.safety_flags
    heights: dict[tuple[int, int], list[int]] = {}
    _, *rows = snapshot_csv_rows(trace)
    for time, node, chain, height in (map(int, row[:4]) for row in rows):
        assert not (node == 4 and time >= 500), "a crashed node took a snapshot"
        heights.setdefault((node, chain), []).append(height)
    assert len(heights) == cfg.num_nodes * cfg.num_chains
    for key, seen in heights.items():
        assert seen == list(range(len(seen))), key


def snapshots_reference(rows):
    """snapshots.csv by csv_bytes over each row's ten cells, each header formatted per row."""
    return csv_bytes(
        "time,node_id,chain_id,height,rank,next_rank,proposer_term,"
        "parent_hash,tx_root,block_hash",
        [
            (
                t, n, h.chain_id, h.height, h.rank, h.next_rank, h.proposer_term,
                h.parent_hash.hex(), h.tx_root.hex(), bh.hex(),
            )
            for t, n, h, bh in rows
        ],
    )


def test_snapshots_csv_matches_csv_bytes():
    crashed = run_simulation(small_cfg(
        seed=23, num_nodes=9, num_chains=3, snapshot_interval=150,
        crash_schedule=((500, 4),), run_duration=1200,
    ))
    assert not crashed.safety_flags and crashed.snapshot_rows

    def row(time, node, header):
        return time, node, header, hash_header(header)

    g0, g1 = make_genesis(0).header, make_genesis(1).header
    tip = new_block(0, 1, hash_header(g0), 1, 2, (), 1).header
    fork = tip._replace(proposer_term=2)  # another header at tip's (chain, height)
    cases = {
        "multi-chain run with a crash": crashed.snapshot_rows,
        # group (100, 0) comes back after (100, 1); node 0 recurs at t = 200
        "returning group": [
            row(100, 0, g0), row(100, 1, g0), row(100, 0, g1), row(200, 0, tip), row(200, 1, g1),
        ],
        "fork across nodes": [row(100, 0, tip), row(100, 1, fork), row(300, 2, tip)],
        "no rows": [],
    }
    for name, rows in cases.items():
        assert snapshots_csv(rows) == snapshots_reference(rows), name
    assert snapshots_csv([]).count(b"\n") == 1


def test_snapshot_rows_grow_linearly_with_duration():
    # headers are made only in the proposal window, so rows per window tick
    # stay level as it grows; writing every header in each snapshot's view
    # would double them when the window doubles
    base = SimConfig(
        seed=7, num_nodes=6, num_chains=2, snapshot_interval=100,
        crash_schedule=((600, 1),), run_duration=1000,
    )
    short = run_simulation(base)
    long_ = run_simulation(replace(base, run_duration=2000))
    assert not short.safety_flags and not long_.safety_flags
    assert long_.window > 2 * short.window
    per_tick = [len(t.snapshot_rows) / t.window for t in (short, long_)]
    assert per_tick[1] <= 1.25 * per_tick[0]


def test_each_committed_header_is_gossiped_once():
    # only the replica that appends a block sends its header, to every other node
    cfg = small_cfg(num_nodes=9, num_chains=3, run_duration=1000)
    trace = run_simulation(cfg)
    assert not trace.safety_flags
    blocks = sum(trace.committed_blocks.values())
    assert blocks > 0
    assert trace.message_counts["Gossip"] == blocks * (cfg.num_nodes - 1)


def test_one_sender_per_header_reaches_every_live_node_despite_crashes():
    cfg = small_cfg(seed=23, num_nodes=9, num_chains=3, run_duration=1200)
    leaders = [first_leader(cfg, chain)[0] for chain in range(2)]
    crashes = ((400, leaders[0]), (700, leaders[1]))
    sim = Simulation(replace(cfg, crash_schedule=crashes))
    trace = sim.run()
    assert not trace.safety_flags and not trace.expected_stall
    for node in sim.nodes:
        if sim.crash_time[node.node_id] <= sim.end_time:
            continue
        for chain, ledger in sim.canonical.items():
            assert len(node.view.chains[chain]) == len(ledger.blocks), (node.node_id, chain)


def test_second_vote_in_a_term_is_flagged():
    sim = Simulation(small_cfg(num_nodes=5, run_duration=400))
    sim.run()
    assert not sim.out.safety_flags
    voter = sim.nodes[0]
    a, b = [n for n in sim.assignment[voter.chain_id] if n != voter.node_id][:2]
    term = 10**6
    sim._after_raft(voter, sim.end_time, [(a, VoteReply(term, True))])
    both = [(a, VoteReply(term, True)), (b, VoteReply(term, False))]
    sim._after_raft(voter, sim.end_time, both)
    assert not sim.out.safety_flags  # a repeated grant and a refusal are not second votes
    sim._after_raft(voter, sim.end_time, [(b, VoteReply(term, True))])
    assert sim.out.safety_flags == [
        f"vote-safety chain={voter.chain_id} term={term} voter=0 candidates={a},{b}"
    ]


def test_second_leader_in_a_won_term_is_flagged():
    sim = Simulation(small_cfg(num_nodes=5, run_duration=400))
    sim.run()
    assert not sim.out.safety_flags
    term = max(sim.monitors[0].winners)
    winner = sim.monitors[0].winners[term]
    other = sim.nodes[next(n for n in sim.assignment[0] if n != winner)]
    r = other.raft
    r.current_term, r.role, r.votes = term, Role.CANDIDATE, set(r.cluster)
    sim._after_raft(other, sim.end_time, r._maybe_win(sim.end_time))
    assert sim.out.safety_flags == [
        f"election-safety chain=0 term={term} leaders={winner},{other.node_id}"
    ]


def test_commit_past_the_leaders_acks_is_flagged():
    sim = Simulation(small_cfg(num_nodes=5, run_duration=400))
    sim.run()
    assert not sim.out.safety_flags
    leader = next(n for n in sim.nodes if n.raft.role is Role.LEADER)
    r = leader.raft
    index = r.last_log_index() + 1
    r.log.append(LogEntry(r.current_term, index, b""))  # a no-op no peer holds
    r.commit_index = index
    sim._after_raft(leader, sim.end_time, [])
    assert sim.out.safety_flags == [
        f"commit-quorum chain={leader.chain_id} index={index} acks=1 quorum={r.quorum}"
    ]
    assert leader.applied == index


def test_leader_that_lacks_a_committed_entry_is_flagged():
    sim = Simulation(small_cfg(num_nodes=5, run_duration=400))
    sim.run()
    assert not sim.out.safety_flags
    term = max(sim.monitors[0].winners) + 1  # a term nobody has led
    node = sim.nodes[sim.assignment[0][0]]
    r = node.raft
    index = r.commit_index
    assert index > 0
    del r.log[index - 1 :]  # the last committed entry and all after it
    r.current_term, r.role, r.votes = term, Role.CANDIDATE, set(r.cluster)
    sim._after_raft(node, sim.end_time, r._maybe_win(sim.end_time))
    assert sim.out.safety_flags == [
        f"leader-completeness chain=0 term={term} leader={node.node_id} index={index}"
    ]


def test_commit_index_that_falls_is_flagged_once():
    sim = Simulation(small_cfg(num_nodes=5, run_duration=400))
    sim.run()
    assert not sim.out.safety_flags
    node = sim.nodes[sim.assignment[0][1]]
    was = node.raft.commit_index
    node.raft.commit_index = was - 1
    sim._after_raft(node, sim.end_time, [])
    sim._after_raft(node, sim.end_time, [])  # no second fall
    assert sim.out.safety_flags == [
        f"commit-monotonicity chain=0 node={node.node_id} index={was - 1} was={was}"
    ]
    assert node.applied == was


def test_entries_that_differ_below_a_shared_index_and_term_are_flagged():
    sim = Simulation(small_cfg(num_nodes=5, run_duration=400))
    sim.run()
    assert not sim.out.safety_flags
    first, *others = sim.assignment[0]
    log = sim.nodes[first].raft.log
    assert all(sim.nodes[n].raft.log == log for n in others)
    log[0] = log[0]._replace(command=log[0].command + b"\x00")  # same index and term
    sim._final_checks()
    assert sim.out.safety_flags == [f"log-matching chain=0 nodes={first},{n}" for n in others]


def test_committed_entry_that_differs_in_term_is_flagged_on_a_crashed_node():
    cfg = small_cfg(num_nodes=5, run_duration=400)
    first, *others = Simulation(cfg).run().assignment[0]
    sim = Simulation(replace(cfg, crash_schedule=((300, first),)))
    sim.run()
    assert not sim.out.safety_flags and sim.assignment[0] == [first, *others]
    r = sim.nodes[first].raft  # down since t=300, but still a committee member
    top = r.commit_index
    assert top > 0 and all(sim.nodes[n].raft.commit_index > top for n in others)
    assert all(sim.nodes[n].raft.log[:top] == r.log[:top] for n in others)
    # the logs still match below it, so this is no log-matching flag
    r.log[top - 1] = r.log[top - 1]._replace(term=r.log[top - 1].term + 1)
    sim._final_checks()
    assert sim.out.safety_flags == [f"committed-prefix chain=0 nodes={first},{n}" for n in others]


def test_node_whose_final_order_differs_is_flagged(monkeypatch):
    cfg = small_cfg(seed=27, num_nodes=9, num_chains=3, run_duration=1200)
    assert run_simulation(cfg).safety_flags == []
    skip = 4
    real_gossip = Simulation._gossip_block

    def skipping(self, node, header, now):
        # node `skip` hears of no header it does not apply itself: the fan-out
        # reads it as down from tick 0
        crash_time = self.crash_time[skip]
        self.crash_time[skip] = 0
        try:
            real_gossip(self, node, header, now)
        finally:
            self.crash_time[skip] = crash_time

    monkeypatch.setattr(Simulation, "_gossip_block", skipping)
    sim = Simulation(cfg)
    trace = sim.run()
    assert len(sim.nodes[skip].view.order) < len(sim.nodes[0].view.order)
    assert trace.safety_flags == [f"final-order-divergence nodes=0,{skip}"]
    text = trace.csv_outputs()["safety.csv"].decode()
    assert list(csv.reader(io.StringIO(text))) == [["flag"], *([f] for f in trace.safety_flags)]


def test_safety_csv_quotes_each_flag_into_one_field():
    trace = run_simulation(small_cfg(num_nodes=3, run_duration=400))
    flags = [
        "plain",
        "election-safety chain=0 term=2 leaders=0,1",
        'say "hi", twice',
        "two\nlines",
        "final-view: node 1 chain 0 at height 3, expected 2",
    ]
    text = replace(trace, safety_flags=flags).csv_outputs()["safety.csv"].decode()
    assert list(csv.reader(io.StringIO(text))) == [["flag"], *([f] for f in flags)]
    assert text.startswith("flag\nplain\n")  # a flag with nothing to quote is written bare


def test_final_order_that_is_not_the_reference_order_is_flagged():
    sim = Simulation(small_cfg(num_nodes=5, run_duration=400))
    sim.run()
    assert not sim.out.safety_flags
    order = sim.store.order  # every node's order is a prefix of it
    order[1], order[2] = order[2], order[1]
    sim._final_checks()
    assert sim.out.safety_flags == ["prefix-stability node=0 t=final"]


def counted(calls, name, fn):
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    return wrapper


def test_stale_proposal_is_skipped_once_by_every_replica(monkeypatch):
    # the leader's third proposal names a wrong parent: Raft commits it, and
    # the ledger skips it
    proposals = []

    def wrong_parent_on_third(**fields):
        proposals.append(fields["height"])
        if len(proposals) == 3:
            fields["parent_hash"] = b"\xff" * 32
        return real_new_block(**fields)

    real_new_block = sim_module.new_block
    calls = {"append_block": 0, "decode_block": 0}
    monkeypatch.setattr(sim_module, "new_block", wrong_parent_on_third)
    for name in calls:
        monkeypatch.setattr(sim_module, name, counted(calls, name, getattr(sim_module, name)))
    sim = Simulation(small_cfg(num_nodes=5, run_duration=800))
    trace = sim.run()
    assert trace.skipped_blocks == 1
    assert trace.safety_flags == []
    committed = trace.committed_blocks[0]
    assert committed > 3
    assert {node.height for node in sim.nodes} == {committed}
    # each committed entry is decoded and appended once, not once per replica
    assert calls["decode_block"] == committed + 1
    assert calls["append_block"] == committed + 1 + 1  # plus the genesis


def test_one_cipher_context_per_key_and_one_encoding_per_transaction(monkeypatch):
    calls = {"AESGCM": 0, "encode_transaction": 0}
    monkeypatch.setattr(sealing_module, "AESGCM", counted(calls, "AESGCM", sealing_module.AESGCM))
    encode = ledger_module.encode_transaction
    monkeypatch.setattr(
        ledger_module, "encode_transaction", counted(calls, "encode_transaction", encode)
    )
    proposed = []

    def recording_new_block(**fields):
        block = real_new_block(**fields)
        proposed.append(len(block.transactions))
        return block

    real_new_block = sim_module.new_block
    monkeypatch.setattr(sim_module, "new_block", recording_new_block)
    cfg = small_cfg(num_nodes=4, tx_rate=2.5, sensitive_fraction=0.5, num_seal_keys=3)
    trace = run_simulation(cfg)
    assert trace.safety_flags == []
    assert trace.sealed_verified > 0
    assert calls["AESGCM"] == cfg.num_seal_keys
    assert sum(proposed) >= trace.total_committed_txs() > 0
    assert calls["encode_transaction"] == sum(proposed)


def test_replicas_that_disagree_on_a_committed_entry_are_flagged():
    sim = Simulation(small_cfg(num_nodes=5, run_duration=600))
    sim.run()
    assert not sim.out.safety_flags
    a, b = (sim.nodes[n] for n in sim.assignment[0][:2])
    height, index = a.height, a.raft.last_log_index() + 1
    assert (b.height, b.raft.last_log_index() + 1) == (height, index)
    rank, next_rank = propose_rank_fields(a.view, 0)
    parent = sim.canonical[0].hashes[height]

    def commit(node, term):
        block = new_block(0, height + 1, parent, rank, next_rank, (), term)
        node.raft.log.append(LogEntry(node.raft.current_term, index, encode_block(block)))
        node.raft.commit_index = index
        sim._apply_committed(node, sim.end_time)

    commit(a, 7)
    assert a.height == height + 1 and not sim.out.safety_flags
    commit(b, 8)  # the same index with a different command
    assert sim.out.safety_flags == [f"state-machine-safety chain=0 index={index}"]
    assert b.height == height
    # b never applied the block at height + 1, so the next one does not fit it
    sim.out.safety_flags.clear()
    index += 1
    height, parent = height + 1, sim.canonical[0].hashes[height + 1]
    rank, next_rank = next_rank, next_rank + 1
    commit(a, 7)
    commit(b, 7)
    assert a.height == height + 1 and b.height == height - 1
    assert sim.out.safety_flags == [
        f"ledger-divergence chain=0 node={b.node_id} index={index} "
        f"height={height + 1} expected={height}"
    ]


def test_command_that_does_not_decode_is_flagged(monkeypatch):
    cfg = small_cfg(num_nodes=5, run_duration=600)
    assert run_simulation(cfg).safety_flags == []
    broken = []

    def trailing_byte_at_height_three(block):
        raw = real_encode_block(block)
        if block.header.height == 3 and not broken:
            raw += b"\x00"
            broken.append(raw)
        return raw

    real_encode_block = sim_module.encode_block
    monkeypatch.setattr(sim_module, "encode_block", trailing_byte_at_height_three)
    sim = Simulation(cfg)
    trace = sim.run()
    appliers = [
        n for n in sim.nodes if any(e.command == broken[0] for e in n.raft.log[: n.applied])
    ]
    assert len(appliers) >= 3  # a quorum committed and applied it
    assert trace.safety_flags == [
        "command-decode chain=0: trailing bytes after block"
    ] * len(appliers)


def sealed_cfg():
    return small_cfg(num_nodes=4, sensitive_fraction=1.0, tx_rate=0.5, run_duration=1000)


def test_sealed_payload_that_fails_authentication_is_flagged(monkeypatch):
    assert run_simulation(sealed_cfg()).safety_flags == []
    flipped = []

    def flip_first_ciphertext_byte(key, plaintext, ad):
        sealed = real_seal(key, plaintext, ad)
        if flipped:
            return sealed
        flipped.append(int.from_bytes(ad[:8], "big"))
        at = sealing_module._HEAD.size  # the ciphertext follows the head
        return sealed[:at] + bytes([sealed[at] ^ 1]) + sealed[at + 1 :]

    real_seal = sim_module.seal
    monkeypatch.setattr(sim_module, "seal", flip_first_ciphertext_byte)
    trace = run_simulation(sealed_cfg())
    assert trace.safety_flags == [f"sealed-roundtrip nonce={flipped[0]}: authentication failed"]
    assert trace.sealed_verified == trace.total_committed_txs() - 1


def test_sealed_payload_that_opens_to_the_wrong_plaintext_is_flagged(monkeypatch):
    assert run_simulation(sealed_cfg()).safety_flags == []

    def wrong_first_plaintext(self, start):
        real_generate(self, start)
        self.plaintexts[0] = bytes(len(self.plaintexts[0]))

    real_generate = Simulation._generate_workload
    monkeypatch.setattr(Simulation, "_generate_workload", wrong_first_plaintext)
    trace = run_simulation(sealed_cfg())
    assert trace.safety_flags == ["sealed-roundtrip nonce=0: wrong plaintext"]
    assert trace.sealed_verified == trace.total_committed_txs() - 1


def test_csv_bytes_matches_comma_joined_str_cells():
    header = "a,b,c"
    rows = [
        (1, 22, -3),
        ("nodes=1,2", "two words", ""),
        ("0.500000", f"{1 / 3:.6f}", "50%"),
    ]
    joined = "".join(",".join(map(str, row)) + "\n" for row in rows)
    assert csv_bytes(header, rows) == f"{header}\n{joined}".encode()
    assert csv_bytes(header, []) == b"a,b,c\n"
    assert csv_bytes("flag", [("x,y",)]) == b"flag\nx,y\n"
    for row in [(1, 2), (1, 2, 3, 4)]:
        with pytest.raises(TypeError):
            csv_bytes(header, [row])


def test_fork_at_a_height_the_store_holds_is_flagged(monkeypatch):
    # a block after genesis that links to it as a real one would, but that the
    # store does not hold: caught at the node's frontier and below it
    cfg = small_cfg(num_nodes=5, run_duration=400)
    # the victim is block 1's appender: the one node that block is not gossiped to
    appenders = []
    real_gossip = Simulation._gossip_block

    def recording(self, node, header, now):
        if header.height == 1:
            appenders.append(node.node_id)
        real_gossip(self, node, header, now)

    with monkeypatch.context() as m:
        m.setattr(Simulation, "_gossip_block", recording)
        assert run_simulation(cfg).safety_flags == []
    [victim] = appenders
    assert victim != 0  # node 0 stays an honest witness below
    genesis = make_genesis(0)
    fork = new_block(0, 1, hash_header(genesis.header), 1, 2, (), 99).header
    swapped = []
    real_ingest = Simulation._ingest_header

    def forking(self, node, header, now):
        if node.node_id == victim and header.height == 1 and not swapped:
            swapped.append(header)  # its first height-1 header: the frontier is at 1
            header = fork
        real_ingest(self, node, header, now)

    monkeypatch.setattr(Simulation, "_ingest_header", forking)
    sim = Simulation(cfg)
    sim.run()
    assert sim.store.chains[0][1] != fork
    # the victim appended block 1: its own copy was the fork, and it never gets another
    assert sim.out.safety_flags == [
        f"header-linkage node={victim} chain=0 height=1",
        f"final-order-divergence nodes=0,{victim}",
    ]
    sim.out.safety_flags.clear()
    node = sim.nodes[0]
    assert node.view.heights[0] > 1
    real_ingest(sim, node, fork, sim.end_time)
    assert sim.out.safety_flags == ["view-divergence node=0 chain=0 height=1"]


@pytest.mark.parametrize("name", ["multi-chain-crash", "traced-crash"])
def test_every_frontier_reads_its_order_off_the_store(name, monkeypatch):
    # after every arrival, each live node's bar is the minimum of the tails its
    # heights give, and its order is the store's order up to the first ref at
    # or above that bar; at the end the brute-force oracle agrees
    config, _ = build_config(CASES[name][0])
    real_ingest = Simulation._ingest_header
    calls = []

    def checked(self, node, header, now):
        real_ingest(self, node, header, now)
        calls.append(now)
        store = self.store
        for other in self.nodes:
            if self.crash_time[other.node_id] <= min(now, self.end_time):
                continue
            view = other.view
            assert view.tails == [
                store.chains[c][height - 1].next_rank for c, height in enumerate(view.heights)
            ]
            assert view.bar == min(view.tails)
            order = view.order
            assert order == store.order[: len(order)]
            assert all(ref.rank < view.bar for ref in order)
            assert len(order) == len(store.order) or store.order[len(order)].rank >= view.bar

    monkeypatch.setattr(Simulation, "_ingest_header", checked)
    sim = Simulation(config)
    trace = sim.run()
    assert calls and not trace.safety_flags
    for node in sim.nodes:
        if sim.crash_time[node.node_id] > sim.end_time:
            assert reference_total_order(node.view) == node.view.order


def test_gossip_that_conflicts_with_a_view_is_flagged(monkeypatch):
    sim = Simulation(small_cfg(num_nodes=5, run_duration=400))
    sim.run()
    assert not sim.out.safety_flags
    node = sim.nodes[0]
    held = node.view.chains[0][1]
    calls = {"hash_header": 0}
    monkeypatch.setattr(  # the fork rule, GlobalView.holds, hashes in ordering
        ordering_module, "hash_header", counted(calls, "hash_header", ordering_module.hash_header)
    )
    sim._ingest_header(node, held, sim.end_time)  # a repeat of the object it holds
    assert calls["hash_header"] == 0
    sim._ingest_header(node, held._replace(), sim.end_time)  # an equal copy is hashed
    assert calls["hash_header"] == 1 and not sim.out.safety_flags
    forked = held._replace(proposer_term=held.proposer_term + 1)
    sim._ingest_header(node, forked, sim.end_time)
    assert sim.out.safety_flags == ["view-divergence node=0 chain=0 height=1"]
    sim.out.safety_flags.clear()
    tip = node.view.chains[0][-1]
    orphan = new_block(0, tip.height + 1, bytes(32), tip.next_rank, tip.next_rank + 1, (), 1)
    sim._ingest_header(node, orphan.header, sim.end_time)
    assert sim.out.safety_flags == [f"header-linkage node=0 chain=0 height={tip.height + 1}"]


def test_event_trace_is_optional():
    # node 3 is down from t = 200, so deliveries to a down node run in both modes
    cfg = small_cfg(num_nodes=4, run_duration=600, crash_schedule=((200, 3),))
    plain = run_simulation(cfg)
    assert plain.event_rows is None
    assert "events.csv" not in plain.csv_outputs()
    traced = run_simulation(cfg, trace=True)
    assert traced.event_rows
    assert any(row[3] == 3 and row[0] > 200 and row[2] == "msg" for row in traced.event_rows)
    assert traced.events_processed == plain.events_processed
    outputs = traced.csv_outputs()
    assert outputs.pop("events.csv")
    assert outputs == plain.csv_outputs()  # every other file, byte for byte


def test_each_timer_event_is_one_tick(monkeypatch):
    # a superseded deadline costs no event: a crash-free run's timer rows are
    # exactly its RaftNode.tick calls
    ticks = []
    real_tick = RaftNode.tick

    def counting(self, now):
        ticks.append(now)
        return real_tick(self, now)

    monkeypatch.setattr(RaftNode, "tick", counting)
    cfg = small_cfg(
        seed=5, num_nodes=4, num_chains=2, run_duration=800,
        election_timeout=60, heartbeat_interval=15,
    )
    trace = run_simulation(cfg, trace=True)
    assert not trace.safety_flags
    timers = [row[0] for row in trace.event_rows if row[2] == "timer"]
    assert timers and timers == ticks


def test_a_timer_fires_at_the_seq_its_last_arming_reserved(monkeypatch):
    # a timer re-armed D -> D' > D -> D keeps its first heap entry at D; that entry
    # must fire at the seq the last arming reserved, not its own
    timeline = []  # in execution order: ("arm", node, deadline, seq) and ("fire", node, now)
    real_arm, real_tick = Simulation._arm_timer, RaftNode.tick

    def arming(self, node, now):
        real_arm(self, node, now)
        timeline.append(("arm", node.node_id, node.timer_at, node.timer_seq))

    def firing(self, now):
        timeline.append(("fire", self.node_id, now))
        return real_tick(self, now)

    monkeypatch.setattr(Simulation, "_arm_timer", arming)
    monkeypatch.setattr(RaftNode, "tick", firing)
    cfg = small_cfg(
        seed=1, num_nodes=3, lottery_bits=2, raft_delay_max=8, election_timeout=60,
        heartbeat_interval=15, run_duration=900, snapshot_interval=300,
    )
    trace = run_simulation(cfg, trace=True)
    assert not trace.safety_flags
    reserved, armed, fires = {}, set(), []  # node -> its last (deadline, seq); every arming
    for step in timeline:
        if step[0] == "arm":
            _, nid, deadline, seq = step
            reserved[nid] = deadline, seq
            armed.add((nid, deadline, seq))
        else:
            _, nid, now = step
            deadline, seq = reserved[nid]
            assert deadline == now
            fires.append((now, seq, nid))
    # some timer fires at a deadline that an earlier, superseded arming also reserved
    superseded = armed - {(n, t, s) for t, s, n in fires}
    assert any((m, d) == (n, t) and r < s for t, s, n in fires for m, d, r in superseded)
    assert [(t, s, n) for t, s, kind, n, _ in trace.event_rows if kind == "timer"] == fires


def test_event_rows_are_the_events_in_time_then_seq_order():
    # crashes in the beacon phase, mid-run and past the horizon, and arrivals
    # drawn at a fractional rate, all interleave with the heap's events
    cfg = small_cfg(
        seed=8, num_nodes=6, num_chains=2, tx_rate=1.3, run_duration=900,
        crash_schedule=((3, 0), (450, 3), (1301, 5)),
    )
    trace = run_simulation(cfg, trace=True)
    assert 3 < trace.workload_start < 450 and trace.end_time == 1300
    rows = trace.event_rows
    keys = [(time, seq) for time, seq, *_ in rows]
    assert all(a < b for a, b in zip(keys, keys[1:]))
    assert len(rows) == trace.events_processed
    crashes = [(time, nid) for time, _, kind, nid, _ in rows if kind == "crash"]
    assert crashes == [(3, 0), (450, 3)]
    assert sum(row[2] == "client" for row in rows) == trace.submitted_txs > 0


def test_a_proposal_takes_its_chains_earliest_arrivals_up_to_max_batch(monkeypatch):
    proposals = []  # [chain, now, block or None]
    real_propose, real_new_block = Simulation._on_propose, sim_module.new_block

    def propose(self, chain, now):
        proposals.append([chain, now, None])
        real_propose(self, chain, now)

    def recording_new_block(**fields):
        proposals[-1][2] = real_new_block(**fields)
        return proposals[-1][2]

    monkeypatch.setattr(Simulation, "_on_propose", propose)
    monkeypatch.setattr(sim_module, "new_block", recording_new_block)
    cfg = small_cfg(
        seed=4, num_nodes=6, num_chains=2, tx_rate=0.7, block_interval=10, max_batch=4,
    )
    trace = run_simulation(cfg, trace=True)
    # each client row is at its submit time and names its chain; by seq, in nonce order
    client = sorted(
        (seq, time, nid) for time, seq, kind, nid, _ in trace.event_rows if kind == "client"
    )
    submit = [time for _, time, _ in client]
    chain_of = [nid for _, _, nid in client]
    taken = {c: [] for c in range(cfg.num_chains)}
    sizes = set()
    for chain, now, block in proposals:
        if block is None:
            continue
        nonces = [tx.nonce for tx in block.transactions]
        assert len(nonces) <= cfg.max_batch
        assert all(submit[n] < now and chain_of[n] == chain for n in nonces)
        taken[chain] += nonces
        sizes.add(len(nonces))
        if len(nonces) < cfg.max_batch:
            # no arrival of the chain before now is left behind
            earlier = sum(submit[n] < now for n in range(len(submit)) if chain_of[n] == chain)
            assert len(taken[chain]) == earlier
    for c, nonces in taken.items():
        mine = [n for n in range(len(chain_of)) if chain_of[n] == c]
        assert nonces == mine[: len(nonces)]
    assert cfg.max_batch in sizes and min(sizes) < cfg.max_batch


def test_gossip_draws_move_no_raft_delay(monkeypatch):
    # crashing each chain's first leader forces elections whose vote races
    # turn on the Raft message delays
    cfg = small_cfg(
        seed=27, num_nodes=9, num_chains=3, run_duration=1200,
        crash_schedule=((400, 2), (550, 1), (700, 5)),
    )
    base = Simulation(cfg)
    base_trace = base.run()
    skip = 4
    real_gossip = Simulation._gossip_block

    def skipping(self, node, header, now):
        # node `skip` misses every header, read as down from tick 0 by the
        # fan-out alone: no delay is drawn for it
        crash_time = self.crash_time[skip]
        self.crash_time[skip] = 0
        try:
            real_gossip(self, node, header, now)
        finally:
            self.crash_time[skip] = crash_time

    monkeypatch.setattr(Simulation, "_gossip_block", skipping)
    cut = Simulation(cfg)
    cut_trace = cut.run()

    def raft_counts(trace):
        return {k: v for k, v in trace.message_counts.items() if k != "Gossip"}

    assert cut_trace.message_counts["Gossip"] < base_trace.message_counts["Gossip"]
    assert raft_counts(cut_trace) == raft_counts(base_trace)
    assert [m.winners for m in cut.monitors] == [m.winners for m in base.monitors]


def drawn_workload(cfg):
    """The simulation with cfg's workload drawn from tick 0, and its per-tick arrivals."""
    sim = Simulation(cfg)
    sim._generate_workload(0)
    counts = [0] * cfg.run_duration
    for t in sim.submit_times:
        counts[t] += 1
    return sim, counts


def chi_square(observed, probabilities):
    total = sum(observed)
    return sum((o - total * p) ** 2 / (total * p) for o, p in zip(observed, probabilities))


@pytest.mark.parametrize("tx_rate", [0.25, 2.3])
def test_arrivals_per_tick_are_whole_plus_bernoulli(tx_rate):
    ticks = 20_000
    _, counts = drawn_workload(
        small_cfg(seed=3, tx_rate=tx_rate, sensitive_fraction=0, run_duration=ticks)
    )
    whole = int(tx_rate)
    p = tx_rate - whole
    extra = [c - whole for c in counts]
    assert set(extra) == {0, 1}
    # chi-square critical values at significance 0.001: 10.83 (1 dof), 16.27 (3 dof)
    assert chi_square([extra.count(0), extra.count(1)], [1 - p, p]) < 10.83
    # disjoint pairs of consecutive ticks are independent Bernoulli(p) pairs
    pairs = [2 * extra[t] + extra[t + 1] for t in range(0, ticks, 2)]
    expected = [(1 - p) ** 2, (1 - p) * p, p * (1 - p), p * p]
    assert chi_square([pairs.count(v) for v in range(4)], expected) < 16.27


@pytest.mark.parametrize("tx_rate", [0, 1e-17, 0.999999, 2.0, 3.5])
def test_arrival_sampler_edge_rates(tx_rate):
    cfg = small_cfg(tx_rate=tx_rate, sensitive_fraction=0, run_duration=500)
    sim, counts = drawn_workload(cfg)
    whole = int(tx_rate)
    frac = tx_rate - whole
    assert len(sim_module._gap_table(frac, cfg.run_duration)) <= cfg.run_duration
    assert min(counts) >= whole and max(counts) <= whole + 1
    if frac < 1e-16:
        assert counts == [whole] * cfg.run_duration
    # each transaction reads three u64s (chain, sensitivity, fee) and a 24-byte
    # payload; each gap is one u64: one per extra arrival and one for the gap
    # that ends past the run. The stream's next bytes lie exactly that far on.
    txs = sum(counts)
    gap_draws = txs - whole * cfg.run_duration + 1 if frac else 0
    consumed = 8 * (3 * txs + gap_draws) + 24 * txs
    oracle = OracleStream(oracle_key("workload", cfg.seed))
    assert sim._workload.next_bytes(32) == oracle.read(consumed + 32)[consumed:]


def test_workload_stream_position_with_sealing():
    cfg = small_cfg(tx_rate=2.5, sensitive_fraction=0.5, num_seal_keys=3, run_duration=500)
    sim, counts = drawn_workload(cfg)
    txs = sum(counts)
    sealed = sum(p is not None for p in sim.plaintexts)
    assert 0 < sealed < txs
    # as above, plus one u64 seal-key draw for each sealed transaction only
    gap_draws = txs - 2 * cfg.run_duration + 1
    consumed = 8 * (3 * txs + gap_draws + sealed) + 24 * txs
    oracle = OracleStream(oracle_key("workload", cfg.seed))
    assert sim._workload.next_bytes(32) == oracle.read(consumed + 32)[consumed:]


def crafted_stream(prefix):
    """A stream whose next bytes are prefix, then its own blocks from block 0."""
    s = sim_module.Stream.from_labels("crafted-workload")
    s._buf, s._end = prefix, len(prefix)
    return s


def test_rejected_workload_draws_fall_back_to_sequential_draws():
    cfg = small_cfg(
        num_nodes=6, num_chains=3, tx_rate=1, sensitive_fraction=0.5, num_seal_keys=3,
        run_duration=40,
    )

    def u64(v):
        return v.to_bytes(8, "big")

    rejected = u64(2**64 - 1)  # at or above the rejection limit of next_below(3) and (1000)
    prefix = (
        # a rejected chain draw, then chain 1, sensitive, fee 5, payload, seal key 2
        rejected + u64(1) + u64(0) + u64(5) + b"a" * 24 + u64(2)
        # chain 2, not sensitive, a rejected fee draw, then fee 999, payload
        + u64(2) + rejected + rejected + u64(1999) + b"b" * 24
        # chain 0, sensitive, fee 7, payload, a rejected seal-key draw, then key 4 % 3
        + u64(0) + u64(0) + u64(7) + b"c" * 24 + rejected + u64(4)
        # chain 1, not sensitive, fee 8, payload: the next 8 bytes would reject as its
        # key draw, but a plain transaction has none, and they are the next chain draw
        + u64(1) + rejected + u64(8) + b"d" * 24
        + rejected + u64(2) + rejected + u64(9) + b"e" * 24
    )
    sim = Simulation(cfg)
    sim._workload = crafted_stream(prefix)
    sim._generate_workload(0)
    got = []
    drawn = sorted((tx.nonce, chain, tx) for chain, txs in sim.pending.items() for tx in txs)
    for _, chain, tx in drawn:
        if tx.sensitive:
            key_id = int.from_bytes(tx.payload[:4], "big")  # the wire bytes' first field
            got.append((chain, True, tx.fee, sim.plaintexts[tx.nonce], key_id))
        else:
            got.append((chain, False, tx.fee, tx.payload, None))

    ref = crafted_stream(prefix)
    expect = []
    for _ in range(cfg.run_duration):
        chain = ref.next_below(cfg.num_chains)
        sensitive = ref.chance(cfg.sensitive_fraction)
        fee = ref.next_below(1000)
        payload = ref.next_bytes(24)
        key_id = ref.next_below(cfg.num_seal_keys) if sensitive else None
        expect.append((chain, sensitive, fee, payload, key_id))
    assert expect[:5] == [
        (1, True, 5, b"a" * 24, 2),
        (2, False, 999, b"b" * 24, None),
        (0, True, 7, b"c" * 24, 1),
        (1, False, 8, b"d" * 24, None),
        (2, False, 9, b"e" * 24, None),
    ]
    assert got == expect
    assert sim._workload.next_bytes(32) == ref.next_bytes(32)


def test_scaling_baseline_matches_plain_run():
    base = small_cfg(num_nodes=5, num_chains=1, run_duration=1000)
    [point] = measure_scaling(base, [1], committee_size=5)
    plain = run_simulation(base)
    assert point.committed_txs == plain.total_committed_txs()
    assert point.throughput == pytest.approx(plain.throughput())
    assert point.nodes == 5


def test_run_whose_beacon_outlasts_the_workload_commits_nothing():
    base = small_cfg(num_nodes=5, delta=10, run_duration=5)
    trace = run_simulation(base)
    assert trace.workload_start > base.run_duration
    assert trace.submitted_txs == trace.total_committed_txs() == 0
    assert trace.window == 1 and trace.throughput() == 0.0
    header, row = trace.csv_outputs()["throughput.csv"].decode().splitlines()
    assert row.split(",")[3:] == ["1", "0.000000"]
    [point] = measure_scaling(base, [1])
    assert (point.window, point.throughput) == (1, 0.0)


def test_scaling_grows_with_chain_count():
    base = small_cfg(num_nodes=5, num_chains=1, run_duration=1000, tx_rate=0.4)
    one, two = measure_scaling(base, [1, 2], committee_size=5)
    assert two.nodes == 10 and two.chains == 2
    assert two.throughput > one.throughput * 1.3
    with pytest.raises(ConfigError):
        measure_scaling(base, [0])
