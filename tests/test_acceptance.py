"""Acceptance gate: eight numbered criteria, one test each.

Every test states its tolerance in the assertion and reports a one-line
verdict (printed by conftest in the terminal summary, runtimes included
where a target exists). Expensive suites run once and are shared:
criterion 2 reads the criterion 1 Monte Carlo, criterion 5 aggregates the
runs of criteria 3 and 4.
"""

import hashlib
import math
import random
import time
from functools import lru_cache

from acceptance_report import record
from shadowraft.beacon import (
    expected_messages,
    invoke_beacon,
    make_beacon_nodes,
    repeat_probability,
)
from shadowraft.cli import main
from shadowraft.ledger import hash_header, make_genesis, new_block
from shadowraft.ordering import (
    GlobalView,
    propose_rank_fields,
    reference_total_order,
    total_order,
)
from shadowraft.rng import Stream
from shadowraft.sealing import AuthFailure, KeyDirectory, generate_key, seal
from shadowraft.sim import SimConfig, measure_scaling, run_simulation

EPOCHS = 20_000


@lru_cache(maxsize=None)
def beacon_monte_carlo(num_nodes, bits):
    """(repeat_rate, mean_certs, mean_msgs, seconds) over EPOCHS epochs."""
    start = time.monotonic()
    nodes = make_beacon_nodes(num_nodes, bits, seed=20260814)
    repeats = certs = 0
    for epoch in range(EPOCHS):
        hits = sum(1 for n in nodes if invoke_beacon(n, epoch) is not None)
        certs += hits
        if hits == 0:
            repeats += 1
    msgs = certs * (num_nodes - 1)
    return (
        repeats / EPOCHS,
        certs / EPOCHS,
        msgs / EPOCHS,
        time.monotonic() - start,
    )


@lru_cache(maxsize=None)
def raft_safety_suite():
    """1,000 randomized single-chain runs with sub-quorum crash schedules."""
    start = time.monotonic()
    rand = random.Random(3001)
    flags, committed, ranks = [], 0, 0
    for i in range(1000):
        n = rand.choice([3, 5, 7])
        crash_count = rand.randint(0, (n - 1) // 2)
        schedule = tuple(
            (rand.randint(250, 700), nid)
            for nid in rand.sample(range(n), crash_count)
        )
        cfg = SimConfig(
            seed=rand.getrandbits(48),
            num_nodes=n,
            num_chains=1,
            lottery_bits=2,
            raft_delay_max=rand.choice([3, 5, 8]),
            election_timeout=rand.choice([60, 100, 140]),
            heartbeat_interval=15,
            block_interval=50,
            tx_rate=0.25,
            crash_schedule=schedule,
            run_duration=900,
            snapshot_interval=300,
        )
        trace = run_simulation(cfg)
        flags.extend(f"run{i}: {f}" for f in trace.safety_flags)
        if trace.committed_blocks[0] > 0:
            committed += 1
        # blocks in the ledgers, genesis included; append_block checked each link
        ranks += sum(trace.committed_blocks.values()) + cfg.num_chains
    return flags, committed, ranks, time.monotonic() - start


@lru_cache(maxsize=None)
def ordering_consistency_suite():
    """200 multi-chain runs, C in {2,3,4}, snapshots sampled throughout."""
    start = time.monotonic()
    rand = random.Random(4001)
    flags, sampled, ranks = [], 0, 0
    for i in range(200):
        c = rand.choice([2, 3, 4])
        committee = rand.choice([3, 5])
        cfg = SimConfig(
            seed=rand.getrandbits(48),
            num_nodes=committee * c,
            num_chains=c,
            lottery_bits=3,
            election_timeout=80,
            heartbeat_interval=20,
            run_duration=1100,
            tx_rate=0.2 * c,
            snapshot_interval=250,
        )
        trace = run_simulation(cfg)
        flags.extend(f"run{i}: {f}" for f in trace.safety_flags)
        if trace.snapshot_rows and trace.final_order:
            sampled += 1
        # blocks in the ledgers, genesis included; append_block checked each link
        ranks += sum(trace.committed_blocks.values()) + cfg.num_chains
    return flags, sampled, ranks, time.monotonic() - start


@lru_cache(maxsize=None)
def scaling_sweep():
    start = time.monotonic()
    base = SimConfig(
        seed=42,
        num_nodes=5,
        num_chains=1,
        lottery_bits=4,
        run_duration=1500,
        tx_rate=0.5,
    )
    points = measure_scaling(base, [1, 2, 4, 8], committee_size=5)
    return points, time.monotonic() - start


def test_criterion_1_beacon_repeat_rate():
    rate64, _, _, sec64 = beacon_monte_carlo(64, 6)
    rate128, _, _, sec128 = beacon_monte_carlo(128, 7)
    closed = repeat_probability(64, 6)
    diff64 = abs(rate64 - closed)
    diff128 = abs(rate128 - math.exp(-1))
    ok = diff64 <= 0.02 and diff128 <= 0.02
    record(
        1,
        ok,
        f"repeat rate diffs {diff64:.4f} (N=64,l=6 vs {closed:.4f}) and "
        f"{diff128:.4f} (N=128,l=7 vs 1/e), bound 0.02; "
        f"{sec64 + sec128:.1f}s of 30s target",
    )
    assert diff64 <= 0.02, f"N=64 empirical {rate64:.4f} vs closed {closed:.4f}"
    assert diff128 <= 0.02, f"N=128 empirical {rate128:.4f} vs 1/e"


def test_criterion_2_beacon_message_complexity():
    checks = []
    for n, bits in ((64, 6), (128, 7)):
        _, mean_certs, mean_msgs, _ = beacon_monte_carlo(n, bits)
        want_certs = n * 2.0**-bits
        want_msgs = expected_messages(n, bits)
        checks.append(("certs", n, mean_certs, want_certs))
        checks.append(("msgs", n, mean_msgs, want_msgs))
    rel = [(what, n, abs(got - want) / want) for what, n, got, want in checks]
    worst = max(r for _, _, r in rel)
    ok = worst <= 0.15
    record(2, ok, f"certificate and message means within {worst:.1%} of closed forms, bound 15%")
    for what, n, got, want in checks:
        assert abs(got - want) / want <= 0.15, f"{what} N={n}: {got:.3f} vs {want:.3f}"


def test_criterion_3_raft_safety_suite():
    flags, committed, _, seconds = raft_safety_suite()
    ok = not flags and committed == 1000
    record(
        3,
        ok,
        f"1000 randomized runs (n in 3/5/7, crashes below quorum): "
        f"{len(flags)} safety flags, {committed}/1000 made progress; "
        f"{seconds:.0f}s of 300s target",
    )
    assert flags == [], flags[:5]
    assert committed == 1000


def random_small_view(rand):
    num_chains = rand.randint(1, 4)
    view = GlobalView(num_chains)
    for c in range(num_chains):
        genesis = make_genesis(c).header
        view.add(genesis, hash_header(genesis))

    for _ in range(rand.randint(0, num_chains * 6)):
        c = rand.randrange(num_chains)
        if len(view.chains[c]) >= 6:
            continue
        rank, next_rank = propose_rank_fields(view, c)
        parent = view.chains[c][-1]
        header = new_block(
            c,
            parent.height + 1,
            hash_header(parent),
            rank,
            next_rank + rand.choice([0, 0, 0, 1, 2]),
            (),
            1,
        ).header
        view.add(header, hash_header(header))
    return view


def test_criterion_4_total_order_consistency():
    flags, sampled, _, seconds = ordering_consistency_suite()

    rand = random.Random(5001)
    mismatches = 0
    for _ in range(10_000):
        view = random_small_view(rand)
        if total_order(view) != reference_total_order(view):
            mismatches += 1

    ok = not flags and sampled == 200 and mismatches == 0
    record(
        4,
        ok,
        f"200 multi-chain runs prefix-consistent with identical final orders "
        f"({len(flags)} flags, {sampled}/200 sampled); oracle mismatches "
        f"{mismatches}/10000; {seconds:.0f}s",
    )
    assert flags == [], flags[:5]
    assert sampled == 200
    assert mismatches == 0


def test_criterion_5_rank_discipline():
    # every committed block in both suites was checked for next_rank > rank
    # and rank continuity; any breach would have raised a rank-* flag
    flags3, _, ranks3, _ = raft_safety_suite()
    flags4, _, ranks4, _ = ordering_consistency_suite()
    rank_flags = [f for f in flags3 + flags4 if "rank" in f]
    total = ranks3 + ranks4
    ok = not rank_flags and total > 10_000
    record(
        5,
        ok,
        f"{total} blocks across 1200 runs satisfy next_rank > rank and "
        f"per-chain rank continuity ({len(rank_flags)} violations)",
    )
    assert rank_flags == []
    assert total > 10_000, "suites produced too few blocks to claim coverage"


def test_criterion_6_throughput_scaling():
    points, seconds = scaling_sweep()
    base = points[0].throughput
    assert points[0].chains == 1 and base > 0
    deviations = {
        p.chains: (p.throughput - base * p.chains) / (base * p.chains) for p in points
    }
    worst = max(abs(d) for d in deviations.values())
    ok = worst <= 0.20
    record(
        6,
        ok,
        "scaling C=1,2,4,8 within "
        f"{worst:.1%} of linear (bound 20%); {seconds:.0f}s of 120s target",
    )
    for p in points:
        ideal = base * p.chains
        assert abs(p.throughput - ideal) <= 0.20 * ideal, (
            f"C={p.chains}: {p.throughput:.4f} vs ideal {ideal:.4f}"
        )


def test_criterion_7_sealing_round_trips_and_tampering():
    rand = random.Random(7001)
    key = generate_key(1, Stream.from_labels("acceptance-seal", 1))
    directory = KeyDirectory()
    directory.add(key)
    round_trips = auth_failures = plaintext_windows = 0
    for _ in range(1000):
        plaintext = rand.randbytes(rand.randrange(16, 64))
        ad = rand.randbytes(8)
        sealed = seal(key, plaintext, ad)
        if directory.unseal(sealed, ad) == plaintext:
            round_trips += 1
        # wire bytes: key_id 4B, nonce 12B, length 8B, ciphertext, auth_tag 16B
        ciphertext = sealed[24:-16]
        for i in range(len(plaintext) - 7):
            if plaintext[i : i + 8] in ciphertext:
                plaintext_windows += 1

        tag = len(sealed) - 16
        start, end = rand.choice(((4, 16), (24, tag), (tag, len(sealed))))
        forged = bytearray(sealed)  # one bit flipped in the nonce, ciphertext or auth_tag
        forged[rand.randrange(start, end)] ^= 1 << rand.randrange(8)
        try:
            directory.unseal(bytes(forged), ad)
        except AuthFailure:
            auth_failures += 1

    ok = round_trips == 1000 and auth_failures == 1000 and plaintext_windows == 0
    record(
        7,
        ok,
        f"{round_trips}/1000 round-trips, {auth_failures}/1000 tampers "
        f"rejected, {plaintext_windows} plaintext windows leaked",
    )
    assert round_trips == 1000
    assert auth_failures == 1000
    assert plaintext_windows == 0


def hash_tree(path):
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(path.iterdir())
        if p.is_file()
    }


def test_criterion_8_byte_identical_reruns(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "seed = 123\nnum_nodes = 6\nnum_chains = 2\nlottery_bits = 2\n"
        "run_duration = 900\nsnapshot_interval = 200\n"
    )
    pairs = []
    for label in ("a", "b"):
        out = tmp_path / f"run-{label}"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        pairs.append(hash_tree(out))
    run_equal = pairs[0] == pairs[1]

    stats = []
    for label in ("a", "b"):
        out = tmp_path / f"stats-{label}"
        code = main(
            ["beacon-stats", "--nodes", "16", "--bits", "3",
             "--epochs", "500", "--seed", "9", "--out", str(out)]
        )
        assert code == 0
        stats.append(hash_tree(out))
    stats_equal = stats[0] == stats[1]
    capsys.readouterr()

    ok = run_equal and stats_equal
    record(
        8,
        ok,
        f"re-runs byte-identical by SHA-256 over {len(pairs[0])} run files "
        f"and {len(stats[0])} beacon-stats files",
    )
    assert run_equal, "run outputs differ between identical invocations"
    assert stats_equal, "beacon-stats outputs differ between identical invocations"
