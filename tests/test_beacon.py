"""Lottery beacon, certificates, and seeded chain assignment.

Draw order, winner selection, and the assignment shuffle are re-derived in
tests/oracles.py without touching the production stream code.
"""

import math
from fractions import Fraction

import pytest

from oracles import (
    OracleStream,
    oracle_assignment,
    oracle_beacon_draws,
    oracle_cert_tag,
    oracle_key,
)
from shadowraft.beacon import (
    BeaconNode,
    Certificate,
    EpochReplay,
    InvalidShape,
    UnknownNode,
    assign_chains,
    expected_messages,
    invoke_beacon,
    make_beacon_nodes,
    repeat_probability,
    select_seed,
    tag_key,
    verify_certificate,
)
import shadowraft.sim as sim_module
from shadowraft.rng import Stream
from shadowraft.sim import Lottery


def directory_for(nodes):
    return {n.node_id: tag_key(n.secret) for n in nodes}


def test_invoke_draw_order_matches_oracle():
    # q comes from the next u64 of beacon-rng (reduced mod 2^l), a winner's
    # rnd from the next u64 of beacon-rnd
    bits, seed, epochs = 4, 11, 40
    nodes = make_beacon_nodes(6, bits, seed)
    for node in nodes:
        predicted = oracle_beacon_draws(seed, node.node_id, bits, epochs)
        for epoch, (q_src, rnd) in enumerate(predicted):
            cert = invoke_beacon(node, epoch)
            if q_src % (1 << bits) == 0:
                assert cert is not None
                assert (cert.epoch, cert.rnd, cert.node_id) == (epoch, rnd, node.node_id)
            else:
                assert cert is None


def test_invoke_draws_match_oracle_across_read_ahead():
    # 1,300 invocations read 10,400 bytes, past 10 one-block batch edges; the
    # epochs skip values and each skip is preceded by rejected replays, which
    # must consume no draw
    bits, seed, count = 1, 13, 1300
    node = make_beacon_nodes(1, bits, seed)[0]
    wins = 0
    for i, (q_src, rnd) in enumerate(oracle_beacon_draws(seed, 0, bits, count)):
        epoch = 3 * i + i % 2
        if i:
            for replay in (node.last_invoked_epoch // 2, node.last_invoked_epoch):
                with pytest.raises(EpochReplay):
                    invoke_beacon(node, replay)
        cert = invoke_beacon(node, epoch)
        if q_src % (1 << bits):
            assert cert is None, i
        else:
            assert (cert.epoch, cert.rnd) == (epoch, rnd), i
            wins += 1
    assert 500 < wins < 800


@pytest.mark.parametrize("bits, count", [(8, 1300), (9, 4000), (16, 4000), (32, 1300)])
def test_invoke_matches_oracle_where_the_byte_scan_is_not_enough(bits, count):
    # the scan flags a record when the low min(l, 8) bits of its q are zero;
    # above l = 8 a flagged record wins only if all l low bits of q are zero
    seed = 13
    node = make_beacon_nodes(1, bits, seed)[0]
    seen = set()  # (q's low byte is zero, the record wins)
    for epoch, (q_src, rnd) in enumerate(oracle_beacon_draws(seed, 0, bits, count)):
        cert = invoke_beacon(node, epoch)
        wins = q_src % (1 << bits) == 0
        if wins:
            assert (cert.epoch, cert.rnd, cert.node_id) == (epoch, rnd, 0), epoch
        else:
            assert cert is None, epoch
        seen.add((q_src % 256 == 0, wins))
    # the range holds a flagged record that wins (l <= 8) or loses (l > 8),
    # and at l = 9 also a flagged record that wins
    assert (True, bits <= 8) in seen
    if bits == 9:
        assert (True, True) in seen


def test_each_batch_hashes_one_block():
    # every read is one R-byte block, R / 8 = 128 records; a read is made when
    # the first record past the last read is needed, so an enclave invoked k
    # times has hashed ceil(k / 128) blocks
    node = make_beacon_nodes(1, 6, seed=17)[0]
    invoked = 0
    for count in (1, 128, 129, 200, 256, 257, 2600):
        while invoked < count:
            invoke_beacon(node, invoked)
            invoked += 1
        assert node.rng._counter == -(-count // 128), count


def test_only_a_win_reads_the_rnd_stream():
    # a losing invocation draws no rnd: the rnd stream hashes no block before
    # the first win, and k wins read k u64s, so ceil(k / 128) blocks
    node = make_beacon_nodes(1, 2, seed=17)[0]
    assert invoke_beacon(node, 0) is None and node.rnd_rng._counter == 0
    wins = 0
    for epoch in range(1, 1300):
        wins += invoke_beacon(node, epoch) is not None
        assert node.rnd_rng._counter == -(-wins // 128), epoch
    assert wins > 256  # past two rnd blocks


def test_sixteen_invocations_hash_one_block():
    # a simulation locks its seed within a few epochs, so an enclave's first
    # reads must hash no more than the one block its 16 draws lie in
    node = make_beacon_nodes(1, 6, seed=17)[0]
    for epoch in range(16):
        invoke_beacon(node, epoch)
    assert node.rng._counter == 1


def test_invoke_wins_at_rate_two_to_minus_l():
    node = make_beacon_nodes(1, 3, seed=2)[0]
    wins = sum(1 for e in range(4000) if invoke_beacon(node, e) is not None)
    sigma = math.sqrt(4000 * (1 / 8) * (7 / 8))
    assert abs(wins - 4000 / 8) < 5 * sigma


def test_epoch_gate_rejects_replay():
    node = make_beacon_nodes(1, 6, seed=3)[0]
    invoke_beacon(node, 5)
    with pytest.raises(EpochReplay):
        invoke_beacon(node, 5)
    with pytest.raises(EpochReplay):
        invoke_beacon(node, 3)
    invoke_beacon(node, 6)
    assert node.last_invoked_epoch == 6


def test_epoch_gate_advances_on_losing_draws():
    # a discarded losing draw still burns the epoch
    node = make_beacon_nodes(1, 16, seed=4)[0]  # win chance 2^-16, surely loses
    assert invoke_beacon(node, 0) is None
    with pytest.raises(EpochReplay):
        invoke_beacon(node, 0)


def test_node_field_validation():
    with pytest.raises(ValueError):
        BeaconNode(0, b"short", 6, Stream.from_labels("x"), Stream.from_labels("y"))
    for bad_bits in (0, 33):
        with pytest.raises(ValueError):
            BeaconNode(0, bytes(32), bad_bits, Stream.from_labels("x"), Stream.from_labels("y"))


def first_certificate(bits=2, seed=9):
    node = make_beacon_nodes(1, bits, seed)[0]
    for epoch in range(200):
        cert = invoke_beacon(node, epoch)
        if cert is not None:
            return cert, node
    raise AssertionError("no certificate in 200 epochs")


def test_certificate_verifies_and_binds_fields():
    cert, node = first_certificate()
    directory = directory_for([node])
    assert verify_certificate(cert, directory)
    assert not verify_certificate(
        Certificate(cert.epoch, cert.rnd + 1, cert.node_id, cert.tag), directory
    )
    assert not verify_certificate(
        Certificate(cert.epoch + 1, cert.rnd, cert.node_id, cert.tag), directory
    )
    bad_tag = bytes(32)
    assert not verify_certificate(
        Certificate(cert.epoch, cert.rnd, cert.node_id, bad_tag), directory
    )
    with pytest.raises(UnknownNode):
        verify_certificate(cert, {})


def test_certificate_tags_match_the_hmac_oracle():
    # signing and verifying share one tag function, so a tag that is wrong the
    # same way on both sides passes every other check: compare with stdlib hmac
    seed, epochs = 4, 300
    nodes = make_beacon_nodes(3, 2, seed)
    directory = directory_for(nodes)
    for node in nodes:
        secret = oracle_key("beacon-secret", seed, node.node_id)
        issued = [c for c in (invoke_beacon(node, e) for e in range(epochs)) if c]
        assert len(issued) > 40
        # wins at back-to-back epochs: one enclave's keyed contexts sign both
        assert any(b.epoch == a.epoch + 1 for a, b in zip(issued, issued[1:]))
        other = nodes[(node.node_id + 1) % len(nodes)]
        for cert in issued:
            assert cert.tag == oracle_cert_tag(secret, cert.epoch, cert.rnd, cert.node_id)
            assert verify_certificate(cert, directory)
            # the issuer's id mapped to another node's entry
            assert not verify_certificate(cert, {node.node_id: directory[other.node_id]})


def certs(pairs, epoch=1):
    return [Certificate(epoch, rnd, nid, bytes(32)) for nid, rnd in pairs]


def test_select_winner_lowest_rnd():
    # node 1 holds the one certificate with rnd 3
    assert select_seed(certs([(0, 5), (1, 3), (2, 9)])) == 3


def test_select_seed_ties_give_one_seed():
    assert select_seed(certs([(4, 3), (2, 3), (7, 3)])) == 3


def test_select_seed_examples():
    assert select_seed(certs([(0, 5), (1, 3), (2, 9)])) == 3
    assert select_seed(certs([(0, 7)])) == 7
    assert select_seed([]) is None  # the epoch repeats


def test_select_seed_order_independent():
    batch = certs([(0, 8), (1, 2), (2, 6), (3, 2)])
    assert select_seed(batch) == select_seed(list(reversed(batch))) == 2


def test_settle_epoch_drops_certificates_for_other_epochs(monkeypatch):
    # node 0 answers each epoch it is invoked in with a correctly tagged
    # certificate that it won at another epoch: broadcast, counted as
    # forged, never the seed
    probe = make_beacon_nodes(1, 2, seed=2)[0]  # node 0's enclave and stream
    stale = [c for c in (invoke_beacon(probe, e) for e in range(200)) if c][5]
    nodes = make_beacon_nodes(4, 2, seed=2)
    twins = make_beacon_nodes(4, 2, seed=2)
    keys = directory_for(nodes)
    assert verify_certificate(stale, keys)
    invoked = []  # the epochs in which the lottery invokes node 0

    def replaying(node, epoch):
        cert = invoke_beacon(node, epoch)  # node 0 still burns its draw
        if node.node_id:
            return cert
        invoked.append(epoch)
        return stale

    monkeypatch.setattr(sim_module, "invoke_beacon", replaying)
    lottery = Lottery(nodes)
    outcomes = set()
    for epoch in range(stale.epoch + 18):
        honest = [c for c in (invoke_beacon(n, epoch) for n in twins[1:]) if c]
        row, forged = lottery.settle()
        if invoked[-1] != epoch:
            assert forged == [] and row == (epoch, int(bool(honest)), len(honest),
                                            select_seed(honest), len(honest) * 3)
            continue
        if epoch == stale.epoch:
            assert forged == [] and row[2] == len(honest) + 1
            continue
        assert forged == [stale]
        assert row == (epoch, int(bool(honest)), len(honest),
                       select_seed(honest), (len(honest) + 1) * 3)
        outcomes.add((epoch < stale.epoch, bool(honest)))
    assert outcomes == {(True, False), (True, True), (False, False), (False, True)}
    assert stale.epoch in invoked and len(invoked) < stale.epoch + 18


def test_settle_epoch_agrees_with_manual_invocation():
    nodes_a = make_beacon_nodes(8, 3, seed=21)
    nodes_b = make_beacon_nodes(8, 3, seed=21)
    lottery = Lottery(nodes_a)
    saw_single_winner = False
    for epoch in range(30):
        manual = [c for c in (invoke_beacon(n, epoch) for n in nodes_b) if c]
        row, forged = lottery.settle()
        row_epoch, succeeded, num_certificates, seed, messages_sent = row
        assert row_epoch == epoch and forged == []
        assert messages_sent == len(manual) * 7
        if not manual:
            assert (succeeded, num_certificates, seed) == (0, 0, None)
            continue
        assert succeeded == 1
        assert seed == select_seed(manual)
        assert num_certificates == len(manual)
        if num_certificates == 1:
            saw_single_winner = True
            assert seed == manual[0].rnd
    assert saw_single_winner


def stream_state(node):
    return (node._at, node.last_invoked_epoch, node.rng._counter, node.rng._pos,
            node.rnd_rng._counter, node.rnd_rng._pos)


@pytest.mark.parametrize("num_nodes, bits", [(6, 1), (16, 5), (32, 10)])
def test_lottery_matches_invoking_every_live_enclave_under_crashes(num_nodes, bits):
    # node 1 is down from t=0, node 2 from the start of epoch 2, node 3 from
    # mid-way through epoch 3 and node 4 from mid-way through epoch 300, past
    # two 128-record batches; 800 epochs cross six batch edges
    delta, epochs, seed = 10, 800, 5
    crash_time = [math.inf] * num_nodes
    for when, nid in ((0, 1), (20, 2), (35, 3), (3005, 4)):
        crash_time[nid] = when
    nodes = make_beacon_nodes(num_nodes, bits, seed)
    twins = make_beacon_nodes(num_nodes, bits, seed)
    lottery = Lottery(nodes, crash_time, delta)
    compared = [0] * num_nodes
    for epoch in range(epochs):
        live = [n for n in range(num_nodes) if crash_time[n] > epoch * delta]
        certs = [c for c in (invoke_beacon(twins[n], epoch) for n in live) if c]
        seed_rnd = select_seed(certs)
        expect = (epoch, int(seed_rnd is not None), len(certs), seed_rnd,
                  len(certs) * (num_nodes - 1))
        assert lottery.settle() == (expect, []), epoch
        for n in live:  # an enclave lapsed to this epoch is caught up with its twin
            if nodes[n].last_invoked_epoch == epoch:
                assert stream_state(nodes[n]) == stream_state(twins[n]), (epoch, n)
                compared[n] += 1
    assert compared[1] == 0 and min(compared[4:]) >= 2  # node 4 at epochs 127 and 255
    assert min(twins[n].rng._counter for n in range(5, num_nodes)) == -(-epochs // 128)
    assert sum(compared) < num_nodes * epochs // 2  # most epochs invoke no enclave


def test_lottery_keeps_the_epoch_gate():
    nodes = make_beacon_nodes(8, 4, seed=12)
    lottery = Lottery(nodes)
    gates = [-1] * 8
    for epoch in range(150):
        row, _ = lottery.settle()
        assert row[0] == epoch  # epochs settle one at a time from 0
        for n, node in enumerate(nodes):
            assert node.last_invoked_epoch >= max(gates[n], epoch)  # never lowered
            gates[n] = node.last_invoked_epoch
            with pytest.raises(EpochReplay):  # a settled epoch is closed to manual calls
                invoke_beacon(node, epoch)


def test_repeat_probability_closed_form():
    exact = Fraction(127, 128) ** 128
    assert repeat_probability(128, 7) == pytest.approx(float(exact), rel=1e-12)
    assert abs(repeat_probability(128, 7) - math.exp(-1)) < 0.002
    assert repeat_probability(1, 1) == 0.5
    # many nodes with a short lottery: repeats vanish
    assert repeat_probability(1000, 2) < 1e-100


def test_expected_messages():
    assert expected_messages(128, 7) == pytest.approx(127.0)
    assert expected_messages(1, 6) == 0.0
    assert expected_messages(10, 1) == pytest.approx(45.0)


def test_empirical_repeat_rate_tracks_closed_form():
    num_nodes, bits, trials = 16, 4, 3000
    lottery = Lottery(make_beacon_nodes(num_nodes, bits, seed=31))
    repeats = sum(1 for _ in range(trials) if not lottery.settle()[0][1])
    p = repeat_probability(num_nodes, bits)
    sigma = math.sqrt(p * (1 - p) / trials)
    assert abs(repeats / trials - p) < 5 * sigma


def test_assign_chains_examples():
    even = assign_chains(99, 4, 2)
    assert [len(c) for c in even] == [2, 2]
    assert assign_chains(0, 1, 1) == [[0]]
    uneven = assign_chains(1234, 5, 2)
    assert [len(c) for c in uneven] == [3, 2]


def test_assign_chains_matches_hand_trace():
    # independent execution of the documented shuffle and split
    assert assign_chains(12345, 5, 2) == oracle_assignment(12345, 5, 2)
    for seed in (0, 7, 982451653):
        for n, c in [(9, 4), (12, 3), (6, 6), (30, 7)]:
            assert assign_chains(seed, n, c) == oracle_assignment(seed, n, c)


def test_assign_chains_partitions_nodes():
    for seed in range(40):
        n, c = 3 + seed % 17, 1 + seed % 5
        if c > n:
            continue
        committees = assign_chains(seed, n, c)
        assert len(committees) == c
        flat = sorted(x for com in committees for x in com)
        assert flat == list(range(n))
        sizes = [len(com) for com in committees]
        assert max(sizes) - min(sizes) <= 1


def test_assign_chains_shape_errors():
    with pytest.raises(InvalidShape):
        assign_chains(1, 3, 4)
    with pytest.raises(InvalidShape):
        assign_chains(1, 3, 0)


def test_assignment_uniformity_chi_square():
    # N=6 with singleton committees exposes the full permutation
    trials = 50_000
    counts = {}
    for seed in range(trials):
        perm = tuple(com[0] for com in assign_chains(seed, 6, 6))
        counts[perm] = counts.get(perm, 0) + 1
    assert len(counts) == 720
    p = 1 / 720
    mean = trials * p
    sigma = math.sqrt(trials * p * (1 - p))
    worst = max(abs(c - mean) for c in counts.values())
    assert worst < 5 * sigma, f"worst deviation {worst:.1f} vs bound {5 * sigma:.1f}"


def test_make_beacon_nodes_deterministic_and_distinct():
    a = make_beacon_nodes(4, 6, seed=5)
    b = make_beacon_nodes(4, 6, seed=5)
    assert [n.secret for n in a] == [n.secret for n in b]
    assert len({n.secret for n in a}) == 4
    assert a[0].secret == oracle_key("beacon-secret", 5, 0)
    c = make_beacon_nodes(4, 6, seed=6)
    assert a[0].secret != c[0].secret
