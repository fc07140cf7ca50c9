"""Lottery beacon, certificates, and seeded chain assignment.

Draw order, winner selection, and the assignment shuffle are re-derived in
tests/oracles.py without touching the production stream code.
"""

import math
from fractions import Fraction

import pytest

from oracles import OracleStream, oracle_assignment, oracle_beacon_draws, oracle_key
from shadowraft.beacon import (
    BeaconNode,
    Certificate,
    EpochReplay,
    InvalidShape,
    MixedEpochs,
    Repeat,
    UnknownNode,
    assign_chains,
    expected_messages,
    invoke_beacon,
    make_beacon_nodes,
    repeat_probability,
    select_seed,
    verify_certificate,
)
from shadowraft.rng import Stream
from shadowraft.sim import settle_epoch


def directory_for(nodes):
    return {n.node_id: n.secret for n in nodes}


def test_invoke_draw_order_matches_oracle():
    # q comes from the first u64 (reduced mod 2^l), rnd from the second
    bits, seed, epochs = 4, 11, 40
    nodes = make_beacon_nodes(6, bits, seed)
    for node in nodes:
        predicted = oracle_beacon_draws(seed, node.node_id, epochs)
        for epoch, (q_src, rnd) in enumerate(predicted):
            cert = invoke_beacon(node, epoch)
            if q_src % (1 << bits) == 0:
                assert cert is not None
                assert (cert.epoch, cert.rnd, cert.node_id) == (epoch, rnd, node.node_id)
            else:
                assert cert is None


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
        BeaconNode(0, b"short", 6, Stream.from_labels("x"))
    for bad_bits in (0, 33):
        with pytest.raises(ValueError):
            BeaconNode(0, bytes(32), bad_bits, Stream.from_labels("x"))


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


def certs(pairs, epoch=1):
    return [Certificate(epoch, rnd, nid, bytes(32)) for nid, rnd in pairs]


def test_select_winner_lowest_rnd():
    # node 1 holds the one certificate with rnd 3
    assert select_seed(certs([(0, 5), (1, 3), (2, 9)]), 1) == 3


def test_select_seed_ties_give_one_seed():
    assert select_seed(certs([(4, 3), (2, 3), (7, 3)]), 1) == 3


def test_select_winner_rejects_mixed_epochs():
    mixed = certs([(0, 5)], epoch=1) + certs([(1, 3)], epoch=2)
    with pytest.raises(MixedEpochs):
        select_seed(mixed, 1)
    with pytest.raises(MixedEpochs):
        select_seed(mixed, 2)


def test_select_seed_examples():
    assert select_seed(certs([(0, 5), (1, 3), (2, 9)]), 1) == 3
    assert select_seed(certs([(0, 7)]), 1) == 7
    with pytest.raises(Repeat) as info:
        select_seed([], 4)
    assert info.value.next_epoch == 5
    with pytest.raises(MixedEpochs):
        select_seed(certs([(0, 5)], epoch=2), 1)


def test_select_seed_order_independent():
    batch = certs([(0, 8), (1, 2), (2, 6), (3, 2)])
    assert select_seed(batch, 1) == select_seed(list(reversed(batch)), 1) == 2


def test_settle_epoch_agrees_with_manual_invocation():
    nodes_a = make_beacon_nodes(8, 3, seed=21)
    nodes_b = make_beacon_nodes(8, 3, seed=21)
    keys = directory_for(nodes_a)
    saw_single_winner = False
    for epoch in range(30):
        manual = [c for c in (invoke_beacon(n, epoch) for n in nodes_b) if c]
        row, forged = settle_epoch(nodes_a, epoch, keys)
        row_epoch, succeeded, num_certificates, seed, messages_sent = row
        assert row_epoch == epoch and forged == []
        assert messages_sent == len(manual) * 7
        if not manual:
            assert (succeeded, num_certificates, seed) == (0, 0, None)
            continue
        assert succeeded == 1
        assert seed == select_seed(manual, epoch)
        assert num_certificates == len(manual)
        if num_certificates == 1:
            saw_single_winner = True
            assert seed == manual[0].rnd
    assert saw_single_winner


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
    nodes = make_beacon_nodes(num_nodes, bits, seed=31)
    keys = directory_for(nodes)
    repeats = sum(1 for epoch in range(trials) if not settle_epoch(nodes, epoch, keys)[0][1])
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
