"""Stream primitives, cross-checked against the hashlib oracles in oracles.py.

The oracles re-implement the documented construction (SHA-256 over
domain-separated labels, SHAKE-128 blocks of 1024 bytes, rejection sampling,
descending Fisher-Yates) straight from hashlib so the production code and the
tests cannot share a bug.
"""

import struct
from types import SimpleNamespace

import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from oracles import OracleStream, oracle_key

from shadowraft.raft import AppendEntries, AppendReply, RaftNode
from shadowraft.rng import Stream, below_limit, stream_key
from shadowraft.sim import SimConfig, Simulation


def test_key_matches_oracle():
    for labels in [("a",), ("delays", 7), (1, 2, 3), ("x", "y"), (0,)]:
        assert stream_key(*labels) == oracle_key(*labels)


def test_key_requires_labels():
    with pytest.raises(ValueError):
        stream_key()


def test_bool_labels_rejected():
    with pytest.raises(TypeError):
        stream_key(True)


def test_integer_labels_outside_u64_rejected():
    for label in (-1, 1 << 64):
        with pytest.raises(ValueError, match="outside"):
            stream_key("beacon-rng", label)
    assert stream_key((1 << 64) - 1) == oracle_key((1 << 64) - 1)


def test_label_kinds_are_distinct():
    # int 1 encodes as 8 bytes, str "1" as one byte
    assert stream_key(1) != stream_key("1")
    # separator prevents concatenation collisions
    assert stream_key("ab", "c") != stream_key("a", "bc")


def test_stream_bytes_match_oracle():
    key = oracle_key("bytes-test", 5)
    s = Stream(key)
    got = s.next_bytes(7) + s.next_bytes(1) + s.next_bytes(70) + s.next_bytes(0)
    assert got == OracleStream(key).read(78)


def test_next_bytes_rejects_negative_counts_without_moving():
    key = oracle_key("negative-test")
    s = Stream(key)
    s.next_bytes(5)
    with pytest.raises(ValueError):
        s.next_bytes(-1)
    with pytest.raises(ValueError):
        s.next_bytes(-40)
    assert s.next_bytes(30) == OracleStream(key).read(35)[5:]


def test_next_u64_is_big_endian_prefix():
    key = oracle_key("u64-test")
    s = Stream(key)
    raw = OracleStream(key).read(16)
    assert s.next_u64() == int.from_bytes(raw[:8], "big")
    assert s.next_u64() == int.from_bytes(raw[8:], "big")


def test_stream_determinism():
    a = Stream.from_labels("same", 1)
    b = Stream.from_labels("same", 1)
    assert [a.next_u64() for _ in range(20)] == [b.next_u64() for _ in range(20)]


def test_streams_with_different_labels_diverge():
    a = Stream.from_labels("lane", 1)
    b = Stream.from_labels("lane", 2)
    assert [a.next_u64() for _ in range(4)] != [b.next_u64() for _ in range(4)]


def test_key_length_enforced():
    with pytest.raises(ValueError):
        Stream(b"short")


def test_next_below_matches_oracle_rejection():
    key = oracle_key("below-test")
    s = Stream(key)
    o = OracleStream(key)
    # 1000 is not a power of two, so the rejection path is exercised
    for _ in range(500):
        assert s.next_below(1000) == o.below(1000)


def test_next_below_bounds_and_errors():
    s = Stream.from_labels("bounds")
    for _ in range(200):
        assert 0 <= s.next_below(7) < 7
    assert s.next_below(1) == 0
    with pytest.raises(ValueError):
        s.next_below(0)
    with pytest.raises(ValueError):
        s.next_below((1 << 64) + 1)


def test_below_limit_domain():
    # past 2**64 the limit would be 0, and an inlined loop would reject every draw
    assert below_limit(1 << 64) == 1 << 64
    for n in (0, (1 << 64) + 1):
        with pytest.raises(ValueError):
            below_limit(n)


def test_next_below_distribution():
    s = Stream.from_labels("distribution", 3)
    n, draws = 5, 20000
    counts = [0] * n
    for _ in range(draws):
        counts[s.next_below(n)] += 1
    mean = draws / n
    sigma = (draws * (1 / n) * (1 - 1 / n)) ** 0.5
    for c in counts:
        assert abs(c - mean) < 5 * sigma


def test_uniform_int_inclusive_range():
    s = Stream.from_labels("uniform")
    seen = {s.uniform_int(3, 5) for _ in range(200)}
    assert seen == {3, 4, 5}
    assert s.uniform_int(9, 9) == 9
    with pytest.raises(ValueError):
        s.uniform_int(5, 4)


def test_chance_extremes():
    s = Stream.from_labels("chance")
    assert all(s.chance(1.0) for _ in range(50))
    assert not any(s.chance(0.0) for _ in range(50))


def test_chance_consumes_one_draw_even_when_impossible():
    # call sites rely on stream alignment regardless of probability
    a = Stream.from_labels("aligned")
    b = Stream.from_labels("aligned")
    a.chance(0.0)
    b.next_u64()
    assert a.next_u64() == b.next_u64()


def test_chance_frequency():
    s = Stream.from_labels("chance-freq")
    draws = 20000
    hits = sum(1 for _ in range(draws) if s.chance(0.25))
    sigma = (draws * 0.25 * 0.75) ** 0.5
    assert abs(hits - draws * 0.25) < 5 * sigma


def test_shuffle_matches_oracle_fisher_yates():
    key = oracle_key("shuffle-test", 9)
    items = list(range(10))
    Stream(key).shuffle(items)

    expect = list(range(10))
    o = OracleStream(key)
    for i in range(9, 0, -1):
        j = o.below(i + 1)
        expect[i], expect[j] = expect[j], expect[i]
    assert items == expect


def test_shuffle_is_permutation():
    for seed in range(30):
        items = list(range(17))
        Stream.from_labels("perm", seed).shuffle(items)
        assert sorted(items) == list(range(17))


def test_shuffle_empty_and_singleton():
    s = Stream.from_labels("tiny")
    empty, one = [], [42]
    s.shuffle(empty)
    s.shuffle(one)
    assert empty == [] and one == [42]


# One draw each: (method name, arguments). A Stream's buffer always ends on a
# block edge, a multiple of 1024 bytes into the stream, and a read that
# outgrows the unread bytes appends as many blocks as it needs. Small reads of
# up to 70 bytes straddle an edge only from its last bytes; peeks of up to
# 1100 bytes and skips of up to 2100 cross one or two edges from any offset,
# and the explicit examples put reads on, across and past the 1024- and
# 2048-byte edges at known places.
_PEEK_FORMATS = [">QQQ24s", ">QQ", ">Q", ">5s", ">0s", ">1100s"]

_DRAWS = st.one_of(
    st.tuples(st.just("next_bytes"), st.tuples(st.integers(0, 70))),
    st.tuples(st.just("next_u64"), st.just(())),
    st.tuples(st.just("next_below"), st.tuples(st.integers(1, 1 << 64))),
    st.tuples(st.just("uniform_int"), st.tuples(st.integers(-5, 5), st.integers(5, 300))),
    st.tuples(st.just("chance"), st.tuples(st.floats(-0.5, 1.5))),
    st.tuples(st.just("shuffle"), st.tuples(st.integers(0, 9))),
    st.tuples(st.just("peek"), st.tuples(st.sampled_from(_PEEK_FORMATS))),
    st.tuples(st.just("skip"), st.tuples(st.integers(0, 2100))),
)


def _oracle_draw(o, name, args):
    if name == "next_bytes":
        return o.read(args[0])
    if name == "next_u64":
        return o.u64()
    if name == "next_below":
        return o.below(args[0])
    if name == "uniform_int":
        return args[0] + o.below(args[1] - args[0] + 1)
    if name == "chance":
        value = o.u64()
        return args[0] > 0 and value < min(1 << 64, int(args[0] * (1 << 64)))
    if name == "peek":
        st = struct.Struct(args[0])
        return st.unpack(o.peek(st.size))
    if name == "skip":
        o.read(args[0])
        return None
    items = list(range(args[0]))
    o.shuffle(items)
    return items


@given(label=st.integers(0, (1 << 64) - 1), draws=st.lists(_DRAWS, max_size=40))
@example(label=0, draws=[("next_bytes", (8,)), ("next_bytes", (56,)), ("next_u64", ())])
@example(label=1, draws=[("next_bytes", (3,)), ("next_u64", ()), ("next_bytes", (29,))])
@example(label=2, draws=[("next_bytes", (70,)), ("next_bytes", (26,)), ("next_u64", ())])
# the first block ends at byte 1024 and the second at 2048: reads that end on an
# edge, straddle it, or outgrow a block
@example(label=3, draws=[("skip", (1018,)), ("peek", (">QQQ24s",)), ("skip", (48,)), ("next_u64", ())])
@example(label=4, draws=[("skip", (1024,)), ("peek", (">QQ",)), ("next_below", (1000,))])
@example(label=8, draws=[("skip", (1017,)), ("peek", (">Q",)), ("skip", (7,)), ("next_u64", ())])
@example(label=5, draws=[("next_bytes", (60,)), ("skip", (960,)), ("skip", (40,)), ("next_u64", ())])
@example(label=6, draws=[("next_u64", ()), ("peek", (">1100s",)), ("next_bytes", (70,)), ("skip", (1970,))])
@example(label=7, draws=[("skip", (1020,)), ("next_u64", ()), ("peek", (">0s",)), ("skip", (0,))])
@example(label=9, draws=[("skip", (2048,)), ("next_u64", ()), ("skip", (2036,)), ("peek", (">QQ",))])
@example(label=10, draws=[("skip", (100,)), ("skip", (2000,)), ("peek", (">1100s",)), ("next_u64", ())])
@example(label=11, draws=[("peek", (">1100s",)), ("skip", (2045,)), ("next_bytes", (6,)), ("next_u64", ())])
def test_any_draw_interleaving_reads_the_oracle_bytes(label, draws):
    s = Stream.from_labels("interleave", label)
    o = OracleStream(oracle_key("interleave", label))
    for name, args in draws:
        if name == "shuffle":
            got = list(range(args[0]))
            s.shuffle(got)
        elif name == "peek":
            got = s.peek(struct.Struct(args[0]))
        else:
            got = getattr(s, name)(*args)
        assert got == _oracle_draw(o, name, args), (name, args)
    # the next bytes agree only if both consumed exactly the same prefix
    assert s.next_bytes(40) == o.read(40)


def test_skip_rejects_negative_counts_without_moving():
    key = oracle_key("negative-skip")
    s = Stream(key)
    s.skip(5)
    with pytest.raises(ValueError):
        s.skip(-1)
    with pytest.raises(ValueError):
        s.skip(-300)
    assert s.next_bytes(30) == OracleStream(key).read(35)[5:]


# -- next_below's loop inlined on next_u64 (see rng.below_limit) -----------------
#
# The simulator's Raft and gossip delays and each node's election timeout read
# next_below(n) by the same rejection loop, written at the call site. Spans 1 and
# 5 reject (almost) never; at 2**63 + 1, below_limit is 2**63 + 1 itself, so
# about half of all draws reject and the loop's rejection branch runs.
_SPANS = [1, 5, 1000, 2**63 + 1]


def _oracle_below(key, n, count):
    """count next_below(n) draws read by the oracle, and how many u64s it rejected."""
    o = OracleStream(key)
    limit = (1 << 64) - (1 << 64) % n
    draws, rejected = [], 0
    while len(draws) < count:
        v = o.u64()
        if v < limit:
            draws.append(v % n)
        else:
            rejected += 1
    return draws, rejected


@pytest.mark.parametrize("span", _SPANS)
def test_simulator_delays_match_uniform_int_on_twin_streams(span):
    lo, hi, seed, now = 3, 3 + span - 1, 11, 7
    sim = Simulation(SimConfig(seed=seed, num_nodes=6, raft_delay_min=lo, raft_delay_max=hi))
    sim.end_time = -1  # arm no timer: only the sends reach the queue
    raft = RaftNode(0, range(6), 100, 20, Stream.from_labels("unused"))
    node = SimpleNamespace(node_id=0, chain_id=0, raft=raft, led_term=0, applied=0)
    for _ in range(8):
        sim._after_raft(node, now, [(dst, AppendReply(0, True, 0)) for dst in range(1, 6)])
        sim._gossip_block(node, "header", now)
    entries = sorted(sim.queue, key=lambda e: e[1])
    sent = {
        "delays": [e[0] - now for e in entries if e[4] != "header"],
        "gossip": [e[0] - now for e in entries if e[4] == "header"],
    }
    assert [len(v) for v in sent.values()] == [40, 40]
    assert sim.out.message_counts == {"AppendReply": 40, "Gossip": 40}
    for label, stream in (("delays", sim._delay), ("gossip", sim._gossip)):
        twin = Stream.from_labels(label, seed)
        assert sent[label] == [twin.uniform_int(lo, hi) for _ in range(40)], label
        draws, rejected = _oracle_below(oracle_key(label, seed), span, 40)
        assert sent[label] == [lo + d for d in draws], label
        assert stream.next_u64() == twin.next_u64()  # the same bytes consumed
        if span == 2**63 + 1:
            assert rejected > 5


@pytest.mark.parametrize("timeout", _SPANS)
def test_raft_timeouts_match_next_below_on_a_twin_stream(timeout):
    labels = ("timeout", 5, 0)
    stream, twin = Stream.from_labels(*labels), Stream.from_labels(*labels)
    node = RaftNode(0, [0, 1, 2], timeout, 1, stream, now=0)
    got = [node.election_deadline]
    for now in range(1, 40):
        if now % 3:
            node.handle_election_timeout(now)
        else:  # a leader's heartbeat: the candidate steps down and redraws
            node.handle_message(1, AppendEntries(node.current_term, 1, 0, 0, (), 0), now)
        got.append(node.election_deadline - now)
    assert got == [timeout + twin.next_below(timeout) for _ in got]
    draws, rejected = _oracle_below(oracle_key(*labels), timeout, len(got))
    assert got == [timeout + d for d in draws]
    assert stream.next_u64() == twin.next_u64()
    if timeout == 2**63 + 1:
        assert rejected > 5
