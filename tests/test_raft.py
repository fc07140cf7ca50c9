"""Consensus handler rules, plus a small randomized cluster harness.

The harness at the bottom is an independent driver (plain heapq and
random.Random, no simulator imports), so no simulator machinery drives the
nodes it checks. Its safety rules are not its own: it feeds the shared
raft.SafetyMonitor, the one the simulator feeds, and asserts that it raises
no flag. Injection tests here and in test_sim.py check the monitor's rules.
"""

import copy
import heapq
import random

import pytest

from shadowraft.raft import (
    AppendEntries,
    AppendReply,
    LogEntry,
    NotLeader,
    RaftNode,
    Role,
    SafetyMonitor,
    VoteReply,
    VoteRequest,
    quorum_threshold,
)
from shadowraft.rng import Stream


def build_cluster(n, seed=0, timeout=100, heartbeat=20):
    ids = list(range(n))
    return {
        i: RaftNode(i, ids, timeout, heartbeat, Stream.from_labels("raft-test", seed, i))
        for i in ids
    }


def state(node):
    """A copy of a node's fields but its timeout stream, which compares by identity."""
    return copy.deepcopy({k: v for k, v in vars(node).items() if k != "_timeouts"})


def elect(nodes, candidate, now=0):
    """Run one clean election round for `candidate`; returns its winner output."""
    requests = nodes[candidate].handle_election_timeout(now)
    out = []
    for dst, msg in requests:
        if not isinstance(msg, VoteRequest):
            continue
        for _, reply in nodes[dst].handle_vote_request(candidate, msg, now):
            out.extend(nodes[candidate].handle_vote_reply(dst, reply, now))
    return out


def test_quorum_threshold_values():
    assert quorum_threshold(5) == 3
    assert quorum_threshold(1) == 1
    assert quorum_threshold(4) == 3
    assert quorum_threshold(3) == 2
    assert quorum_threshold(7) == 4
    with pytest.raises(ValueError):
        quorum_threshold(0)


def test_initial_state():
    node = build_cluster(3)[0]
    assert node.role is Role.FOLLOWER
    assert node.current_term == 0
    assert node.commit_index == 0
    assert node.log == []
    assert 100 <= node.election_deadline < 200


def test_election_timeout_starts_candidacy():
    nodes = build_cluster(3)
    out = nodes[0].handle_election_timeout(500)
    assert nodes[0].role is Role.CANDIDATE
    assert nodes[0].current_term == 1
    assert nodes[0].voted_for == 0
    assert sorted(dst for dst, _ in out) == [1, 2]
    for _, msg in out:
        assert msg == VoteRequest(term=1, candidate_id=0, last_log_index=0, last_log_term=0)
    # fresh randomized deadline in [now+T, now+2T)
    assert 600 <= nodes[0].election_deadline < 700


def test_repeated_timeout_bumps_term():
    nodes = build_cluster(3)
    nodes[0].handle_election_timeout(0)
    nodes[0].handle_election_timeout(300)
    assert nodes[0].current_term == 2
    assert nodes[0].votes == {0}


def test_single_node_cluster_wins_instantly():
    node = build_cluster(1)[0]
    out = node.handle_election_timeout(0)
    assert node.role is Role.LEADER
    assert out == []
    assert node.client_submit(b"solo", 1) == []
    assert node.commit_index == 1


def test_vote_granting_rules():
    nodes = build_cluster(3)
    req = VoteRequest(term=1, candidate_id=0, last_log_index=0, last_log_term=0)
    [(dst, reply)] = nodes[1].handle_vote_request(0, req, 0)
    assert dst == 0 and reply == VoteReply(1, True)
    # one vote per term
    rival = VoteRequest(term=1, candidate_id=2, last_log_index=0, last_log_term=0)
    [(_, reply2)] = nodes[1].handle_vote_request(2, rival, 0)
    assert not reply2.granted
    # re-request from the same candidate stays granted
    [(_, reply3)] = nodes[1].handle_vote_request(0, req, 0)
    assert reply3.granted


def test_vote_denied_to_stale_log():
    nodes = build_cluster(3)
    voter = nodes[1]
    voter.handle_append_entries(
        0,
        AppendEntries(1, 0, 0, 0, (LogEntry(1, 1, b"a"),), 0),
        0,
    )
    behind = VoteRequest(term=2, candidate_id=2, last_log_index=0, last_log_term=0)
    [(_, reply)] = voter.handle_vote_request(2, behind, 10)
    assert reply.term == 2 and not reply.granted
    # equal (term, index) is up to date
    even = VoteRequest(term=3, candidate_id=2, last_log_index=1, last_log_term=1)
    [(_, reply2)] = voter.handle_vote_request(2, even, 10)
    assert reply2.granted


def test_vote_request_with_higher_term_steps_voter_down():
    nodes = build_cluster(3)
    nodes[1].handle_election_timeout(0)
    assert nodes[1].role is Role.CANDIDATE
    req = VoteRequest(term=5, candidate_id=0, last_log_index=0, last_log_term=0)
    [(_, reply)] = nodes[1].handle_vote_request(0, req, 0)
    assert nodes[1].role is Role.FOLLOWER
    assert nodes[1].current_term == 5
    assert reply.granted


def test_granting_resets_election_deadline():
    nodes = build_cluster(3)
    before = nodes[1].election_deadline
    req = VoteRequest(term=1, candidate_id=0, last_log_index=0, last_log_term=0)
    nodes[1].handle_vote_request(0, req, 400)
    assert nodes[1].election_deadline >= 500 > before


def test_quorum_of_votes_makes_leader():
    nodes = build_cluster(5)
    requests = nodes[0].handle_election_timeout(0)
    (dst, req) = requests[0]
    [(_, reply)] = nodes[dst].handle_vote_request(0, req, 0)
    assert nodes[0].handle_vote_reply(dst, reply, 0) == []  # 2 of 5 votes
    (dst2, req2) = requests[1]
    [(_, reply2)] = nodes[dst2].handle_vote_request(0, req2, 0)
    heartbeats = nodes[0].handle_vote_reply(dst2, reply2, 0)
    assert nodes[0].role is Role.LEADER
    assert nodes[0].next_index == {p: 1 for p in (1, 2, 3, 4)}
    assert len(heartbeats) == 4
    for _, hb in heartbeats:
        assert hb.entries == () and hb.term == 1
    # duplicate grants do not double-count
    assert nodes[0].votes == {0, dst, dst2}


def test_vote_reply_with_higher_term_steps_candidate_down():
    nodes = build_cluster(3)
    nodes[0].handle_election_timeout(0)
    nodes[0].handle_vote_reply(1, VoteReply(4, False), 0)
    assert nodes[0].role is Role.FOLLOWER and nodes[0].current_term == 4


def test_same_term_step_down_keeps_the_vote():
    # a term-1 candidate that hears from the term-1 leader becomes a follower,
    # but it voted for itself in term 1 and may not vote again in that term
    nodes = build_cluster(4)
    nodes[1].handle_election_timeout(0)
    assert nodes[1].current_term == 1 and nodes[1].voted_for == 1
    nodes[1].handle_append_entries(0, AppendEntries(1, 0, 0, 0, (), 0), 5)
    assert nodes[1].role is Role.FOLLOWER and nodes[1].current_term == 1
    req = VoteRequest(term=1, candidate_id=3, last_log_index=0, last_log_term=0)
    [(_, reply)] = nodes[1].handle_vote_request(3, req, 6)
    assert not reply.granted
    assert nodes[1].voted_for == 1


def test_client_submit_builds_appends():
    nodes = build_cluster(3)
    elect(nodes, 0)
    out = nodes[0].client_submit(b"c1", 10)
    assert nodes[0].log == [LogEntry(1, 1, b"c1")]
    assert sorted(dst for dst, _ in out) == [1, 2]
    for _, msg in out:
        assert msg.prev_log_index == 0 and msg.prev_log_term == 0
        assert msg.entries == (LogEntry(1, 1, b"c1"),)

    with pytest.raises(NotLeader):
        nodes[1].client_submit(b"nope", 10)


def test_follower_appends_and_acks():
    nodes = build_cluster(3)
    msg = AppendEntries(1, 0, 0, 0, (LogEntry(1, 1, b"a"), LogEntry(1, 2, b"b")), 0)
    [(dst, reply)] = nodes[1].handle_append_entries(0, msg, 5)
    assert dst == 0
    assert reply == AppendReply(1, True, 2)
    assert [e.command for e in nodes[1].log] == [b"a", b"b"]
    # idempotent on redelivery
    [(_, reply2)] = nodes[1].handle_append_entries(0, msg, 6)
    assert reply2 == AppendReply(1, True, 2)
    assert len(nodes[1].log) == 2


def test_append_rejects_stale_term():
    nodes = build_cluster(3)
    nodes[1].handle_election_timeout(0)
    nodes[1].handle_election_timeout(200)  # term 2
    stale = AppendEntries(1, 0, 0, 0, (), 0)
    [(_, reply)] = nodes[1].handle_append_entries(0, stale, 300)
    assert not reply.success and reply.term == 2


def test_append_rejects_missing_prev_entry():
    nodes = build_cluster(3)
    gap = AppendEntries(2, 0, 5, 2, (LogEntry(2, 6, b"z"),), 0)
    [(_, reply)] = nodes[1].handle_append_entries(0, gap, 0)
    assert not reply.success
    assert nodes[1].log == []


def test_append_truncates_conflicting_suffix():
    nodes = build_cluster(3)
    follower = nodes[1]
    follower.handle_append_entries(
        0, AppendEntries(1, 0, 0, 0, (LogEntry(1, 1, b"x"), LogEntry(1, 2, b"y")), 0), 0
    )
    overwrite = AppendEntries(2, 2, 1, 1, (LogEntry(2, 2, b"z"),), 0)
    [(_, reply)] = follower.handle_append_entries(2, overwrite, 10)
    assert reply == AppendReply(2, True, 2)
    assert follower.log == [LogEntry(1, 1, b"x"), LogEntry(2, 2, b"z")]


def test_commit_follows_leader_commit_capped_at_last_new():
    nodes = build_cluster(3)
    follower = nodes[1]
    follower.handle_append_entries(
        0, AppendEntries(1, 0, 0, 0, (LogEntry(1, 1, b"a"), LogEntry(1, 2, b"b")), 0), 0
    )
    assert follower.commit_index == 0
    hb = AppendEntries(1, 0, 2, 1, (), 9)
    follower.handle_append_entries(0, hb, 1)
    assert follower.commit_index == 2


def test_commit_advances_on_quorum_acks():
    nodes = build_cluster(5)
    elect(nodes, 0)
    leader = nodes[0]
    leader.client_submit(b"a", 0)
    leader.client_submit(b"b", 0)
    assert leader.commit_index == 0

    def unmoved(src, match_index):
        # a success reply that raises no match index is not recounted: it must
        # leave commit_index, match_index and next_index (and all else) as they were
        before = state(leader)
        assert leader.handle_append_reply(src, AppendReply(1, True, match_index), 1) == []
        assert state(leader) == before

    leader.handle_append_reply(1, AppendReply(1, True, 2), 1)
    assert leader.commit_index == 0  # 2 of 5 copies
    assert (leader.match_index[1], leader.next_index[1]) == (2, 3)
    unmoved(1, 2)  # duplicated
    unmoved(1, 1)  # stale, with a lower match index
    leader.handle_append_reply(2, AppendReply(1, True, 2), 1)
    assert leader.commit_index == 2  # leader + two followers
    unmoved(2, 2)
    unmoved(2, 1)
    unmoved(1, 1)
    assert leader.match_index == {1: 2, 2: 2, 3: 0, 4: 0}


def test_old_term_entries_commit_only_via_current_term():
    nodes = build_cluster(3)
    elect(nodes, 0)
    nodes[0].client_submit(b"a", 0)
    # replicate to node 1 only, then node 1 takes over in term 2
    nodes[1].handle_append_entries(
        0, AppendEntries(1, 0, 0, 0, (LogEntry(1, 1, b"a"),), 0), 1
    )
    elect(nodes, 1, now=300)
    leader = nodes[1]
    assert leader.role is Role.LEADER and leader.current_term == 2
    assert leader.log == [LogEntry(1, 1, b"a")]

    # quorum holds the term-1 entry, but it must not commit yet
    leader.handle_append_reply(0, AppendReply(2, True, 1), 301)
    assert leader.commit_index == 0
    # a current-term entry drags it in once acknowledged
    leader.client_submit(b"b", 302)
    leader.handle_append_reply(0, AppendReply(2, True, 2), 303)
    assert leader.commit_index == 2


def test_monitor_flags_a_leader_elected_past_the_up_to_date_check():
    nodes = build_cluster(3)
    flags = []
    monitor = SafetyMonitor(0, flags)
    elect(nodes, 0)
    monitor.leader(nodes[0])
    out = dict(nodes[0].client_submit(b"a", 1))
    [(_, reply)] = nodes[1].handle_append_entries(0, out[1], 2)
    nodes[0].handle_append_reply(1, reply, 3)
    monitor.commit(nodes[0])
    assert nodes[0].commit_index == 1 and flags == []
    # node 2 never received the entry; a voter that skipped the check elects it
    nodes[2].handle_election_timeout(300)
    nodes[2].handle_vote_reply(1, VoteReply(2, True), 300)
    assert nodes[2].role is Role.LEADER and nodes[2].log == []
    monitor.leader(nodes[2])
    assert flags == ["leader-completeness chain=0 term=2 leader=2 index=1"]


def campaign(nodes, monitor, candidate, voters, now):
    """candidate times out and asks only voters; returns its heartbeats by peer if it wins."""
    node = nodes[candidate]
    requests = dict(node.handle_election_timeout(now))
    out = []
    for voter in voters:
        [(_, reply)] = nodes[voter].handle_vote_request(candidate, requests[voter], now)
        if reply.granted:
            monitor.vote(voter, reply.term, candidate)
        out += node.handle_vote_reply(voter, reply, now)
    if node.role is Role.LEADER:
        monitor.leader(node)
    return dict(out)


def deliver(nodes, monitor, src, dst, msg, now):
    """msg from src to dst, then every reply between the two, until none is left."""
    pending = [(src, dst, msg)]
    while pending:
        a, b, m = pending.pop()
        pending += [(b, c, reply) for c, reply in nodes[b].handle_message(a, m, now)]
        for node in nodes.values():
            monitor.commit(node)


def test_section_5_4_1_schedule_elects_no_leader_without_a_committed_entry():
    # Section 5.4.1 of the Raft paper: a voter refuses a candidate whose log is behind its own
    nodes = build_cluster(3)
    flags = []
    monitor = SafetyMonitor(0, flags)
    # S0 leads term 1 with S1's vote, and its entry reaches S1 and commits
    campaign(nodes, monitor, 0, [1], 0)
    appends = dict(nodes[0].client_submit(b"a", 1))
    deliver(nodes, monitor, 0, 1, appends[1], 2)
    assert nodes[0].commit_index == 1 and nodes[2].log == []
    # S2 asks S1 in term 1, where S1 voted for S0, then in term 2, where S1's log is ahead
    assert campaign(nodes, monitor, 2, [1], 300) == {}
    campaign(nodes, monitor, 2, [1], 600)
    assert (nodes[2].current_term, nodes[2].role, flags) == (2, Role.CANDIDATE, [])


def test_figure_8_schedule_commits_no_earlier_term_entry_by_counting_replicas():
    # Figure 8 of the Raft paper (Ongaro & Ousterhout 2014, section 5.4.2), node ids from 0.
    # A restart is a step-down that keeps current_term, voted_for and log.
    nodes = build_cluster(5)
    flags = []
    monitor = SafetyMonitor(0, flags)

    # (a) S0 leads term 1, and its entry reaches S1 only
    campaign(nodes, monitor, 0, [1, 2], 0)
    appends = dict(nodes[0].client_submit(b"a", 1))
    deliver(nodes, monitor, 0, 1, appends[1], 2)
    # (b) S4 loses term 1, since S2 voted for S0, then leads term 2; its entry reaches no one
    assert campaign(nodes, monitor, 4, [2, 3], 10) == {}
    campaign(nodes, monitor, 4, [2, 3], 20)
    assert nodes[4].role is Role.LEADER and nodes[4].current_term == 2
    nodes[4].client_submit(b"b", 21)
    # (c) S0 restarts and loses term 2, since S2 voted for S4, then leads term 3. S2 rejects
    # its heartbeat, so S0 backs up and sends S2 its index-1 entry: a quorum holds it
    nodes[0]._step_down(nodes[0].current_term)
    assert campaign(nodes, monitor, 0, [1, 2], 30) == {}
    heartbeats = campaign(nodes, monitor, 0, [1, 2], 40)
    assert nodes[0].role is Role.LEADER and nodes[0].current_term == 3
    for peer in (1, 2):
        deliver(nodes, monitor, 0, peer, heartbeats[peer], 41)
    assert [[entry.term for entry in nodes[n].log] for n in range(5)] == [[1], [1], [1], [], [2]]
    # (d) S4 restarts and loses term 3, since S1 and S2 voted for S0, then wins term 4
    # with a log that lacks index 1: had S0 committed it, the monitor would flag S4
    nodes[4]._step_down(nodes[4].current_term)
    assert campaign(nodes, monitor, 4, [1, 2, 3], 50) == {}
    campaign(nodes, monitor, 4, [1, 2, 3], 60)
    assert nodes[4].role is Role.LEADER and nodes[4].current_term == 4
    assert (nodes[0].commit_index, flags) == (0, [])


def test_backtracking_repairs_lagging_follower():
    nodes = build_cluster(3)
    elect(nodes, 0)
    nodes[0].client_submit(b"a", 0)
    nodes[0].client_submit(b"b", 1)
    # node 1 catches up through the leader; node 2 hears nothing
    nodes[1].handle_append_entries(
        0, AppendEntries(1, 0, 0, 0, tuple(nodes[0].log), 0), 2
    )
    elect(nodes, 1, now=300)
    leader = nodes[1]
    assert leader.role is Role.LEADER
    assert leader.next_index[2] == 3

    probe = leader._make_append(2, heartbeat=True)
    assert probe.prev_log_index == 2
    [(_, reject)] = nodes[2].handle_append_entries(1, probe, 301)
    assert not reject.success

    hops = 0
    reply = reject
    while not reply.success:
        [(_, retry)] = leader.handle_append_reply(2, reply, 302 + hops)
        [(_, reply)] = nodes[2].handle_append_entries(1, retry, 302 + hops)
        hops += 1
        assert hops < 5
    assert nodes[2].log == leader.log
    assert reply.match_index == 2


def test_leader_tick_emits_heartbeats():
    nodes = build_cluster(3)
    elect(nodes, 0)
    leader = nodes[0]
    due = leader.heartbeat_deadline
    assert leader.tick(due - 1) == []
    out = leader.tick(due)
    assert sorted(dst for dst, _ in out) == [1, 2]
    assert all(msg.entries == () for _, msg in out)
    assert leader.heartbeat_deadline == due + leader.heartbeat_interval


def test_heartbeat_keeps_follower_quiet():
    nodes = build_cluster(3)
    elect(nodes, 0)
    follower = nodes[1]
    hb = nodes[0]._make_append(1, heartbeat=True)
    for now in range(0, 1000, 50):
        follower.handle_append_entries(0, hb, now)
        assert follower.tick(now + 49) == []
    assert follower.role is Role.FOLLOWER


def test_append_reply_from_older_term_ignored():
    nodes = build_cluster(3)
    elect(nodes, 0)
    nodes[0].client_submit(b"a", 0)
    nodes[0].handle_append_reply(1, AppendReply(0, True, 1), 1)
    assert nodes[0].commit_index == 0


def test_append_reply_with_higher_term_steps_leader_down():
    nodes = build_cluster(3)
    elect(nodes, 0)
    leader = nodes[0]
    assert leader.role is Role.LEADER and leader.voted_for == 0
    term = leader.current_term
    assert leader.handle_message(1, AppendReply(term + 2, False, 0), 5) == []
    assert leader.role is Role.FOLLOWER
    assert leader.current_term == term + 2 and leader.voted_for is None


def test_dispatch_rejects_unknown_message():
    node = build_cluster(3)[0]
    with pytest.raises(TypeError):
        node.handle_message(1, "not a message", 0)
    # a message's fields as a bare tuple are not a message
    with pytest.raises(TypeError):
        node.handle_message(1, (1, True), 0)


@pytest.mark.parametrize(
    "msg, handler",
    [
        (VoteRequest(1, 1, 0, 0), "handle_vote_request"),
        (VoteReply(1, True), "handle_vote_reply"),
        (AppendEntries(1, 1, 0, 0, (LogEntry(1, 1, b"x"),), 1), "handle_append_entries"),
        (AppendReply(1, True, 1), "handle_append_reply"),
    ],
    ids=lambda v: v if isinstance(v, str) else type(v).__name__,
)
def test_dispatch_is_by_exact_message_type(msg, handler):
    a, b = build_cluster(3)[0], build_cluster(3)[0]
    for node in (a, b):
        node.handle_election_timeout(0)  # a candidate in term 1
    assert a.handle_message(1, msg, 5) == getattr(b, handler)(1, msg, 5)
    assert state(a) == state(b)

    # a subclass of a message type is not a message: rejected before any state change
    subclass = type("Sub" + type(msg).__name__, (type(msg),), {})
    before = state(a)
    with pytest.raises(TypeError, match="not a raft message"):
        a.handle_message(1, subclass(*msg), 6)
    assert state(a) == before
    assert a._timeouts.next_u64() == b._timeouts.next_u64()  # the same timeouts drawn


@pytest.mark.parametrize(
    "msg",
    [
        LogEntry(1, 1, b"x"),
        VoteRequest(1, 0, 0, 0),
        VoteReply(1, True),
        AppendEntries(1, 0, 0, 0, (), 0),
        AppendReply(1, True, 0),
    ],
    ids=lambda msg: type(msg).__name__,
)
def test_messages_are_immutable(msg):
    with pytest.raises(AttributeError):
        msg.term = 2
    assert msg.term == 1


# -- randomized safety harness ------------------------------------------------


class MiniNet:
    """Tiny loss-free network driver with crash-stop faults, judged by a SafetyMonitor."""

    def __init__(self, n, seed, crashes=()):
        self.rand = random.Random(seed)
        ids = list(range(n))
        self.nodes = {
            i: RaftNode(i, ids, 50, 10, Stream.from_labels("mini", seed, i)) for i in ids
        }
        self.alive = set(ids)
        self.crashes = dict(crashes)  # time -> node
        self.queue = []
        self.seq = 0
        self.flags = []
        self.monitor = SafetyMonitor(0, self.flags)
        self.submitted = 0

    def push(self, when, dst, src, msg):
        heapq.heappush(self.queue, (when, self.seq, dst, src, msg))
        self.seq += 1

    def fan_out(self, now, src, outgoing):
        """Send what src's step returned, feeding the monitor after every step."""
        for dst, msg in outgoing:
            if type(msg) is VoteReply and msg.granted:
                self.monitor.vote(src, msg.term, dst)
            self.push(now + self.rand.randint(1, 5), dst, src, msg)
        node = self.nodes[src]
        if node.role is Role.LEADER:
            self.monitor.leader(node)
        self.monitor.commit(node)

    def run(self, horizon):
        for now in range(horizon):
            if now in self.crashes:
                self.alive.discard(self.crashes[now])
            while self.queue and self.queue[0][0] <= now:
                _, _, dst, src, msg = heapq.heappop(self.queue)
                if dst not in self.alive:
                    continue
                self.fan_out(now, dst, self.nodes[dst].handle_message(src, msg, now))
            for nid in self.alive:
                self.fan_out(now, nid, self.nodes[nid].tick(now))
            if now % 40 == 0:
                for nid in self.alive:
                    node = self.nodes[nid]
                    if node.role is Role.LEADER:
                        payload = f"cmd-{self.submitted}".encode()
                        self.submitted += 1
                        self.fan_out(now, nid, node.client_submit(payload, now))
                        break


@pytest.mark.parametrize("n", [3, 5])
def test_randomized_runs_preserve_safety(n):
    for seed in range(8):
        rand = random.Random(n * 1000 + seed)
        crashes = {}
        if seed % 2:
            # stay below the fault bound
            for k in range((n - 1) // 2):
                crashes[rand.randrange(200, 900)] = k
        net = MiniNet(n, seed, crashes.items())
        net.run(1200)
        net.monitor.check_logs(list(net.nodes.values()))
        assert net.flags == [], (n, seed)
        if not crashes:
            committed = max(node.commit_index for node in net.nodes.values())
            assert committed > 0
