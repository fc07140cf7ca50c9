"""Raft consensus state machine for one verifier on one shadow chain.

Message-driven and free of I/O: every handler maps (state, input, now) to a
list of ``(destination, message)`` pairs, with all timing injected through
``now`` and all randomness through the node's timeout stream. The rules are
standard Raft: randomized election timeouts, the log consistency check on
AppendEntries, the up-to-date restriction on votes, and commit counting
restricted to the leader's current term. An entry commits once it is
replicated on ``quorum_threshold(n)`` nodes, which also commits everything
before it.

A leader recounts its commit only where an input of the count moves: when it
wins a term, when it appends an entry, and when a successful AppendReply
raises a match_index. That is enough. While a node leads, its term is fixed,
its log changes only through client_submit, its commit_index only through a
recount, and a match_index only by a rise. A recount stops at the highest
current-term index a quorum holds, so a second one over the same inputs finds
nothing above it. A reply that raises no match_index, such as a heartbeat
ack or a duplicated or stale reply, therefore cannot move commit_index.

Heartbeats are AppendEntries with empty entry lists. Followers that fall
behind catch up through the leader's next_index backtracking (decrement by
one per rejection) and through entry batches attached at submit time.

Log entries and messages are immutable named tuples: cheap to build, since a
run builds one per send. ``handle_message`` dispatches on the exact type
through one table, so a subclass of a message type is not a message.

``SafetyMonitor`` holds Raft's safety rules (Figure 3 of the Raft paper,
Ongaro & Ousterhout 2014) for one cluster, each written once. Any driver
feeds it: the simulator and the tests' own network both do.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple, Sequence, Union

from .rng import Stream, below_limit


class Role(Enum):
    FOLLOWER = "follower"
    CANDIDATE = "candidate"
    LEADER = "leader"


# bound once: EnumType.__getattr__ makes each Role.X lookup several times a global's cost
FOLLOWER, CANDIDATE, LEADER = Role.FOLLOWER, Role.CANDIDATE, Role.LEADER


class NotLeader(Exception):
    """Command submitted to a node that is not the leader."""


class LogEntry(NamedTuple):
    term: int
    index: int
    command: bytes


class VoteRequest(NamedTuple):
    term: int
    candidate_id: int
    last_log_index: int
    last_log_term: int


class VoteReply(NamedTuple):
    term: int
    granted: bool


class AppendEntries(NamedTuple):
    term: int
    leader_id: int
    prev_log_index: int
    prev_log_term: int
    entries: tuple[LogEntry, ...]
    leader_commit: int


class AppendReply(NamedTuple):
    term: int
    success: bool
    match_index: int


RaftMessage = Union[VoteRequest, VoteReply, AppendEntries, AppendReply]

Outgoing = list[tuple[int, RaftMessage]]


def quorum_threshold(n: int) -> int:
    """Acknowledgement count at which an entry commits: floor(n/2) + 1.

    A strict majority for every n, so any two quorums intersect. For even n
    this is the larger of the two candidate readings of "half the cluster";
    the smaller one would let disjoint halves elect rival leaders.
    """
    if n < 1:
        raise ValueError("cluster size must be at least 1")
    return n // 2 + 1


class RaftNode:
    """Consensus state of one node. Owned by a single caller; not thread-safe."""

    def __init__(
        self,
        node_id: int,
        cluster: Sequence[int],
        election_timeout: int,
        heartbeat_interval: int,
        timeout_stream: Stream,
        now: int = 0,
    ):
        if node_id not in cluster:
            raise ValueError("node_id must be a cluster member")
        if election_timeout < 1 or heartbeat_interval < 1:
            raise ValueError("timeouts must be positive")
        self.node_id = node_id
        self.cluster = tuple(cluster)
        self.peers = tuple(p for p in cluster if p != node_id)
        self.n = len(self.cluster)
        self.quorum = quorum_threshold(self.n)

        self.current_term = 0
        self.voted_for: int | None = None
        self.log: list[LogEntry] = []
        self.commit_index = 0
        self.role = FOLLOWER
        self.votes: set[int] = set()
        self.next_index: dict[int, int] = {}
        self.match_index: dict[int, int] = {}

        self.election_timeout = election_timeout
        self.heartbeat_interval = heartbeat_interval
        self._timeouts = timeout_stream
        self._timeout_limit = below_limit(election_timeout)
        self.election_deadline = now + self._draw_timeout()
        self.heartbeat_deadline = 0

    # -- timing ---------------------------------------------------------

    def _draw_timeout(self) -> int:
        """T + next_below(T), uniform in [T, 2T), by next_below's loop inlined."""
        next_u64, limit = self._timeouts.next_u64, self._timeout_limit
        v = next_u64()
        while v >= limit:
            v = next_u64()
        return self.election_timeout + v % self.election_timeout

    def next_deadline(self) -> int:
        if self.role is LEADER:
            return self.heartbeat_deadline
        return self.election_deadline

    def tick(self, now: int) -> Outgoing:
        if self.role is LEADER:
            if now >= self.heartbeat_deadline:
                self.heartbeat_deadline = now + self.heartbeat_interval
                return [(p, self._make_append(p, heartbeat=True)) for p in self.peers]
            return []
        if now >= self.election_deadline:
            return self.handle_election_timeout(now)
        return []

    # -- log helpers ------------------------------------------------------

    def last_log_index(self) -> int:
        return len(self.log)

    def last_log_term(self) -> int:
        return self.log[-1].term if self.log else 0

    def _step_down(self, term: int) -> None:
        # a vote binds for the whole term: only a newer term may clear it
        if term > self.current_term:
            self.current_term = term
            self.voted_for = None
        self.role = FOLLOWER
        self.votes = set()

    # -- elections --------------------------------------------------------

    def handle_election_timeout(self, now: int) -> Outgoing:
        if self.role is LEADER:
            return []
        self.current_term += 1
        self.role = CANDIDATE
        self.voted_for = self.node_id
        self.votes = {self.node_id}
        self.election_deadline = now + self._draw_timeout()
        request = VoteRequest(
            term=self.current_term,
            candidate_id=self.node_id,
            last_log_index=self.last_log_index(),
            last_log_term=self.last_log_term(),
        )
        out: Outgoing = [(p, request) for p in self.peers]
        # single-node cluster wins immediately
        out.extend(self._maybe_win(now))
        return out

    def handle_vote_request(self, src: int, msg: VoteRequest, now: int) -> Outgoing:
        if msg.term > self.current_term:
            self._step_down(msg.term)
        granted = False
        if msg.term == self.current_term and self.voted_for in (None, msg.candidate_id):
            up_to_date = (msg.last_log_term, msg.last_log_index) >= (
                self.last_log_term(),
                self.last_log_index(),
            )
            if up_to_date:
                granted = True
                self.voted_for = msg.candidate_id
                self.election_deadline = now + self._draw_timeout()
        return [(src, VoteReply(self.current_term, granted))]

    def handle_vote_reply(self, src: int, msg: VoteReply, now: int) -> Outgoing:
        if msg.term > self.current_term:
            self._step_down(msg.term)
            return []
        if self.role is not CANDIDATE or msg.term < self.current_term:
            return []
        if msg.granted:
            self.votes.add(src)
            return self._maybe_win(now)
        return []

    def _maybe_win(self, now: int) -> Outgoing:
        if self.role is CANDIDATE and len(self.votes) >= self.quorum:
            self.role = LEADER
            self.next_index = {p: self.last_log_index() + 1 for p in self.peers}
            self.match_index = {p: 0 for p in self.peers}
            self.heartbeat_deadline = now + self.heartbeat_interval
            self._advance_commit()
            return [(p, self._make_append(p, heartbeat=True)) for p in self.peers]
        return []

    # -- replication --------------------------------------------------------

    def client_submit(self, command: bytes, now: int) -> Outgoing:
        if self.role is not LEADER:
            raise NotLeader(f"node {self.node_id} is {self.role.value}")
        entry = LogEntry(self.current_term, self.last_log_index() + 1, command)
        self.log.append(entry)
        out = [(p, self._make_append(p)) for p in self.peers]
        self.heartbeat_deadline = now + self.heartbeat_interval
        self._advance_commit()
        return out

    def _make_append(self, peer: int, heartbeat: bool = False) -> AppendEntries:
        prev = self.next_index[peer] - 1
        log = self.log
        return AppendEntries(
            self.current_term,
            self.node_id,
            prev,
            log[prev - 1].term if prev > 0 else 0,
            () if heartbeat else tuple(log[prev:]),
            self.commit_index,
        )

    def handle_append_entries(self, src: int, msg: AppendEntries, now: int) -> Outgoing:
        if msg.term < self.current_term:
            return [(src, AppendReply(self.current_term, False, 0))]
        if msg.term > self.current_term or self.role is not FOLLOWER:
            self._step_down(msg.term)
        self.election_deadline = now + self._draw_timeout()

        log, prev, entries = self.log, msg.prev_log_index, msg.entries
        if prev > 0 and (prev > len(log) or log[prev - 1].term != msg.prev_log_term):
            return [(src, AppendReply(self.current_term, False, 0))]

        index = prev
        for entry in entries:
            index += 1
            if index <= len(log):
                if log[index - 1].term != entry.term:
                    del log[index - 1 :]
                    log.append(entry)
            else:
                log.append(entry)
        last_new = prev + len(entries)
        if msg.leader_commit > self.commit_index:
            self.commit_index = max(self.commit_index, min(msg.leader_commit, last_new))
        return [(src, AppendReply(self.current_term, True, last_new))]

    def handle_append_reply(self, src: int, msg: AppendReply, now: int) -> Outgoing:
        if msg.term > self.current_term:
            self._step_down(msg.term)
            return []
        if self.role is not LEADER or msg.term < self.current_term:
            return []
        if msg.success:
            match = self.match_index
            if msg.match_index > match[src]:
                match[src] = msg.match_index
                self._advance_commit()  # only a rise can move the commit: see the module doc
            self.next_index[src] = max(self.next_index[src], match[src] + 1)
            return []
        self.next_index[src] = max(1, self.next_index[src] - 1)
        return [(src, self._make_append(src))]

    def _advance_commit(self) -> None:
        log, match = self.log, self.match_index
        for index in range(len(log), self.commit_index, -1):
            if log[index - 1].term != self.current_term:
                break
            acks = 1 + sum(1 for p in self.peers if match[p] >= index)
            if acks >= self.quorum:
                self.commit_index = index
                break

    # -- dispatch -------------------------------------------------------------

    def handle_message(self, src: int, msg: RaftMessage, now: int) -> Outgoing:
        handler = _HANDLERS.get(type(msg))
        if handler is None:
            raise TypeError(f"not a raft message: {msg!r}")
        return handler(self, src, msg, now)


# handle_message's dispatch, keyed by exact message type
_HANDLERS = {
    VoteRequest: RaftNode.handle_vote_request,
    VoteReply: RaftNode.handle_vote_reply,
    AppendEntries: RaftNode.handle_append_entries,
    AppendReply: RaftNode.handle_append_reply,
}


class SafetyMonitor:
    """Raft's safety rules for one chain, each written once.

    A driver feeds it where a rule can break, and each violation appends
    one flag's text to the run's flags list:
    - leader(node): no two nodes lead one term (election-safety), and a
      term's first leader holds every entry committed so far
      (leader-completeness).
    - vote(voter, term, candidate): a voter grants one candidate per term
      (vote-safety).
    - commit(node): no commit_index falls (commit-monotonicity), and a
      leader's rise is held by a quorum (commit-quorum). That holds only at
      the rise: a new leader's reset match_index does not cover the
      commit_index it inherits. So the monitor keeps each node's last
      commit_index, and a driver may call commit after any step.
    - check_logs(nodes), at the end of a run, for every pair: log-matching,
      then, for a pair whose logs match, committed-prefix agreement.
    """

    __slots__ = ("chain_id", "flags", "winners", "votes", "commits", "committed")

    def __init__(self, chain_id: int, flags: list[str]):
        self.chain_id = chain_id
        self.flags = flags
        self.winners: dict[int, int] = {}  # term -> the node that led it first
        self.votes: dict[tuple[int, int], int] = {}  # (term, voter) -> candidate
        self.commits: dict[int, int] = {}  # node -> its commit_index when last fed
        self.committed: list[LogEntry] = []  # the longest committed prefix fed

    def leader(self, node: RaftNode) -> None:
        term, nid = node.current_term, node.node_id
        holder = self.winners.get(term)
        if holder is None:
            self.winners[term] = nid
            log, committed = node.log, self.committed
            if log[: len(committed)] != committed:
                index = 1  # the first committed entry the leader lacks
                while index <= len(log) and log[index - 1] == committed[index - 1]:
                    index += 1
                self.flags.append(
                    f"leader-completeness chain={self.chain_id} term={term} "
                    f"leader={nid} index={index}"
                )
        elif holder != nid:
            self.flags.append(
                f"election-safety chain={self.chain_id} term={term} leaders={holder},{nid}"
            )

    def vote(self, voter: int, term: int, candidate: int) -> None:
        first = self.votes.setdefault((term, voter), candidate)
        if first != candidate:
            self.flags.append(
                f"vote-safety chain={self.chain_id} term={term} "
                f"voter={voter} candidates={first},{candidate}"
            )

    def commit(self, node: RaftNode) -> None:
        nid = node.node_id
        new, old = node.commit_index, self.commits.get(nid, 0)
        self.commits[nid] = new
        if new < old:
            self.flags.append(
                f"commit-monotonicity chain={self.chain_id} node={nid} index={new} was={old}"
            )
        elif new > old:
            if node.role is LEADER:
                match = node.match_index
                acks = 1 + sum(1 for p in node.peers if match[p] >= new)
                if acks < node.quorum:
                    self.flags.append(
                        f"commit-quorum chain={self.chain_id} "
                        f"index={new} acks={acks} quorum={node.quorum}"
                    )
            committed = self.committed
            if new > len(committed):
                committed += node.log[len(committed) : new]

    def check_logs(self, nodes: Sequence[RaftNode]) -> None:
        for i, a in enumerate(nodes):
            for b in nodes[i + 1 :]:
                la, lb = a.log, b.log
                top = min(len(la), len(lb))  # the deepest index whose terms agree
                while top > 0 and la[top - 1].term != lb[top - 1].term:
                    top -= 1
                if top > 0 and la[:top] != lb[:top]:
                    kind = "log-matching"
                elif min(a.commit_index, b.commit_index) > top:
                    kind = "committed-prefix"  # past top, the logs differ in term
                else:
                    continue
                self.flags.append(f"{kind} chain={self.chain_id} nodes={a.node_id},{b.node_id}")
