"""Per-layer tracing from outside the program.

The traced run wraps the names that ``shadowraft.sim`` and ``shadowraft.cli``
import from the other modules, the public ``Stream`` and ``RaftNode``
methods the simulator calls, and the CLI's own command functions. Each
wrapper records its calls and its self time: its own duration minus the
duration of wrapped calls nested inside it. Nothing inside a wrapped
function is split further, so ``sim.self_s`` holds all of the simulator's
own code (ingest, gossip, snapshots, ConfirmBar) in one figure.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from time import perf_counter

# (module or class path, attribute, traced name). Names start with the layer.
TARGETS = [
    ("shadowraft.rng:Stream", "next_bytes", "rng.next_bytes"),
    ("shadowraft.rng:Stream", "next_u64", "rng.next_u64"),
    ("shadowraft.rng:Stream", "next_below", "rng.next_below"),
    ("shadowraft.rng:Stream", "uniform_int", "rng.uniform_int"),
    ("shadowraft.rng:Stream", "chance", "rng.chance"),
    ("shadowraft.rng:Stream", "shuffle", "rng.shuffle"),
    ("shadowraft.raft:RaftNode", "handle_message", "raft.handle_message"),
    ("shadowraft.raft:RaftNode", "tick", "raft.tick"),
    ("shadowraft.raft:RaftNode", "client_submit", "raft.client_submit"),
    ("shadowraft.raft:RaftNode", "next_deadline", "raft.next_deadline"),
    ("shadowraft.raft:RaftNode", "handle_election_timeout", "raft.handle_election_timeout"),
    ("shadowraft.sealing:KeyDirectory", "unseal", "sealing.unseal"),
    ("shadowraft.sim", "seal", "sealing.seal"),
    ("shadowraft.sim", "invoke_beacon", "beacon.invoke_beacon"),
    ("shadowraft.sim", "make_beacon_nodes", "beacon.make_beacon_nodes"),
    ("shadowraft.sim", "select_seed", "beacon.select_seed"),
    ("shadowraft.sim", "assign_chains", "beacon.assign_chains"),
    ("shadowraft.sim", "hash_header", "ledger.hash_header"),
    ("shadowraft.sim", "encode_block", "ledger.encode_block"),
    ("shadowraft.sim", "decode_block", "ledger.decode_block"),
    ("shadowraft.sim", "append_block", "ledger.append_block"),
    ("shadowraft.sim", "new_block", "ledger.new_block"),
    ("shadowraft.sim", "make_genesis", "ledger.make_genesis"),
    ("shadowraft.sim", "propose_rank_fields", "ordering.propose_rank_fields"),
    ("shadowraft.sim", "validate_view", "ordering.validate_view"),
    ("shadowraft.sim", "run_simulation", "sim.run_simulation"),
    ("shadowraft.cli", "invoke_beacon", "beacon.invoke_beacon"),
    ("shadowraft.cli", "make_beacon_nodes", "beacon.make_beacon_nodes"),
    ("shadowraft.cli", "hash_header", "ledger.hash_header"),
    ("shadowraft.cli", "validate_view", "ordering.validate_view"),
    ("shadowraft.cli", "total_order", "ordering.total_order"),
    ("shadowraft.cli", "reference_total_order", "ordering.reference_total_order"),
    ("shadowraft.cli", "run_simulation", "sim.run_simulation"),
    ("shadowraft.cli", "main", "cli.main"),
    ("shadowraft.cli", "cmd_run", "cli.run"),
    ("shadowraft.cli", "write_outputs", "cli.write_outputs"),
    ("shadowraft.cli", "cmd_verify_order", "cli.verify"),
    ("shadowraft.cli", "cmd_beacon_stats", "cli.beacon_stats"),
]

LAYERS = ("rng", "beacon", "ledger", "sealing", "raft", "ordering", "sim", "cli")

_RAFT_MESSAGES = ("VoteRequest", "VoteReply", "AppendEntries", "AppendReply")


def _resolve(path: str):
    module_name, _, class_name = path.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


class Tracer:
    """Call counts, self times and run facts gathered while installed."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.facts: dict[str, int] = defaultdict(int)
        self._stack = [0.0]
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        calls, self_s, stack = self.calls, self.self_s, self._stack
        on_result = {
            "beacon.invoke_beacon": self._on_certificate,
            "raft.handle_message": self._on_raft_replies,
            "sim.run_simulation": self._on_sim_trace,
        }.get(name)

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                nested = stack.pop()
                stack[-1] += elapsed
                self_s[name] += elapsed - nested
                calls[name] += 1
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _on_certificate(self, cert) -> None:
        if cert is not None:
            self.facts["beacon.certificates"] += 1

    def _on_raft_replies(self, outgoing) -> None:
        for _, msg in outgoing:
            if type(msg).__name__ == "AppendReply" and not msg.success:
                self.facts["raft.append_rejects"] += 1

    def _on_sim_trace(self, trace) -> None:
        # keep counts only: holding the trace would keep its rows alive
        f = self.facts
        f["sim.events"] += trace.events_processed
        f["sim.gossip_msgs"] += trace.message_counts.get("Gossip", 0)
        f["sim.snapshot_rows"] += len(trace.snapshot_rows)
        f["sim.bar_updates"] += len(trace.bar_rows)
        f["raft.msgs"] += sum(trace.message_counts.get(k, 0) for k in _RAFT_MESSAGES)
        f["blocks.committed"] += sum(trace.committed_blocks.values())
        f["blocks.skipped"] += trace.skipped_blocks
        f["beacon.epochs"] += len(trace.beacon_rows)
        f["beacon.locks"] += sum(1 for row in trace.beacon_rows if row[1])

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for path, attr, name in TARGETS:
            owner = _resolve(path)
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics, computed from what was recorded."""
        calls, self_s, facts = self.calls, self.self_s, self.facts

        def ratio(num, den, scale=1.0):
            return num * scale / den if den else 0.0

        m: dict[str, float] = {}
        for layer in LAYERS:
            m[f"{layer}.self_s"] = sum(
                (v for k, v in self_s.items() if k.startswith(layer + ".")), 0.0
            )
        m["rng.draws"] = calls["rng.next_u64"]
        m["rng.us_per_draw"] = ratio(m["rng.self_s"], m["rng.draws"], 1e6)

        m["beacon.invocations"] = calls["beacon.invoke_beacon"]
        m["beacon.certificates"] = facts["beacon.certificates"]
        m["beacon.us_per_invoke"] = ratio(
            self_s["beacon.invoke_beacon"], m["beacon.invocations"], 1e6
        )
        m["beacon.epochs_to_lock"] = ratio(facts["beacon.epochs"], facts["beacon.locks"])

        for fn in ("hash_header", "encode_block", "decode_block", "append_block", "new_block"):
            m[f"ledger.{fn}.calls"] = calls[f"ledger.{fn}"]
            m[f"ledger.{fn}.self_s"] = self_s[f"ledger.{fn}"]
        m["ledger.decodes_per_block"] = ratio(
            calls["ledger.decode_block"], facts["blocks.committed"]
        )

        for fn in ("seal", "unseal"):
            m[f"sealing.{fn}.calls"] = calls[f"sealing.{fn}"]
            m[f"sealing.{fn}.self_s"] = self_s[f"sealing.{fn}"]

        for fn in ("handle_message", "tick", "client_submit"):
            m[f"raft.{fn}.calls"] = calls[f"raft.{fn}"]
            m[f"raft.{fn}.self_s"] = self_s[f"raft.{fn}"]
        m["raft.elections"] = calls["raft.handle_election_timeout"]
        m["raft.append_rejects"] = facts["raft.append_rejects"]
        m["raft.msgs_per_block"] = ratio(facts["raft.msgs"], facts["blocks.committed"])
        m["raft.commit_ratio"] = ratio(
            facts["blocks.committed"], facts["blocks.committed"] + facts["blocks.skipped"]
        )

        for fn in ("propose_rank_fields", "validate_view", "total_order", "reference_total_order"):
            m[f"ordering.{fn}.calls"] = calls[f"ordering.{fn}"]
            m[f"ordering.{fn}.self_s"] = self_s[f"ordering.{fn}"]

        for key in ("sim.events", "sim.gossip_msgs", "sim.snapshot_rows", "sim.bar_updates"):
            m[key] = facts[key]
        m["sim.self_s"] = self_s["sim.run_simulation"]
        m["sim.us_per_event"] = ratio(m["sim.self_s"], m["sim.events"], 1e6)

        m["cli.write_outputs.self_s"] = self_s["cli.write_outputs"]
        m["cli.export_bytes"] = facts["cli.export_bytes"]
        m["cli.verify.views"] = facts["cli.verify.views"]
        m["cli.verify.self_s"] = self_s["cli.verify"]
        return m
