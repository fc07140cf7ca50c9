"""Sharded Raft ledger with enclave-backed randomness and global ordering.

The package splits into pure protocol layers and a simulation harness:

- rng: deterministic SHAKE-128 block streams (the reproducibility
  backbone of everything else)
- ledger: canonical block/transaction encodings, hashing, chain validation
- sealing: authenticated encryption envelopes for sensitive payloads
- raft: the per-chain consensus state machine
- beacon: enclave lottery, certificate settlement, committee assignment
- ordering: rank/NextRank proposal rules, ConfirmBar, total order
- sim: deterministic discrete-event runs tying all of it together
- cli: the `shadowraft` command
"""

__version__ = "0.1.0"
