"""Sharded Raft ledger with enclave-backed randomness and global ordering.

The package splits into pure protocol layers and a simulation harness:

- rng: deterministic counter-mode randomness streams (the reproducibility
  backbone of everything else)
- ledger: canonical block/transaction encodings, hashing, chain validation
- sealing: authenticated encryption envelopes for sensitive payloads
- raft: the per-chain consensus state machine
- beacon: enclave lottery, certificate settlement, committee assignment
- ordering: rank/NextRank proposal rules, ConfirmBar, total order
- sim: deterministic discrete-event runs tying all of it together
- cli: the `shadowraft` command
"""

from .beacon import (
    BeaconNode,
    Certificate,
    Repeat,
    assign_chains,
    expected_messages,
    invoke_beacon,
    make_beacon_nodes,
    repeat_probability,
    run_beacon_epoch,
    select_seed,
    verify_certificate,
)
from .ledger import (
    Block,
    BlockHeader,
    ChainLedger,
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
    OrderedBlockRef,
    confirm_bar,
    expected_next_rank,
    propose_rank_fields,
    total_order,
)
from .raft import RaftNode, Role, quorum_threshold
from .rng import Stream, stream_key
from .sealing import KeyDirectory, SealedPayload, SealKey, seal, unseal
from .sim import (
    ConfigError,
    ScalingPoint,
    SimConfig,
    SimTrace,
    measure_scaling,
    run_simulation,
)

__version__ = "0.1.0"
