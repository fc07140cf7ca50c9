"""Total ordering of blocks across parallel shadow chains.

Every block carries two rank fields. Its rank is fixed by its parent: the
parent's next_rank. Its next_rank is chosen at proposal time as
max(rank + 1, x), where x is the highest expected next rank over all chains
in the proposer's view, so a lagging chain catches up to the longest one in
a single block. A node's ConfirmBar is the minimum expected next rank over
all chains; every block with rank below the bar is fully confirmed, because
no chain can ever again produce a block ranked under it. Fully confirmed
blocks sort by (rank, chain_id), which yields the same total order at every
node and only ever grows by appending.

A GlobalView is one node's live, growing view of every chain. Headers enter
it only through ``GlobalView.add``, which applies the ledger's linkage rule
(``ledger.check_link``) and keeps the ConfirmBar and the total order
current. The simulator holds one view per node; ``verify-order`` rebuilds
one per node from its snapshot rows. The functions below read a view and
never change it.
"""

from __future__ import annotations

from typing import NamedTuple

from .ledger import BlockHeader, LedgerError, check_link, hash_header


class OrderingError(Exception):
    pass


class UnknownChain(OrderingError):
    pass


class IncompleteView(OrderingError):
    pass


class OrderedBlockRef(NamedTuple):
    rank: int
    chain_id: int
    height: int
    block_hash: bytes


class GlobalView:
    """One node's view of the committed prefix of every chain.

    chains[c] lists chain c's headers from genesis on, and refs[c] holds the
    OrderedBlockRef of each, built once when the header enters: its hash is
    the one the view links the next header against. tails[c] is the
    expected next rank of chain c (its tail's next_rank, 0 while the chain
    is empty), and bar is the minimum of tails. order lists the refs ranked
    below bar, sorted. confirmed[c] counts the refs of chain c in it, which are
    its heights 0 .. confirmed[c] - 1 since ranks rise with height: the
    simulator samples latency from this count alone.
    """

    __slots__ = ("num_chains", "chains", "refs", "tails", "bar", "order", "confirmed")

    def __init__(self, num_chains: int):
        self.num_chains = num_chains
        self.chains: list[list[BlockHeader]] = [[] for _ in range(num_chains)]
        self.refs: list[list[OrderedBlockRef]] = [[] for _ in range(num_chains)]
        self.tails = [0] * num_chains
        self.bar = 0
        self.order: list[OrderedBlockRef] = []
        self.confirmed = [0] * num_chains

    def add(self, header: BlockHeader, header_hash: bytes) -> None:
        """Check header against its chain's tail (the linkage rule), then append it.

        header_hash must be hash_header(header); the caller computes or
        checks it, so each header is hashed once. Raises UnknownChain for a
        chain outside the view and OrderingError for a broken link. Because
        every header passes the linkage rule, tails and bar never decrease.
        When the bar rises, the refs with old bar <= rank < new bar are
        appended to the order, sorted.
        """
        chain = header.chain_id
        if not 0 <= chain < self.num_chains:
            raise UnknownChain(f"chain {chain} not in view")
        headers, refs = self.chains[chain], self.refs[chain]
        parent, parent_hash = (headers[-1], refs[-1].block_hash) if headers else (None, None)
        _link(header, parent, parent_hash)
        headers.append(header)
        refs.append(OrderedBlockRef(header.rank, chain, header.height, header_hash))
        old = self.tails[chain]
        self.tails[chain] = header.next_rank
        if old == self.bar:
            self.bar = bar = min(self.tails)
            new = []
            for c, chain_refs in enumerate(self.refs):
                cut = self.confirmed[c]
                while cut < len(chain_refs) and chain_refs[cut].rank < bar:
                    new.append(chain_refs[cut])
                    cut += 1
                self.confirmed[c] = cut
            self.order += sorted(new)


def _link(header: BlockHeader, parent: BlockHeader | None, parent_hash: bytes | None) -> None:
    """check_link, reporting a violation as an OrderingError with its place."""
    try:
        check_link(header, parent, parent_hash)
    except LedgerError as exc:
        raise OrderingError(
            f"chain {header.chain_id} height {header.height}: {exc}"
        ) from None


def propose_rank_fields(view: GlobalView, chain_id: int) -> tuple[int, int]:
    """Rank fields for the next block on chain_id given this view.

    rank is inherited from the parent's next_rank (y_i, the chain's tail).
    next_rank is max(rank + 1, x) with x the maximum expected next rank
    across the view, the smallest value satisfying both next_rank > rank and
    next_rank >= x.
    """
    if not 0 <= chain_id < view.num_chains or not view.chains[chain_id]:
        raise UnknownChain(f"chain {chain_id} not in view")
    rank = view.tails[chain_id]
    return rank, max(rank + 1, max(view.tails))


def total_order(view: GlobalView) -> list[OrderedBlockRef]:
    """Fully confirmed blocks: rank < the ConfirmBar, sorted by (rank, chain_id).

    A copy of view.order; every chain must appear. As the view grows it only
    gains a suffix (prefix stability): every later block on any chain ranks
    at or above that chain's tail next_rank, hence at or above the bar.
    """
    if not all(view.chains):
        present = [c for c, headers in enumerate(view.chains) if headers]
        raise IncompleteView(f"view covers {present} of {view.num_chains} chains")
    return list(view.order)


class LongestOrder:
    """The longest of the orders checked so far, and the holder that extended it.

    Orders are consistent iff each is a prefix of the longest one.
    """

    def __init__(self):
        self.refs: list[OrderedBlockRef] = []
        self.holder = None

    def check(self, order: list[OrderedBlockRef], holder, start: int = 0) -> bool:
        """False if order[start:] disagrees with refs; else extend refs to cover order.

        refs only grows by a suffix, so order[:start] needs no check once it passed.
        """
        refs = self.refs
        common = min(len(order), len(refs))
        if order[start:common] != refs[start:common]:
            return False
        if len(order) > len(refs):
            refs += order[len(refs) :]
            self.holder = holder
        return True


def reference_total_order(view: GlobalView) -> list[OrderedBlockRef]:
    """Brute-force oracle for total_order, kept deliberately independent.

    Computes the bar by direct field reads, hashes every header itself and
    sorts with an explicit comparison key instead of reusing the view's
    bar, refs or the production helpers.
    """
    tails = []
    for c in range(view.num_chains):
        headers = view.chains[c]
        if not headers:
            raise IncompleteView(f"chain {c} missing")
        tails.append(headers[-1].next_rank)
    bar = min(tails)
    out = []
    for headers in view.chains:
        for h in headers:
            if h.rank < bar:
                out.append(OrderedBlockRef(h.rank, h.chain_id, h.height, hash_header(h)))
    return sorted(out, key=lambda r: (r.rank, r.chain_id))


def validate_view(view: GlobalView) -> None:
    """Recheck every chain of the view against the ledger's linkage rule.

    Raises OrderingError on the first violation: a header filed under the
    wrong chain, or one that does not extend its predecessor (height,
    parent hash, rank == parent next_rank, next_rank > rank, genesis rules).
    """
    for chain_id, headers in enumerate(view.chains):
        parent: BlockHeader | None = None
        parent_hash = None
        for h, ref in zip(headers, view.refs[chain_id]):
            if h.chain_id != chain_id:
                raise OrderingError(
                    f"chain {chain_id} holds header for chain {h.chain_id}"
                )
            _link(h, parent, parent_hash)
            parent, parent_hash = h, ref.block_hash
