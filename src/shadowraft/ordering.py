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

A GlobalView is a store of headers: they enter only through ``add``, which
applies the ledger's linkage rule (``ledger.check_link``) and keeps the
ConfirmBar and the merged total order current. A Frontier is one node's
prefix of each of a store's chains; its order is a prefix of the store's.
The simulator keeps one store per run and one frontier per node;
``verify-order``, whose nodes may fork, rebuilds one GlobalView per node.
"""

from __future__ import annotations

from bisect import bisect_left
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
    """A store: the committed prefix of every chain.

    chains[c] lists chain c's headers from genesis on, and refs[c] holds the
    OrderedBlockRef of each, built once when the header enters: its hash is
    the one the store links the next header against. tails[c] is the
    expected next rank of chain c (its tail's next_rank, 0 while the chain
    is empty), and bar is the minimum of tails. order lists the refs ranked
    below bar, sorted.
    """

    __slots__ = ("chains", "refs", "tails", "bar", "order")

    def __init__(self, num_chains: int):
        self.chains: list[list[BlockHeader]] = [[] for _ in range(num_chains)]
        self.refs: list[list[OrderedBlockRef]] = [[] for _ in range(num_chains)]
        self.tails = [0] * num_chains
        self.bar = 0
        self.order: list[OrderedBlockRef] = []

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
        if not 0 <= chain < len(self.chains):
            raise UnknownChain(f"chain {chain} not in view")
        headers, refs = self.chains[chain], self.refs[chain]
        parent, parent_hash = (headers[-1], refs[-1].block_hash) if headers else (None, None)
        _link(header, parent, parent_hash)
        headers.append(header)
        refs.append(OrderedBlockRef(header.rank, chain, header.height, header_hash))
        old = self.bar
        _set_tail(self, chain, header.next_rank)
        if self.bar > old:
            new, lo, hi = [], (old,), (self.bar,)
            for chain_refs in self.refs:  # ranks rise with height
                new += chain_refs[bisect_left(chain_refs, lo) : bisect_left(chain_refs, hi)]
            self.order += sorted(new)


class Frontier:
    """One node's view: the first heights[c] headers of each chain c of a store."""

    __slots__ = ("store", "heights", "tails", "bar")

    def __init__(self, store: GlobalView):  # at the store's tip
        self.store = store
        self.heights = [len(headers) for headers in store.chains]
        self.tails = list(store.tails)
        self.bar = store.bar

    def advance(self, chain: int, next_rank: int) -> None:
        """Take the store's next header of chain, which the caller checked, by its next_rank."""
        self.heights[chain] += 1
        _set_tail(self, chain, next_rank)

    @property
    def chains(self) -> list[list[BlockHeader]]:  # copies
        return [headers[:n] for headers, n in zip(self.store.chains, self.heights)]

    @property
    def order(self) -> list[OrderedBlockRef]:
        # every chain's later headers rank at or above its tail, so at or above bar
        order = self.store.order
        return order[: bisect_left(order, (self.bar,))]


def _set_tail(view: GlobalView | Frontier, chain: int, next_rank: int) -> None:
    """The bar rule: bar = min(tails); tails only rise, so only a chain at the bar moves it."""
    old, view.tails[chain] = view.tails[chain], next_rank
    if old == view.bar:
        view.bar = min(view.tails)


def _link(header: BlockHeader, parent: BlockHeader | None, parent_hash: bytes | None) -> None:
    """check_link, reporting a violation as an OrderingError with its place."""
    try:
        check_link(header, parent, parent_hash)
    except LedgerError as exc:
        raise OrderingError(
            f"chain {header.chain_id} height {header.height}: {exc}"
        ) from None


def propose_rank_fields(view: GlobalView | Frontier, chain_id: int) -> tuple[int, int]:
    """Rank fields for the next block on chain_id given this view.

    rank is inherited from the parent's next_rank (y_i, the chain's tail).
    next_rank is max(rank + 1, x) with x the maximum expected next rank
    across the view, the smallest value satisfying both next_rank > rank and
    next_rank >= x. A tail is 0 only while its chain is empty (next_rank > rank >= 0).
    """
    if not 0 <= chain_id < len(view.tails) or not view.tails[chain_id]:
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
        raise IncompleteView(f"view covers {present} of {len(view.chains)} chains")
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


def reference_total_order(view: GlobalView | Frontier) -> list[OrderedBlockRef]:
    """Brute-force oracle for total_order, kept deliberately independent.

    Computes the bar by direct field reads, hashes every header itself and
    sorts with an explicit comparison key instead of reusing the view's
    bar, refs or the production helpers.
    """
    chains, tails = view.chains, []
    for c, headers in enumerate(chains):
        if not headers:
            raise IncompleteView(f"chain {c} missing")
        tails.append(headers[-1].next_rank)
    bar = min(tails)
    out = []
    for headers in chains:
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
        parent = parent_hash = None
        for h, ref in zip(headers, view.refs[chain_id]):
            if h.chain_id != chain_id:
                raise OrderingError(f"chain {chain_id} holds header for chain {h.chain_id}")
            _link(h, parent, parent_hash)
            parent, parent_hash = h, ref.block_hash
