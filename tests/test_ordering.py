"""Rank fields, ConfirmBar, and the cross-chain total order.

Randomized views are generated by an in-test builder that mimics block
proposal; equivalence is then checked against reference_total_order, which
stays a brute-force re-implementation rather than a call into total_order.
"""

import random

import pytest

from shadowraft.ledger import hash_header, make_genesis, new_block
from shadowraft.ordering import (
    GlobalView,
    IncompleteView,
    OrderingError,
    UnknownChain,
    propose_rank_fields,
    reference_total_order,
    total_order,
    validate_view,
)


def build_view(num_chains, chains):
    """A GlobalView holding the given headers, added chain by chain."""
    view = GlobalView(num_chains)
    for headers in chains.values():
        for h in headers:
            view.add(h, hash_header(h))
    return view


class ViewBuilder:
    """Grow a multi-chain view one proposed block at a time."""

    def __init__(self, num_chains):
        self.num_chains = num_chains
        self.blocks = {c: [make_genesis(c)] for c in range(num_chains)}

    def view(self, upto=None):
        chains = {}
        for c, blocks in self.blocks.items():
            keep = blocks if upto is None else blocks[: upto.get(c, len(blocks))]
            chains[c] = [b.header for b in keep]
        return build_view(self.num_chains, chains)

    def propose(self, chain_id, slack=0, txs=()):
        """Append a block using the production rank rule plus optional slack."""
        rank, next_rank = propose_rank_fields(self.view(), chain_id)
        parent = self.blocks[chain_id][-1]
        blk = new_block(
            chain_id,
            parent.header.height + 1,
            hash_header(parent.header),
            rank,
            next_rank + slack,
            txs,
            1,
        )
        self.blocks[chain_id].append(blk)
        return blk


def genesis_view(num_chains):
    return ViewBuilder(num_chains).view()


def confirm_bar(view):
    """The ConfirmBar total_order cuts at; total_order rejects a view missing a chain."""
    order = total_order(view)
    assert all(ref.rank < view.bar for ref in order)
    return view.bar


def expected_next_rank(view, chain_id):
    """The chain's y_i: the rank propose_rank_fields gives its next block."""
    return propose_rank_fields(view, chain_id)[0]


def test_expected_next_rank_reads_tail():
    b = ViewBuilder(2)
    assert expected_next_rank(b.view(), 0) == 1  # genesis
    b.propose(0)
    b.propose(0)
    b.propose(0, slack=3)
    view = b.view()
    tail = view.chains[0][-1]
    assert (tail.rank, tail.next_rank) == (3, 7)
    assert expected_next_rank(view, 0) == 7
    with pytest.raises(UnknownChain):
        expected_next_rank(view, 5)
    with pytest.raises(UnknownChain):
        expected_next_rank(build_view(2, {0: [make_genesis(0).header]}), 1)


def test_propose_rank_fields_from_genesis():
    assert propose_rank_fields(genesis_view(3), 0) == (1, 2)


def test_propose_rank_fields_catches_up_to_longest_chain():
    b = ViewBuilder(2)
    for _ in range(4):
        b.propose(0)
    view = b.view()
    assert expected_next_rank(view, 0) == 5
    assert expected_next_rank(view, 1) == 1
    # lagging chain 1 jumps straight to the front
    assert propose_rank_fields(view, 1) == (1, 5)


def test_propose_rank_fields_when_own_chain_leads():
    b = ViewBuilder(2)
    for _ in range(4):
        b.propose(0)
    b.propose(1)
    view = b.view()
    # chain 0 is the longest (y=5): rank 5, next 6
    assert propose_rank_fields(view, 0) == (5, 6)


def test_confirm_bar_examples():
    # single chain with tail next_rank 4
    b = ViewBuilder(1)
    b.propose(0, slack=2)
    assert expected_next_rank(b.view(), 0) == 4
    assert confirm_bar(b.view()) == 4
    # any chain still at genesis pins the bar to 1
    assert confirm_bar(genesis_view(1)) == 1
    assert confirm_bar(genesis_view(4)) == 1


def test_confirm_bar_explicit_y_values():
    # hand-built headers with y values {3, 7, 5}
    def solo_chain(chain_id, next_rank):
        g = make_genesis(chain_id)
        blk = new_block(chain_id, 1, hash_header(g.header), 1, next_rank, (), 1)
        return (g.header, blk.header)

    view = build_view(3, {0: solo_chain(0, 3), 1: solo_chain(1, 7), 2: solo_chain(2, 5)})
    assert confirm_bar(view) == 3


def test_confirm_bar_requires_every_chain():
    partial = build_view(2, {0: [make_genesis(0).header]})
    with pytest.raises(IncompleteView):
        confirm_bar(partial)
    with pytest.raises(IncompleteView):
        reference_total_order(partial)


def test_total_order_tie_breaks_on_chain_id():
    order = total_order(genesis_view(2))
    assert [(r.rank, r.chain_id) for r in order] == [(0, 0), (0, 1)]


def test_total_order_strict_inequality_at_bar():
    b = ViewBuilder(2)
    b.propose(0)  # chain0 block at rank 1; chain1 still at genesis, bar = 1
    order = total_order(b.view())
    assert [(r.rank, r.chain_id) for r in order] == [(0, 0), (0, 1)]
    # once chain 1 catches up the pending block confirms
    b.propose(1)
    grown = total_order(b.view())
    assert (1, 0) in [(r.rank, r.chain_id) for r in grown]
    assert grown[: len(order)] == order


def test_total_order_interleaves_ranks():
    b = ViewBuilder(2)
    b.propose(0)  # c0 rank 1
    b.propose(1)  # c1 rank 1
    b.propose(0)  # c0 rank 2
    b.propose(1)  # c1 rank 2
    ranks = [(r.rank, r.chain_id) for r in total_order(b.view())]
    assert ranks == [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1)][: len(ranks)]
    assert ranks[:4] == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_validate_view_accepts_built_views():
    b = ViewBuilder(3)
    for step in range(12):
        b.propose(step % 3, slack=step % 2)
    validate_view(b.view())


def test_validate_view_rejects_corruption():
    b = ViewBuilder(2)
    b.propose(0)
    g, child = b.view().chains[0]

    for broken in (
        child._replace(rank=9),
        child._replace(next_rank=child.rank),
        child._replace(parent_hash=bytes(32)),
        child._replace(height=5),
        child._replace(chain_id=1),
    ):
        # the add path refuses the header outright
        view = build_view(2, {0: [g]})
        with pytest.raises(OrderingError):
            view.add(broken, hash_header(broken))
        # a header edited after it entered is caught by the recheck
        view = b.view()
        view.chains[0][1] = broken
        with pytest.raises(OrderingError):
            validate_view(view)

    with pytest.raises(OrderingError):
        build_view(1, {0: [child]})  # a chain must start at genesis
    with pytest.raises(UnknownChain):
        build_view(1, {0: [make_genesis(3).header]})


def random_builder(rand, max_chains=4, max_blocks=6):
    b = ViewBuilder(rand.randint(1, max_chains))
    for _ in range(rand.randint(0, max_blocks * b.num_chains)):
        chain = rand.randrange(b.num_chains)
        if len(b.blocks[chain]) > max_blocks:
            continue
        b.propose(chain, slack=rand.choice([0, 0, 0, 1, 3]))
    return b


def test_oracle_equivalence_on_random_views():
    rand = random.Random(20260814)
    for _ in range(10_000):
        view = random_builder(rand).view()
        assert total_order(view) == reference_total_order(view)


def test_prefix_stability_as_views_grow():
    rand = random.Random(97)
    for _ in range(300):
        b = random_builder(rand, max_chains=3, max_blocks=5)
        view = b.view(upto={c: 1 for c in range(b.num_chains)})
        earlier = total_order(view)
        assert earlier == reference_total_order(view)
        # grow the one view a block at a time, in chain-by-chain commit order
        for c in range(b.num_chains):
            for blk in b.blocks[c][1:]:
                view.add(blk.header, hash_header(blk.header))
                order = total_order(view)
                assert order == reference_total_order(view)
                assert order[: len(earlier)] == earlier
                for chain, headers in enumerate(view.chains):
                    below = sum(h.rank < view.bar for h in headers)
                    assert sum(ref.chain_id == chain for ref in order) == below
                earlier = order


def test_bar_never_regresses_as_views_grow():
    rand = random.Random(41)
    for _ in range(200):
        b = random_builder(rand, max_chains=3, max_blocks=5)
        counts = {c: 1 for c in range(b.num_chains)}
        last_bar = confirm_bar(b.view(upto=dict(counts)))
        while True:
            grew = False
            for c in range(b.num_chains):
                if counts[c] < len(b.blocks[c]):
                    counts[c] += 1
                    grew = True
                    break
            if not grew:
                break
            bar = confirm_bar(b.view(upto=dict(counts)))
            assert bar >= last_bar
            last_bar = bar


def test_next_block_ranks_at_or_above_prior_bar():
    rand = random.Random(4242)
    for _ in range(200):
        b = random_builder(rand, max_chains=3, max_blocks=4)
        bar = confirm_bar(b.view())
        chain = rand.randrange(b.num_chains)
        blk = b.propose(chain, slack=rand.choice([0, 2]))
        assert blk.header.rank >= bar
