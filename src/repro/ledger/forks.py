"""Fork handling: a block tree with longest-chain choice.

The linear :class:`~repro.ledger.chain.Blockchain` models the happy path;
real PoW networks occasionally produce competing blocks at the same
height.  :class:`BlockTree` accepts any valid block extending any known
block, tracks all tips, and exposes the longest-chain (greatest
accumulated height, ties broken by earliest arrival) canonical view that
miners build on — including reorganizations when a longer fork overtakes
the current head.

DeCloud inherits whatever consensus the underlying chain provides (§II-A
"blockchains achieve decentralized consensus"); this module exists so the
reproduction's substrate behaves like one, and so tests can exercise the
market's behaviour across reorgs (allocations of orphaned blocks are
void; their participants simply resubmit — §III-B).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.common.errors import InvalidBlockError
from repro.ledger.block import GENESIS_PARENT, Block
from repro.ledger.pow import DEFAULT_DIFFICULTY_BITS
from repro.ledger.signatures import VerifiedSignatures


@dataclass
class _Node:
    block: Block
    parent_hash: str
    height: int
    arrival: int  # insertion counter for tie-breaking


@dataclass
class BlockTree:
    """All known valid blocks, indexed by hash, with fork choice."""

    difficulty_bits: int = DEFAULT_DIFFICULTY_BITS
    _nodes: Dict[str, _Node] = field(default_factory=dict)
    _arrival_counter: int = 0
    signatures: VerifiedSignatures = field(
        default_factory=VerifiedSignatures, init=False, repr=False, compare=False
    )

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, block_hash: str) -> bool:
        return block_hash in self._nodes

    # ------------------------------------------------------------------
    # Insertion
    # ------------------------------------------------------------------
    def add_block(self, block: Block) -> str:
        """Validate and insert ``block``; returns its hash.

        The parent must be genesis or already known; height must be the
        parent's height + 1; PoW, transaction signatures, and the miner
        signature are checked exactly as on the linear chain.
        """
        preamble = block.preamble
        parent_hash = preamble.parent_hash
        if parent_hash == GENESIS_PARENT:
            expected_height = 0
        else:
            parent = self._nodes.get(parent_hash)
            if parent is None:
                raise InvalidBlockError(
                    f"unknown parent {parent_hash[:12]}..."
                )
            expected_height = parent.height + 1
        if preamble.height != expected_height:
            raise InvalidBlockError(
                f"expected height {expected_height}, got {preamble.height}"
            )
        if not preamble.check_pow(self.difficulty_bits):
            raise InvalidBlockError("proof-of-work check failed")
        self.signatures.require_block(block)

        block_hash = block.hash()
        if block_hash in self._nodes:
            return block_hash  # idempotent
        self._nodes[block_hash] = _Node(
            block=block,
            parent_hash=parent_hash,
            height=preamble.height,
            arrival=self._arrival_counter,
        )
        self._arrival_counter += 1
        return block_hash

    # ------------------------------------------------------------------
    # Fork choice
    # ------------------------------------------------------------------
    def tips(self) -> List[str]:
        """Hashes of blocks no other block builds on."""
        parents = {node.parent_hash for node in self._nodes.values()}
        return [h for h in self._nodes if h not in parents]

    def head(self) -> Optional[str]:
        """Longest-chain head (max height; earliest arrival on ties)."""
        tips = self.tips()
        if not tips:
            return None
        return min(
            tips,
            key=lambda h: (-self._nodes[h].height, self._nodes[h].arrival),
        )

    def canonical_chain(self) -> List[Block]:
        """Blocks from genesis to the current head."""
        head = self.head()
        out: List[Block] = []
        cursor = head
        while cursor is not None and cursor in self._nodes:
            node = self._nodes[cursor]
            out.append(node.block)
            cursor = (
                node.parent_hash
                if node.parent_hash != GENESIS_PARENT
                else None
            )
        out.reverse()
        return out

    def orphaned_blocks(self) -> List[Block]:
        """Valid blocks not on the canonical chain (their allocations
        are void; participants resubmit)."""
        canonical = {b.hash() for b in self.canonical_chain()}
        return [
            node.block
            for block_hash, node in self._nodes.items()
            if block_hash not in canonical
        ]

    def height_of_head(self) -> int:
        head = self.head()
        return self._nodes[head].height if head else -1
