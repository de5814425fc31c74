//! The pair space the matching job balances: every comparison pair of
//! every block, numbered `0..P` (paper Sections IV–V and Appendix I).
//!
//! Deduplication compares the pairs *within* a block — a triangle of
//! `C(|Φ_k|, 2)` cells. Linkage of two sources R and S compares the
//! *cross-source* pairs — an `|Φ_k,R| × |Φ_k,S|` rectangle (each input
//! partition holds one source; the caller tags it, as the paper does
//! with Hadoop's `MultipleInputs`). Everything else is one scheme over
//! either shape, so the strategies read their numbers from a
//! [`PairSpace`] instead of the BDM:
//!
//! * **block pairs** — `C(N, 2)` or `N_R · N_S`, with the offset `o(k)`
//!   of the pairs in earlier blocks and the total `P`;
//! * **pair index** — column-wise `c(x, y, N) + o(k)` for `x < y` in a
//!   triangle, row-wise `x · N_S + y + o(k)` for `x ∈ R`, `y ∈ S` in a
//!   rectangle. (Appendix I writes the rectangle's `o(k)` with an extra
//!   "−1"; that is a typo — the first pair index would be −1, and the
//!   worked example's ranges for entity C rule it out.)
//! * **entity index** — a map task offsets its local enumeration by
//!   the block's entities in earlier partitions *of its own source*;
//! * **sub-block pairing** — in a split block, partition `i` pairs with
//!   every partition `j ≤ i` (dedup) or with every partition of the
//!   other source (linkage).
//!
//! Callers pick the shape once per map task or reduce group
//! ([`PairSpace::block`]); no per-pair code branches on it.

use std::sync::Arc;

use er_core::blocking::BlockKey;
use er_core::pairs::{rect_cell_index, triangle_cell_index, triangle_pairs};
use er_core::{check_source_tags, SourceId};

use crate::bdm::BlockDistributionMatrix;

/// The pairs of one block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockPairs {
    /// Every pair among the block's `n` entities (deduplication).
    Triangle {
        /// |Φ_k|.
        n: u64,
    },
    /// Every R entity against every S entity (linkage).
    Rectangle {
        /// |Φ_k,R|.
        r: u64,
        /// |Φ_k,S|.
        s: u64,
    },
}

impl BlockPairs {
    /// Number of pairs.
    pub fn count(self) -> u64 {
        match self {
            BlockPairs::Triangle { n } => triangle_pairs(n),
            BlockPairs::Rectangle { r, s } => r * s,
        }
    }

    /// Index of pair `(x, y)` within the block: entity indexes `x < y`
    /// in a triangle, `x ∈ R` and `y ∈ S` in a rectangle.
    pub fn cell(self, x: u64, y: u64) -> u64 {
        match self {
            BlockPairs::Triangle { n } => triangle_cell_index(x, y, n),
            BlockPairs::Rectangle { s, .. } => rect_cell_index(x, y, s),
        }
    }
}

/// A BDM read as a triangle (dedup) or rectangle (linkage) pair space.
#[derive(Debug, Clone)]
pub struct PairSpace {
    bdm: Arc<BlockDistributionMatrix>,
    linkage: Option<Linkage>,
}

/// The rectangle's per-block sides and pair offsets.
#[derive(Debug, Clone)]
struct Linkage {
    sources: Vec<SourceId>,
    sides: Vec<(u64, u64)>,
    pair_offsets: Vec<u64>,
}

impl PairSpace {
    /// The triangle space of one-source deduplication.
    pub fn dedup(bdm: Arc<BlockDistributionMatrix>) -> Self {
        Self { bdm, linkage: None }
    }

    /// The rectangle space of two-source linkage: `sources[p]` tags
    /// input partition `p` as `R` or `S`.
    ///
    /// # Panics
    /// If the tags do not fit the BDM's partitions (see
    /// [`check_source_tags`]).
    pub fn linkage(bdm: Arc<BlockDistributionMatrix>, sources: &[SourceId]) -> Self {
        check_source_tags(sources, bdm.num_partitions()).unwrap_or_else(|e| panic!("{e}"));
        let sides: Vec<(u64, u64)> = (0..bdm.num_blocks())
            .map(|k| {
                sources
                    .iter()
                    .enumerate()
                    .fold((0, 0), |(r, s), (p, &src)| match src {
                        SourceId::R => (r + bdm.size_in(k, p), s),
                        _ => (r, s + bdm.size_in(k, p)),
                    })
            })
            .collect();
        let mut pair_offsets = Vec::with_capacity(sides.len() + 1);
        let mut acc = 0u64;
        for &(r, s) in &sides {
            pair_offsets.push(acc);
            acc += r * s;
        }
        pair_offsets.push(acc);
        Self {
            bdm,
            linkage: Some(Linkage {
                sources: sources.to_vec(),
                sides,
                pair_offsets,
            }),
        }
    }

    /// [`PairSpace::linkage`] when `sources` is given, else
    /// [`PairSpace::dedup`].
    pub fn new(bdm: Arc<BlockDistributionMatrix>, sources: Option<&[SourceId]>) -> Self {
        match sources {
            Some(tags) => Self::linkage(bdm, tags),
            None => Self::dedup(bdm),
        }
    }

    /// The underlying BDM.
    pub fn bdm(&self) -> &BlockDistributionMatrix {
        &self.bdm
    }

    /// True for a linkage (rectangle) space.
    pub fn is_linkage(&self) -> bool {
        self.linkage.is_some()
    }

    /// Source of input partition `p` (`R` throughout for dedup).
    pub fn source_of(&self, p: usize) -> SourceId {
        self.linkage.as_ref().map_or(SourceId::R, |l| l.sources[p])
    }

    /// Number of blocks.
    pub fn num_blocks(&self) -> usize {
        self.bdm.num_blocks()
    }

    /// Number of input partitions `m`.
    pub fn num_partitions(&self) -> usize {
        self.bdm.num_partitions()
    }

    /// Block index lookup.
    pub fn block_index(&self, key: &BlockKey) -> Option<usize> {
        self.bdm.block_index(key)
    }

    /// The pairs of block `k`.
    pub fn block(&self, k: usize) -> BlockPairs {
        match &self.linkage {
            None => BlockPairs::Triangle {
                n: self.bdm.size(k),
            },
            Some(l) => {
                let (r, s) = l.sides[k];
                BlockPairs::Rectangle { r, s }
            }
        }
    }

    /// Number of pairs of block `k`.
    pub fn pairs_in_block(&self, k: usize) -> u64 {
        self.block(k).count()
    }

    /// o(k): pairs in the blocks before `k`.
    pub fn pair_offset(&self, k: usize) -> u64 {
        match &self.linkage {
            None => self.bdm.pair_offset(k),
            Some(l) => l.pair_offsets[k],
        }
    }

    /// P: pairs over all blocks.
    pub fn total_pairs(&self) -> u64 {
        match &self.linkage {
            None => self.bdm.total_pairs(),
            Some(l) => *l.pair_offsets.last().expect("offsets never empty"),
        }
    }

    /// Global index of pair `(x, y)` of block `k` (see
    /// [`BlockPairs::cell`] for the argument order).
    pub fn pair_index(&self, k: usize, x: u64, y: u64) -> u64 {
        self.block(k).cell(x, y) + self.pair_offset(k)
    }

    /// Entity-index offset of a map task reading `partition`: the
    /// entities of block `k` in earlier partitions of the same source.
    pub(crate) fn entity_index_offset(&self, k: usize, partition: usize) -> u64 {
        match &self.linkage {
            None => self.bdm.entity_index_offset(k, partition),
            Some(l) => (0..partition)
                .filter(|&q| l.sources[q] == l.sources[partition])
                .map(|q| self.bdm.size_in(k, q))
                .sum(),
        }
    }

    /// The match task `(i, j)` that compares partition `p`'s part of a
    /// split block with partition `q`'s, or `None` if they never pair.
    /// Dedup pairs every partition, `i = max(p, q) ≥ j`; linkage pairs
    /// the two sources only, `i ∈ R` and `j ∈ S`.
    pub(crate) fn sub_block(&self, p: usize, q: usize) -> Option<(usize, usize)> {
        match &self.linkage {
            None => Some((p.max(q), p.min(q))),
            Some(l) => match (l.sources[p], l.sources[q]) {
                (SourceId::R, SourceId::S) => Some((p, q)),
                (SourceId::S, SourceId::R) => Some((q, p)),
                _ => None,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bdm::running_example_bdm;
    use crate::two_source::appendix_example;

    #[test]
    fn sub_blocks_pair_lower_partitions_or_the_other_source() {
        let dedup = PairSpace::dedup(Arc::new(running_example_bdm()));
        assert_eq!(dedup.sub_block(0, 1), Some((1, 0)));
        assert_eq!(dedup.sub_block(1, 1), Some((1, 1)));
        let linkage = appendix_example::pair_space();
        assert_eq!(linkage.sub_block(0, 2), Some((0, 2)));
        assert_eq!(linkage.sub_block(2, 0), Some((0, 2)), "R coordinate first");
        assert_eq!(linkage.sub_block(1, 2), None, "S never pairs with S");
        assert_eq!(linkage.sub_block(0, 0), None);
    }
}
