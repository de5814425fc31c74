//! Matching two sources R and S (paper Appendix I).
//!
//! Each input partition holds entities of exactly one source (the
//! paper ensures this via Hadoop's `MultipleInputs`; here the caller
//! passes a side tag per partition). The BDM job is unchanged — the
//! partition index identifies the source — and Basic, BlockSplit and
//! PairRange run unchanged over the BDM read as a rectangle
//! [`PairSpace`]: each block's pairs are its `|Φ_k,R| × |Φ_k,S|`
//! cross-source pairs. Linkage runs through [`crate::run_linkage`] or
//! [`crate::driver::run_er_in`] with source tags.
//!
//! This module holds the appendix's worked example and pins its numbers
//! on every strategy.

use crate::pair_space::PairSpace;

/// The appendix running example (Figure 15a): 13 entities A–N over
/// blocks w, x, y, z; source R in partition Π0, source S in Π1 and Π2.
///
/// Counts: w → R:2/S:2 (4 pairs), x → R:1/S:2 (2 pairs), y → R:1/S:0
/// (0 pairs), z → R:2/S:3 (6 pairs); 12 pairs total. With lexicographic
/// block order our indexes are w=0, x=1, y=2, z=3 (the paper's figure
/// orders x and y differently; the structure is identical).
pub mod appendix_example {
    use std::sync::Arc;

    use er_core::blocking::BlockKey;
    use er_core::{Entity, SourceId};
    use mr_engine::input::Partitions;

    use super::PairSpace;
    use crate::bdm::BlockDistributionMatrix;
    use crate::running_example::annotate;
    use crate::{Ent, Keyed};

    /// `(name, blocking key, partition)`; partition 0 is R, 1–2 are S.
    pub const LAYOUT: &[(&str, &str, usize)] = &[
        ("A", "w", 0),
        ("B", "w", 0),
        ("C", "z", 0),
        ("D", "z", 0),
        ("E", "x", 0),
        ("F", "y", 0),
        ("G", "w", 1),
        ("H", "w", 1),
        ("J", "x", 1),
        ("K", "z", 1),
        ("L", "z", 1),
        ("M", "x", 2),
        ("N", "z", 2),
    ];

    /// Source tags per partition.
    pub fn partition_sources() -> Vec<SourceId> {
        vec![SourceId::R, SourceId::S, SourceId::S]
    }

    /// Raw entity partitions.
    pub fn entity_partitions() -> Partitions<(), Ent> {
        let sources = partition_sources();
        let mut parts: Partitions<(), Ent> = vec![Vec::new(), Vec::new(), Vec::new()];
        for (id, (name, key, partition)) in LAYOUT.iter().enumerate() {
            let title = format!("{key} {name}");
            let entity = Entity::with_source(
                sources[*partition],
                id as u64,
                [("title", title.as_str()), ("name", name)],
            );
            parts[*partition].push(((), Arc::new(entity)));
        }
        parts
    }

    /// Annotated partitions (what the BDM job's side output yields).
    pub fn annotated_partitions() -> Partitions<BlockKey, Keyed> {
        annotate(entity_partitions())
    }

    /// The example's rectangle pair space.
    pub fn pair_space() -> PairSpace {
        let keys: Vec<Vec<BlockKey>> = annotated_partitions()
            .iter()
            .map(|p| p.iter().map(|(k, _)| k.clone()).collect())
            .collect();
        PairSpace::linkage(
            Arc::new(BlockDistributionMatrix::from_key_partitions(&keys)),
            &partition_sources(),
        )
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::appendix_example;
    use super::*;
    use crate::bdm::BlockDistributionMatrix;
    use crate::pair_range::ranges::{RangeIndexer, RangePolicy};
    use crate::pair_space::BlockPairs;
    use er_core::SourceId;

    #[test]
    fn appendix_bdm_counts() {
        let space = appendix_example::pair_space();
        assert_eq!(space.num_blocks(), 4);
        // w=0, x=1, y=2, z=3 lexicographically.
        let sides: Vec<BlockPairs> = (0..4).map(|k| space.block(k)).collect();
        assert_eq!(
            sides,
            vec![
                BlockPairs::Rectangle { r: 2, s: 2 },
                BlockPairs::Rectangle { r: 1, s: 2 },
                BlockPairs::Rectangle { r: 1, s: 0 },
                BlockPairs::Rectangle { r: 2, s: 3 },
            ]
        );
        assert_eq!(space.total_pairs(), 12, "paper: 12 overall pairs");
        assert_eq!(space.pairs_in_block(2), 0, "block y has no S entities");
    }

    #[test]
    fn pair_offsets_skip_empty_blocks() {
        let space = appendix_example::pair_space();
        assert_eq!(space.pair_offset(0), 0);
        assert_eq!(space.pair_offset(1), 4);
        assert_eq!(space.pair_offset(2), 6);
        assert_eq!(space.pair_offset(3), 6, "y contributes nothing");
    }

    #[test]
    fn entity_c_ranges_match_the_paper() {
        // C ∈ R is the first entity (x = 0) of block z; its pairs are
        // 6, 7, 8. With ranges of size 4 ([0,3], [4,7], [8,11]) it
        // belongs to ranges 1 and 2 — the paper's statement. (With the
        // paper's "−1" offset the pairs would be 5,6,7 -> ranges {1}
        // only, contradicting the example.)
        let space = appendix_example::pair_space();
        let pairs: Vec<u64> = (0..3).map(|y| space.pair_index(3, 0, y)).collect();
        assert_eq!(pairs, vec![6, 7, 8]);
        let ranges = RangeIndexer::new(12, 3, RangePolicy::CeilDiv);
        let hit: std::collections::BTreeSet<u64> =
            pairs.iter().map(|&p| ranges.range_of(p)).collect();
        assert_eq!(hit.into_iter().collect::<Vec<_>>(), vec![1, 2]);
    }

    #[test]
    fn entity_index_offsets_respect_sources() {
        let space = appendix_example::pair_space();
        // K is the first z-entity of S (partition 1): offset 0 even
        // though R's partition 0 holds two z entities.
        assert_eq!(space.entity_index_offset(3, 1), 0);
        // N (partition 2) is preceded by 2 z-entities of S in Π1.
        assert_eq!(space.entity_index_offset(3, 2), 2);
    }

    #[test]
    #[should_panic(expected = "one source tag per input partition")]
    fn source_count_must_match_partitions() {
        let bdm = Arc::new(BlockDistributionMatrix::from_counts(2, vec![]));
        let _ = PairSpace::linkage(bdm, &[SourceId::R]);
    }

    #[test]
    fn pair_enumeration_is_a_bijection() {
        let space = appendix_example::pair_space();
        let mut seen = vec![false; space.total_pairs() as usize];
        for k in 0..space.num_blocks() {
            let BlockPairs::Rectangle { r, s } = space.block(k) else {
                panic!("linkage blocks are rectangles");
            };
            for x in 0..r {
                for y in 0..s {
                    let p = space.pair_index(k, x, y) as usize;
                    assert!(!seen[p], "pair index {p} assigned twice");
                    seen[p] = true;
                }
            }
        }
        assert!(seen.iter().all(|&s| s), "pair index space has gaps");
    }
}

/// Linkage on the unified strategy jobs, one module per strategy.
#[cfg(test)]
mod basic {
    mod tests {
        use std::sync::Arc;

        use er_core::Matcher;
        use mr_engine::metrics::JobMetrics;

        use crate::basic::basic_job;
        use crate::compare::PairComparer;
        use crate::running_example::blocking;
        use crate::two_source::appendix_example;
        use crate::COMPARISONS;

        fn run(r: usize) -> JobMetrics {
            let job = basic_job(
                blocking(),
                Some(appendix_example::partition_sources().into()),
                PairComparer::count_only(Arc::new(Matcher::paper_default())),
                r,
                1,
            );
            job.run(appendix_example::entity_partitions())
                .unwrap()
                .metrics
        }

        #[test]
        fn computes_the_12_cross_pairs() {
            assert_eq!(run(3).counters.get(COMPARISONS), 12);
        }

        #[test]
        fn blocks_stay_whole() {
            // Per-task loads must be sums of whole-block pair counts
            // ({4, 2, 0, 6} here).
            for load in run(5).per_reduce_counter(COMPARISONS) {
                assert!(
                    [0, 2, 4, 6, 8, 10, 12].contains(&load),
                    "load {load} is not a sum of whole blocks"
                );
            }
        }
    }
}

#[cfg(test)]
mod block_split {
    mod tests {
        use std::sync::Arc;

        use er_core::result::MatchPair;
        use er_core::Matcher;
        use mr_engine::engine::JobOutput;

        use crate::block_split::{
            block_split_job, create_match_tasks, SplitPolicy, TaskAssignment,
        };
        use crate::compare::PairComparer;
        use crate::two_source::appendix_example;
        use crate::COMPARISONS;

        fn run(comparer: PairComparer) -> JobOutput<MatchPair, f64, ()> {
            let space = Arc::new(appendix_example::pair_space());
            let job = block_split_job(space, comparer, SplitPolicy::paper(), 3, 1);
            job.run(appendix_example::annotated_partitions()).unwrap()
        }

        #[test]
        fn appendix_match_tasks() {
            // P = 12, r = 3 -> average 4. Block z (6 pairs) splits into
            // 3.0x1 (2*2 = 4) and 3.0x2 (2*1 = 2); w (4) and x (2) stay
            // whole; y has 0 pairs -> no task. (Paper: "0.* (4 pairs,
            // reduce0), 3.0×1 (4 pairs, reduce1), 2.* (2 pairs, reduce2),
            // 3.0×2 (2 pairs, reduce2)" — our x has block index 1.)
            let tasks = create_match_tasks(&appendix_example::pair_space(), 3);
            let as_tuples: Vec<(usize, usize, usize, u64)> = tasks
                .iter()
                .map(|t| (t.block, t.i, t.j, t.comparisons))
                .collect();
            assert_eq!(
                as_tuples,
                vec![(0, 0, 0, 4), (1, 0, 0, 2), (3, 0, 1, 4), (3, 0, 2, 2)]
            );
            let assignment = TaskAssignment::greedy(tasks, 3);
            assert_eq!(assignment.reduce_task_for(0, 0, 0), Some(0));
            assert_eq!(assignment.reduce_task_for(3, 0, 1), Some(1));
            assert_eq!(assignment.reduce_task_for(1, 0, 0), Some(2));
            assert_eq!(assignment.reduce_task_for(3, 0, 2), Some(2));
            assert_eq!(assignment.loads(), &[4, 4, 4]);
        }

        #[test]
        fn job_computes_exactly_the_12_cross_pairs() {
            let out = run(PairComparer::count_only(Arc::new(Matcher::paper_default())));
            assert_eq!(out.metrics.counters.get(COMPARISONS), 12);
            let loads = out.metrics.per_reduce_counter(COMPARISONS);
            assert_eq!(loads, vec![4, 4, 4]);
        }

        #[test]
        fn no_same_source_comparisons() {
            let out = run(PairComparer::new(Arc::new(Matcher::paper_default())));
            for (pair, _) in out.records() {
                assert_ne!(
                    pair.lo().source,
                    pair.hi().source,
                    "two-source matching must only produce cross-source pairs"
                );
            }
        }
    }
}

#[cfg(test)]
mod pair_range {
    mod tests {
        use std::sync::Arc;

        use er_core::result::MatchPair;
        use er_core::{Matcher, SourceId};
        use mr_engine::engine::JobOutput;

        use crate::compare::PairComparer;
        use crate::pair_range::mapper::relevant_ranges;
        use crate::pair_range::{pair_range_job, RangeIndexer, RangePolicy};
        use crate::two_source::appendix_example;
        use crate::COMPARISONS;

        fn run(comparer: PairComparer) -> JobOutput<MatchPair, f64, ()> {
            let space = Arc::new(appendix_example::pair_space());
            let job = pair_range_job(space, comparer, RangePolicy::CeilDiv, 3, 1);
            job.run(appendix_example::annotated_partitions()).unwrap()
        }

        #[test]
        fn entity_c_is_sent_to_ranges_1_and_2() {
            // Paper: "map emits two keys (1.3.R.0) and (2.3.R.0)" for C.
            let space = appendix_example::pair_space();
            let ranges = RangeIndexer::new(12, 3, RangePolicy::CeilDiv);
            let hits = relevant_ranges(&space, &ranges, 3, SourceId::R, 0);
            assert_eq!(hits.into_iter().collect::<Vec<_>>(), vec![1, 2]);
        }

        #[test]
        fn empty_side_blocks_emit_nothing() {
            // Block y (index 2) has no S entities: F must go nowhere.
            let space = appendix_example::pair_space();
            let ranges = RangeIndexer::new(12, 3, RangePolicy::CeilDiv);
            let hits = relevant_ranges(&space, &ranges, 2, SourceId::R, 0);
            assert!(hits.is_empty());
        }

        #[test]
        fn job_computes_exactly_the_12_cross_pairs_evenly() {
            let out = run(PairComparer::count_only(Arc::new(Matcher::paper_default())));
            assert_eq!(out.metrics.counters.get(COMPARISONS), 12);
            assert_eq!(
                out.metrics.per_reduce_counter(COMPARISONS),
                vec![4, 4, 4],
                "paper: three ranges of size 4"
            );
        }

        #[test]
        fn results_are_cross_source_only() {
            let out = run(PairComparer::new(Arc::new(Matcher::paper_default())));
            for (pair, _) in out.records() {
                assert_ne!(pair.lo().source, pair.hi().source);
            }
        }
    }
}
