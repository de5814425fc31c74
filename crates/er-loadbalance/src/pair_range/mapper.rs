//! PairRange map function (Algorithm 2, lines 1–26; Appendix I-B for
//! two sources).
//!
//! For each entity the mapper determines its global entity index `x`
//! and every range that contains at least one of its pairs. In a
//! triangle (dedup):
//!
//! * the *column run* `(x, x+1) … (x, N−1)` is contiguous in the pair
//!   index space, so all ranges from `range(p(x, x+1))` through
//!   `range(p(x, N−1))` are relevant;
//! * the *row pairs* `(0, x) … (x−1, x)` are scattered (one per
//!   column); their range indexes are computed individually — the
//!   literal reading of the listing's line 19–20 loop (`ranges ∪ {k}`)
//!   would insert raw loop counters instead of range indexes, which
//!   contradicts both the prose and the worked example, so we compute
//!   `rangeIndex(k, x, N, i)` as intended.
//!
//! In a rectangle (linkage) an R entity's pairs form one contiguous run
//! (its whole matrix row) and an S entity's pairs stride by `N_S` (its
//! matrix column).

use std::collections::BTreeSet;
use std::sync::Arc;

use er_core::blocking::BlockKey;
use er_core::pairs::{rect_cell_index, triangle_cell_index};
use er_core::SourceId;
use mr_engine::mapper::{MapContext, MapTaskInfo, Mapper};

use super::enumeration::EntityIndexer;
use super::ranges::{RangeIndexer, RangePolicy};
use crate::keys::{PairRangeKey, PairRangeValue};
use crate::pair_space::{BlockPairs, PairSpace};
use crate::Keyed;

/// The PairRange mapper.
#[derive(Clone)]
pub struct PairRangeMapper {
    space: Arc<PairSpace>,
    policy: RangePolicy,
    state: Option<MapState>,
}

#[derive(Clone)]
struct MapState {
    indexer: EntityIndexer,
    ranges: RangeIndexer,
    source: SourceId,
}

impl PairRangeMapper {
    /// Creates the mapper over a pair space.
    pub fn new(space: Arc<PairSpace>, policy: RangePolicy) -> Self {
        Self {
            space,
            policy,
            state: None,
        }
    }
}

/// Computes the set of ranges relevant for the entity with index `x`
/// of `source` in `block` (shared by the mapper and the analytic
/// workload model; `source` matters for linkage only).
pub fn relevant_ranges(
    space: &PairSpace,
    ranges: &RangeIndexer,
    block: usize,
    source: SourceId,
    x: u64,
) -> BTreeSet<u64> {
    let offset = space.pair_offset(block);
    let range = |cell: u64| ranges.range_of(cell + offset);
    let mut out = BTreeSet::new();
    match space.block(block) {
        BlockPairs::Triangle { n } if n >= 2 => {
            // Row pairs (k, x) for k < x — scattered, one per column.
            for k in 0..x {
                out.insert(range(triangle_cell_index(k, x, n)));
            }
            // Column run (x, x+1) … (x, N−1) — contiguous.
            if x + 1 < n {
                let first = range(triangle_cell_index(x, x + 1, n));
                let last = range(triangle_cell_index(x, n - 1, n));
                out.extend(first..=last);
            }
        }
        BlockPairs::Rectangle { r, s } if r > 0 && s > 0 => {
            if source == SourceId::R {
                // Row (x, 0) … (x, N_S−1) — contiguous.
                let first = range(rect_cell_index(x, 0, s));
                let last = range(rect_cell_index(x, s - 1, s));
                out.extend(first..=last);
            } else {
                // Column (0, x) … (N_R−1, x) — stride N_S.
                for row in 0..r {
                    out.insert(range(rect_cell_index(row, x, s)));
                }
            }
        }
        _ => {}
    }
    out
}

impl Mapper for PairRangeMapper {
    type KIn = BlockKey;
    type VIn = Keyed;
    type KOut = PairRangeKey;
    type VOut = PairRangeValue;
    type Side = ();

    fn setup(&mut self, info: &MapTaskInfo) {
        self.state = Some(MapState {
            indexer: EntityIndexer::for_partition(&self.space, info.task_index),
            ranges: RangeIndexer::new(self.space.total_pairs(), info.num_reduce_tasks, self.policy),
            source: self.space.source_of(info.task_index),
        });
    }

    fn map(
        &mut self,
        key: &BlockKey,
        keyed: &Keyed,
        ctx: &mut MapContext<PairRangeKey, PairRangeValue, ()>,
    ) {
        let state = self.state.as_mut().expect("setup ran");
        let Some(block) = self.space.block_index(key) else {
            panic!("blocking key {key} not present in the BDM");
        };
        let x = state.indexer.next(block);
        for range in relevant_ranges(&self.space, &state.ranges, block, state.source, x) {
            ctx.emit(
                PairRangeKey {
                    range: range as u32,
                    block: block as u32,
                    source: state.source,
                    index: x,
                },
                PairRangeValue {
                    keyed: keyed.clone(),
                    index: x,
                },
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bdm::running_example_bdm;
    use crate::running_example;

    fn space() -> PairSpace {
        PairSpace::dedup(Arc::new(running_example_bdm()))
    }

    fn run_partition(p: usize) -> Vec<(PairRangeKey, String)> {
        let mut mapper = PairRangeMapper::new(Arc::new(space()), RangePolicy::CeilDiv);
        let info = MapTaskInfo {
            task_index: p,
            num_map_tasks: 2,
            num_reduce_tasks: 3,
        };
        mapper.setup(&info);
        let mut out = Vec::new();
        let input = running_example::annotated_partitions();
        for (key, keyed) in &input[p] {
            let mut ctx = MapContext::for_testing(info);
            mapper.map(key, keyed, &mut ctx);
            for (k, v) in ctx.output() {
                out.push((*k, v.keyed.entity.get("name").unwrap().to_string()));
            }
        }
        out
    }

    #[test]
    fn entity_m_is_sent_to_ranges_1_and_2() {
        // Paper: "map therefore outputs two tuples (1.3.2, M) and
        // (2.3.2, M)".
        let outputs = run_partition(1);
        let m: Vec<&PairRangeKey> = outputs
            .iter()
            .filter(|(_, n)| n == "M")
            .map(|(k, _)| k)
            .collect();
        assert_eq!(m.len(), 2);
        assert!(m.iter().any(|k| (k.range, k.block, k.index) == (1, 3, 2)));
        assert!(m.iter().any(|k| (k.range, k.block, k.index) == (2, 3, 2)));
    }

    #[test]
    fn entity_f_is_only_in_range_1() {
        // F (block z, index 0) has pairs 10..13, all in range [7,13]
        // (paper: F "does not take part in any of the pairs with index
        // 14 through 19").
        let outputs = run_partition(0);
        let f: Vec<&PairRangeKey> = outputs
            .iter()
            .filter(|(_, n)| n == "F")
            .map(|(k, _)| k)
            .collect();
        assert_eq!(f.len(), 1);
        assert_eq!((f[0].range, f[0].block, f[0].index), (1, 3, 0));
    }

    #[test]
    fn block_w_entities_go_to_range_0_only() {
        // Block w's pairs are 0..=5, all within range [0,6].
        let outputs = run_partition(0);
        for name in ["A", "B"] {
            let keys: Vec<&PairRangeKey> = outputs
                .iter()
                .filter(|(_, n)| n == name)
                .map(|(k, _)| k)
                .collect();
            assert_eq!(keys.len(), 1, "{name}");
            assert_eq!(keys[0].range, 0, "{name}");
        }
    }

    #[test]
    fn total_map_output_for_the_example() {
        // Figure 7's dataflow: range 0 receives blocks w (4 entities)
        // and x (2); range 1 receives y (3) and all of z (5); range 2
        // receives z except F (4). Total = 18 emitted pairs.
        let total = run_partition(0).len() + run_partition(1).len();
        assert_eq!(total, 18);
    }

    #[test]
    fn relevant_ranges_cover_every_pair_exactly_once_per_range() {
        // Union over entities of {entity} × relevant_ranges must cover
        // each range's pairs: for every pair (x, y), both x and y are
        // sent to the pair's range.
        let space = space();
        for r in [1usize, 2, 3, 5, 20] {
            let ranges = RangeIndexer::new(space.total_pairs(), r, RangePolicy::CeilDiv);
            for block in 0..space.num_blocks() {
                let n = space.bdm().size(block);
                for x in 0..n {
                    for y in (x + 1)..n {
                        let range = ranges.range_of(space.pair_index(block, x, y));
                        let rx = relevant_ranges(&space, &ranges, block, SourceId::R, x);
                        let ry = relevant_ranges(&space, &ranges, block, SourceId::R, y);
                        assert!(rx.contains(&range), "x={x} y={y} r={r}");
                        assert!(ry.contains(&range), "x={x} y={y} r={r}");
                    }
                }
            }
        }
    }
}
