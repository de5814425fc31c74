//! BlockSplit — block-based load balancing (paper Section IV,
//! Algorithm 1).
//!
//! Blocks whose comparison count fits the average reduce workload
//! `P/r` stay whole (one *match task* `k.*`). Larger blocks are split
//! by input partition into `m` sub-blocks, producing match tasks for
//! each sub-block (`k.i`) and each sub-block pair (`k.i×j`), so the
//! block's Cartesian product is preserved exactly. Match tasks are
//! then assigned to reduce tasks greedily in descending size — LPT
//! scheduling, which keeps the makespan within 4/3 of optimal.
//!
//! Linkage (Appendix I-A) runs the same scheme over a rectangle
//! [`PairSpace`]: a split block's tasks pair an R partition with an S
//! partition, and every reduce group compares its R × S pairs.

pub mod assign;
pub mod mapper;
pub mod match_tasks;
pub mod reducer;

use std::sync::Arc;

use mr_engine::engine::Job;

use crate::compare::PairComparer;
use crate::keys::BlockSplitKey;
use crate::pair_space::PairSpace;

pub use assign::TaskAssignment;
pub use match_tasks::{create_match_tasks, create_match_tasks_with_policy, MatchTask, SplitPolicy};

/// Builds the BlockSplit matching job over the BDM job's annotated
/// side output, splitting blocks of `space` under `policy` (e.g. a
/// memory cap forcing oversized blocks apart).
pub fn block_split_job(
    space: Arc<PairSpace>,
    comparer: PairComparer,
    policy: SplitPolicy,
    reduce_tasks: usize,
    parallelism: usize,
) -> Job<mapper::BlockSplitMapper, reducer::BlockSplitReducer> {
    let linkage = space.is_linkage();
    Job::builder(
        "er-block-split",
        mapper::BlockSplitMapper::with_policy(space, policy),
        reducer::BlockSplitReducer::new(comparer, linkage),
    )
    .reduce_tasks(reduce_tasks)
    .parallelism(parallelism)
    .partitioner(BlockSplitKey::partitioner())
    .build()
}
