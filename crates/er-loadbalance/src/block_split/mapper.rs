//! BlockSplit map function (Algorithm 1, lines 1–44).

use std::sync::Arc;

use er_core::blocking::BlockKey;
use er_core::SourceId;
use mr_engine::mapper::{MapContext, MapTaskInfo, Mapper};

use super::assign::TaskAssignment;
use super::match_tasks::{create_match_tasks_with_policy, SplitPolicy};
use crate::keys::{BlockSplitKey, BlockSplitValue};
use crate::pair_space::PairSpace;
use crate::Keyed;

/// The BlockSplit mapper. Each map task re-derives the match-task
/// assignment from the (shared) pair space at `setup` time — mirroring
/// the paper's `map_configure`, where every map task independently
/// reads the BDM and computes the same deterministic assignment.
#[derive(Clone)]
pub struct BlockSplitMapper {
    space: Arc<PairSpace>,
    policy: SplitPolicy,
    state: Option<TaskState>,
}

#[derive(Clone)]
struct TaskState {
    assignment: Arc<TaskAssignment>,
    partition: usize,
    source: SourceId,
    /// The match tasks `(i, j)` pairing this partition's part of a
    /// split block with another partition's.
    sub_blocks: Vec<(usize, usize)>,
    r: usize,
}

impl BlockSplitMapper {
    /// Creates the mapper over a pair space (paper split policy).
    pub fn new(space: Arc<PairSpace>) -> Self {
        Self::with_policy(space, SplitPolicy::paper())
    }

    /// Creates the mapper with an explicit split policy.
    pub fn with_policy(space: Arc<PairSpace>, policy: SplitPolicy) -> Self {
        Self {
            space,
            policy,
            state: None,
        }
    }
}

impl Mapper for BlockSplitMapper {
    type KIn = BlockKey;
    type VIn = Keyed;
    type KOut = BlockSplitKey;
    type VOut = BlockSplitValue;
    type Side = ();

    fn setup(&mut self, info: &MapTaskInfo) {
        let r = info.num_reduce_tasks;
        let p = info.task_index;
        let tasks = create_match_tasks_with_policy(&self.space, r, self.policy);
        self.state = Some(TaskState {
            assignment: Arc::new(TaskAssignment::greedy(tasks, r)),
            partition: p,
            source: self.space.source_of(p),
            sub_blocks: (0..self.space.num_partitions())
                .filter_map(|q| self.space.sub_block(p, q))
                .collect(),
            r,
        });
    }

    fn map(
        &mut self,
        key: &BlockKey,
        keyed: &Keyed,
        ctx: &mut MapContext<BlockSplitKey, BlockSplitValue, ()>,
    ) {
        let state = self.state.as_ref().expect("setup ran");
        let Some(k) = self.space.block_index(key) else {
            // A key absent from the BDM means the two jobs saw
            // different data — a pipeline bug worth failing loudly on.
            panic!("blocking key {key} not present in the BDM");
        };
        let comps = self.space.pairs_in_block(k);
        let split = self.policy.should_split(
            self.space.bdm().size(k),
            comps,
            self.space.total_pairs(),
            state.r,
        );
        let value = || BlockSplitValue::new(keyed.clone(), state.partition, state.source);
        if !split {
            if comps > 0 {
                let rt = state
                    .assignment
                    .reduce_task_for(k, 0, 0)
                    .expect("unsplit task exists for non-empty block");
                ctx.emit(
                    BlockSplitKey {
                        reduce_task: rt as u32,
                        block: k as u32,
                        i: 0,
                        j: 0,
                    },
                    value(),
                );
            }
        } else {
            // Split block: emit for every existing match task pairing
            // this partition's sub-block with a partner's.
            for &(i, j) in &state.sub_blocks {
                if let Some(rt) = state.assignment.reduce_task_for(k, i, j) {
                    ctx.emit(
                        BlockSplitKey {
                            reduce_task: rt as u32,
                            block: k as u32,
                            i: i as u32,
                            j: j as u32,
                        },
                        value(),
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bdm::running_example_bdm;
    use crate::running_example;
    use mr_engine::mapper::MapTaskInfo;

    fn space() -> Arc<PairSpace> {
        Arc::new(PairSpace::dedup(Arc::new(running_example_bdm())))
    }

    fn run_partition(p: usize) -> Vec<(BlockSplitKey, String)> {
        let mut mapper = BlockSplitMapper::new(space());
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
                out.push((*k, v.entity().get("name").unwrap().to_string()));
            }
        }
        out
    }

    #[test]
    fn replication_only_for_the_split_block() {
        // 14 entities; the 5 entities of block z are emitted twice
        // (m = 2) -> 19 key-value pairs total (paper: "The replication
        // of the five entities for the split block leads to 19
        // key-value pairs for the 14 input entities").
        let total = run_partition(0).len() + run_partition(1).len();
        assert_eq!(total, 19);
    }

    #[test]
    fn entity_m_goes_to_its_sub_block_and_the_cross_task() {
        // M (partition 1, block z=3): sub-block task 3.1 at reduce 2
        // and cross task 3.1x0 at reduce 1 (Figure 5).
        let outputs = run_partition(1);
        let m_keys: Vec<&BlockSplitKey> = outputs
            .iter()
            .filter(|(_, name)| name == "M")
            .map(|(k, _)| k)
            .collect();
        assert_eq!(m_keys.len(), 2);
        assert!(m_keys
            .iter()
            .any(|k| (k.reduce_task, k.block, k.i, k.j) == (2, 3, 1, 1)));
        assert!(m_keys
            .iter()
            .any(|k| (k.reduce_task, k.block, k.i, k.j) == (1, 3, 1, 0)));
    }

    #[test]
    fn unsplit_entities_emit_once_with_assigned_reduce_task() {
        // A (partition 0, block w=0) -> single emission to reduce 0.
        let outputs = run_partition(0);
        let a_keys: Vec<&BlockSplitKey> = outputs
            .iter()
            .filter(|(_, name)| name == "A")
            .map(|(k, _)| k)
            .collect();
        assert_eq!(a_keys.len(), 1);
        assert_eq!(
            (
                a_keys[0].reduce_task,
                a_keys[0].block,
                a_keys[0].i,
                a_keys[0].j
            ),
            (0, 0, 0, 0)
        );
    }

    #[test]
    #[should_panic(expected = "not present in the BDM")]
    fn unknown_key_panics() {
        let mut mapper = BlockSplitMapper::new(space());
        let info = MapTaskInfo {
            task_index: 0,
            num_map_tasks: 2,
            num_reduce_tasks: 3,
        };
        mapper.setup(&info);
        let keyed = Keyed::single(
            BlockKey::new("nope"),
            Arc::new(er_core::Entity::new(0, [("name", "X")])),
        );
        let mut ctx = MapContext::for_testing(info);
        mapper.map(&BlockKey::new("nope"), &keyed, &mut ctx);
    }
}
