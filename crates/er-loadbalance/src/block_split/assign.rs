//! Greedy match-task assignment (Algorithm 1, lines 22–27).
//!
//! Tasks are ordered by descending comparison count and each is placed
//! on the reduce task with the least load so far — longest-processing-
//! time-first (LPT) list scheduling. Ties in size break by `(block, i,
//! j)` and ties in load by the lower reduce index, making the
//! assignment fully deterministic (and reproducing the paper's
//! Figure 5 distribution).

use std::collections::BTreeMap;

use super::match_tasks::MatchTask;

/// The deterministic assignment of match tasks to reduce tasks.
#[derive(Debug, Clone)]
pub struct TaskAssignment {
    by_task: BTreeMap<(usize, usize, usize), (usize, u64)>,
    loads: Vec<u64>,
}

impl TaskAssignment {
    /// Runs the greedy assignment for `r` reduce tasks.
    pub fn greedy(mut tasks: Vec<MatchTask>, r: usize) -> Self {
        assert!(r > 0, "need at least one reduce task");
        // Descending by size; deterministic tie-break on identity.
        tasks.sort_by(|a, b| {
            b.comparisons
                .cmp(&a.comparisons)
                .then(a.block.cmp(&b.block))
                .then(a.i.cmp(&b.i))
                .then(a.j.cmp(&b.j))
        });
        let mut loads = vec![0u64; r];
        let mut by_task = BTreeMap::new();
        for task in tasks {
            let reduce_task = loads
                .iter()
                .enumerate()
                .min_by_key(|(idx, &load)| (load, *idx))
                .map(|(idx, _)| idx)
                .expect("r > 0");
            loads[reduce_task] += task.comparisons;
            by_task.insert(
                (task.block, task.i, task.j),
                (reduce_task, task.comparisons),
            );
        }
        Self { by_task, loads }
    }

    /// The reduce task responsible for match task `(block, i, j)`,
    /// `None` if that match task does not exist (e.g. an empty
    /// sub-block pairing — the paper's `reduceTask ≠ null` check).
    pub fn reduce_task_for(&self, block: usize, i: usize, j: usize) -> Option<usize> {
        self.by_task.get(&(block, i, j)).map(|&(rt, _)| rt)
    }

    /// Comparison load per reduce task.
    pub fn loads(&self) -> &[u64] {
        &self.loads
    }

    /// Number of match tasks assigned.
    pub fn num_tasks(&self) -> usize {
        self.by_task.len()
    }

    /// Iterates `((block, i, j), (reduce_task, comparisons))`.
    pub fn iter(&self) -> impl Iterator<Item = (&(usize, usize, usize), &(usize, u64))> {
        self.by_task.iter()
    }

    /// Max/mean load ratio (1.0 = perfectly balanced).
    pub fn imbalance(&self) -> f64 {
        let max = self.loads.iter().copied().max().unwrap_or(0) as f64;
        let sum: u64 = self.loads.iter().sum();
        if sum == 0 {
            return 1.0;
        }
        max / (sum as f64 / self.loads.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bdm::running_example_bdm;
    use crate::block_split::match_tasks::create_match_tasks;
    use crate::pair_space::PairSpace;
    use std::sync::Arc;

    fn running_example() -> PairSpace {
        PairSpace::dedup(Arc::new(running_example_bdm()))
    }

    #[test]
    fn running_example_assignment_matches_figure5() {
        // Order by size: 0.* (6), 3.0×1 (6), 2.* (3), 3.1 (3), 1.* (1),
        // 3.0 (1) — the paper's ordering, then greedy placement:
        // R0 <- 0.*, R1 <- 3.0×1, R2 <- 2.*, R2 <- 3.1, R0 <- 1.*,
        // R1 <- 3.0. Loads: 7 / 7 / 6 ("between six and seven
        // comparisons").
        let tasks = create_match_tasks(&running_example(), 3);
        let assignment = TaskAssignment::greedy(tasks, 3);
        assert_eq!(assignment.loads(), &[7, 7, 6]);
        assert_eq!(assignment.reduce_task_for(0, 0, 0), Some(0));
        assert_eq!(assignment.reduce_task_for(3, 1, 0), Some(1));
        assert_eq!(assignment.reduce_task_for(2, 0, 0), Some(2));
        assert_eq!(assignment.reduce_task_for(3, 1, 1), Some(2));
        assert_eq!(assignment.reduce_task_for(1, 0, 0), Some(0));
        assert_eq!(assignment.reduce_task_for(3, 0, 0), Some(1));
        assert_eq!(assignment.num_tasks(), 6);
    }

    #[test]
    fn missing_match_task_is_none() {
        let tasks = create_match_tasks(&running_example(), 3);
        let assignment = TaskAssignment::greedy(tasks, 3);
        assert_eq!(assignment.reduce_task_for(3, 1, 1), Some(2));
        assert_eq!(assignment.reduce_task_for(9, 0, 0), None);
    }

    #[test]
    fn loads_sum_to_total_pairs() {
        for r in [1, 2, 3, 5, 8] {
            let tasks = create_match_tasks(&running_example(), r);
            let assignment = TaskAssignment::greedy(tasks, r);
            assert_eq!(assignment.loads().iter().sum::<u64>(), 20, "r={r}");
        }
    }

    #[test]
    fn lpt_is_within_4_thirds_of_optimal_lower_bound() {
        // Classic LPT bound: makespan <= 4/3 · OPT and OPT >= max(mean,
        // largest task). Spot-check with an adversarial task mix.
        let tasks: Vec<MatchTask> = [7u64, 7, 6, 5, 5, 4, 4, 4, 9, 2, 2]
            .iter()
            .enumerate()
            .map(|(idx, &c)| MatchTask {
                block: idx,
                i: 0,
                j: 0,
                comparisons: c,
            })
            .collect();
        let r = 3;
        let total: u64 = tasks.iter().map(|t| t.comparisons).sum();
        let largest = tasks.iter().map(|t| t.comparisons).max().unwrap();
        let assignment = TaskAssignment::greedy(tasks, r);
        let makespan = *assignment.loads().iter().max().unwrap() as f64;
        let lower = (total as f64 / r as f64).max(largest as f64);
        assert!(makespan <= lower * 4.0 / 3.0 + 1e-9);
    }

    #[test]
    fn imbalance_metric() {
        let tasks = vec![
            MatchTask {
                block: 0,
                i: 0,
                j: 0,
                comparisons: 8,
            },
            MatchTask {
                block: 1,
                i: 0,
                j: 0,
                comparisons: 8,
            },
        ];
        let assignment = TaskAssignment::greedy(tasks, 2);
        assert!((assignment.imbalance() - 1.0).abs() < 1e-12);
        let empty = TaskAssignment::greedy(vec![], 2);
        assert_eq!(empty.imbalance(), 1.0);
    }

    #[test]
    #[should_panic(expected = "at least one reduce task")]
    fn zero_reduce_tasks_panics() {
        let _ = TaskAssignment::greedy(vec![], 0);
    }
}
