//! Ablation — BlockSplit's greedy LPT assignment vs round-robin.
//!
//! Algorithm 1 sorts match tasks by descending size and places each on
//! the least-loaded reduce task. A cheaper round-robin placement needs
//! no sort — this bench shows what it costs in balance on the DS1-like
//! workload (answer: a lot, whenever task sizes are heterogeneous).

use er_bench::table::TextTable;
use er_bench::{bdm_from_keys, PAPER_SEED};
use er_datagen::dataset::key_sequence;
use er_datagen::ds1_spec;
use std::sync::Arc;

use er_loadbalance::block_split::{create_match_tasks, MatchTask, TaskAssignment};
use er_loadbalance::PairSpace;

fn round_robin_max_load(tasks: &[MatchTask], r: usize) -> u64 {
    let mut loads = vec![0u64; r];
    for (i, t) in tasks.iter().enumerate() {
        loads[i % r] += t.comparisons;
    }
    loads.into_iter().max().unwrap_or(0)
}

fn main() {
    println!("== Ablation: greedy LPT vs round-robin match-task assignment ==\n");
    let keys = key_sequence(&ds1_spec(PAPER_SEED));
    let space = PairSpace::dedup(Arc::new(bdm_from_keys(&keys, 20)));
    let mut table = TextTable::new(&["r", "tasks", "LPT max load", "RR max load", "RR/LPT"]);
    let mut ratios = Vec::new();
    for r in [20usize, 40, 80, 160] {
        let tasks = create_match_tasks(&space, r);
        let lpt = TaskAssignment::greedy(tasks.clone(), r);
        let lpt_max = *lpt.loads().iter().max().unwrap();
        let rr_max = round_robin_max_load(&tasks, r);
        let ratio = rr_max as f64 / lpt_max as f64;
        ratios.push(ratio);
        table.row(vec![
            r.to_string(),
            tasks.len().to_string(),
            lpt_max.to_string(),
            rr_max.to_string(),
            format!("{ratio:.2}"),
        ]);
    }
    table.print();
    let worst = ratios.iter().cloned().fold(0.0, f64::max);
    println!(
        "\n[{}] LPT beats round-robin by up to {:.2}x on makespan-bound load",
        if worst >= 1.0 { "PASS" } else { "WARN" },
        worst
    );
    println!("    (LPT guarantee: within 4/3 of the optimal max load.)");
}
