//! Worker-pool reuse — the per-run cost of the unified `Runtime` path
//! vs the legacy transient-thread path.
//!
//! The same ER workload (DS1-shaped corpus, BlockSplit) runs N times
//! back to back two ways:
//!
//! * **transient** — `run_er`, which spawns scoped worker threads for
//!   every job phase of every run (the pre-`Runtime` behavior);
//! * **pooled** — `run_er_in` on a `Workflow` bound to one persistent
//!   `WorkerPool` spawned before the first run (what the facade
//!   crate's `Runtime` + `Resolver` execute).
//!
//! Outputs are asserted byte-identical; the report shows per-run walls
//! and the spawn bookkeeping (threads spawned once vs per run), and
//! `BENCH_runtime_reuse.json` records both series.

use std::sync::Arc;
use std::time::Instant;

use er_bench::{median_ms, write_bench_json, Json, PAPER_SEED};
use er_loadbalance::driver::{run_er, run_er_in, ErConfig};
use er_loadbalance::StrategyKind;
use mr_engine::input::partition_evenly;
use mr_engine::pool::WorkerPool;
use mr_engine::workflow::Workflow;

const RUNS: usize = 12;
const PARALLELISM: usize = 4;

fn main() {
    println!("== Runtime pool reuse: per-run wall, transient vs pooled ==\n");
    let ds = er_datagen::generate_products(&er_datagen::ds1_spec(PAPER_SEED).scaled(0.005));
    let input = partition_evenly(
        ds.entities.into_iter().map(|e| ((), Arc::new(e))).collect(),
        8,
    );
    let config = ErConfig::new(StrategyKind::BlockSplit)
        .with_reduce_tasks(16)
        .with_parallelism(PARALLELISM);

    // Legacy path: every run spawns its own scoped threads per phase.
    let mut transient_ms = Vec::with_capacity(RUNS);
    let reference = run_er(input.clone(), &config).unwrap();
    for _ in 0..RUNS {
        let start = Instant::now();
        let outcome = run_er(input.clone(), &config).unwrap();
        transient_ms.push(start.elapsed().as_secs_f64() * 1e3);
        assert_eq!(outcome.result.pair_set(), reference.result.pair_set());
    }

    // Unified path: one pool, spawned once, shared by all runs.
    let pool = Arc::new(WorkerPool::new(PARALLELISM));
    let mut pooled_ms = Vec::with_capacity(RUNS);
    for run in 0..RUNS {
        let start = Instant::now();
        let mut workflow = Workflow::on_pool(format!("run-{run}"), Arc::clone(&pool));
        let stages = run_er_in(&mut workflow, input.clone(), None, &config).unwrap();
        let metrics = workflow.finish();
        pooled_ms.push(start.elapsed().as_secs_f64() * 1e3);
        assert_eq!(
            stages.result.pair_set(),
            reference.result.pair_set(),
            "pooled run {run} must be byte-identical to the transient path"
        );
        assert_eq!(metrics.num_stages(), 2);
    }
    assert_eq!(
        pool.threads_spawned(),
        PARALLELISM,
        "the pooled path spawns threads exactly once"
    );

    let t_med = median_ms(&transient_ms);
    let p_med = median_ms(&pooled_ms);
    println!("runs per mode:        {RUNS}  (m = 8, r = 16, parallelism = {PARALLELISM})");
    println!("transient median:     {t_med:.2} ms  (2 thread-scope spawns per run)");
    println!(
        "pooled median:        {p_med:.2} ms  ({} threads spawned once, {} pooled tasks total)",
        pool.threads_spawned(),
        pool.tasks_executed()
    );
    println!(
        "per-run delta:        {:+.2} ms ({:+.1}%)",
        p_med - t_med,
        (p_med - t_med) / t_med * 100.0
    );
    let verdict = if p_med <= t_med * 1.10 {
        "PASS pooled execution is at least spawn-cost-neutral"
    } else {
        "WARN pooled execution slower than transient — investigate"
    };
    println!("{verdict}");

    let json = Json::obj([
        ("bench", Json::str("runtime_reuse")),
        ("runs", Json::Num(RUNS as f64)),
        ("parallelism", Json::Num(PARALLELISM as f64)),
        (
            "transient_ms",
            Json::Arr(transient_ms.iter().map(|&v| Json::Num(v)).collect()),
        ),
        (
            "pooled_ms",
            Json::Arr(pooled_ms.iter().map(|&v| Json::Num(v)).collect()),
        ),
        ("transient_median_ms", Json::Num(t_med)),
        ("pooled_median_ms", Json::Num(p_med)),
        (
            "threads_spawned_once",
            Json::Num(pool.threads_spawned() as f64),
        ),
        (
            "pooled_tasks_executed",
            Json::Num(pool.tasks_executed() as f64),
        ),
    ]);
    write_bench_json("runtime_reuse", &json).expect("bench json export");
}
