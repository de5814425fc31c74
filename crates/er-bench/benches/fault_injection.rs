//! Fault-tolerance overhead and recovery cost.
//!
//! The same ER workload (DS1-shaped corpus, BlockSplit, m = 8 map ×
//! r = 16 reduce tasks per job) runs N times in three modes on one
//! persistent worker pool:
//!
//! * **baseline** — the default fail-fast policy, no injection: the
//!   pre-fault-layer behavior;
//! * **retry-armed** — a 3-attempt retry budget but a fault-free run:
//!   measures the pure bookkeeping overhead of the fault layer (the
//!   per-attempt catch boundary plus the borrow-vs-take of reduce
//!   runs — non-final attempts stream borrowed runs, cloning records
//!   lazily), which must stay inside the run-to-run noise band;
//! * **recovery** — the same budget under a deterministic fail-once
//!   schedule striking ~10% of the 48 task slots (5 injected panics
//!   per run): measures the wall-clock cost of re-executing failed
//!   attempts.
//!
//! Outputs are asserted byte-identical across all three modes and the
//! injected-event gauges are asserted to count the schedule exactly;
//! `BENCH_fault_injection.json` records the three series plus the
//! gauges.

use std::sync::Arc;
use std::time::Instant;

use er_bench::{median_ms, write_bench_json, Json, PAPER_SEED};
use er_loadbalance::driver::{run_er_in, ErConfig};
use er_loadbalance::StrategyKind;
use mr_engine::fault::{FaultKind, FaultPlan, FaultPolicy};
use mr_engine::input::partition_evenly;
use mr_engine::runtime::{Runtime, RuntimeConfig};

const RUNS: usize = 12;
const PARALLELISM: usize = 4;
const MAP_TASKS: usize = 8;
const REDUCE_TASKS: usize = 16;

/// Fail-once panics over ~10% of the 2 × (8 + 16) = 48 task slots.
const INJECTIONS: usize = 5;

fn fail_once_schedule() -> FaultPlan {
    FaultPlan::new()
        .silence_injected_panics()
        .panic_at("bdm", FaultKind::Map, 0, 1, "injected")
        .panic_at("bdm", FaultKind::Reduce, 3, 1, "injected")
        .panic_at("er-block-split", FaultKind::Map, 1, 1, "injected")
        .panic_at("er-block-split", FaultKind::Reduce, 7, 1, "injected")
        .panic_at("er-block-split", FaultKind::Reduce, 12, 1, "injected")
}

fn main() {
    println!("== Fault tolerance: retry overhead and recovery wall ==\n");
    let ds = er_datagen::generate_products(&er_datagen::ds1_spec(PAPER_SEED).scaled(0.005));
    let input = partition_evenly(
        ds.entities.into_iter().map(|e| ((), Arc::new(e))).collect(),
        MAP_TASKS,
    );
    let config = ErConfig::new(StrategyKind::BlockSplit)
        .with_reduce_tasks(REDUCE_TASKS)
        .with_parallelism(PARALLELISM);
    let runtime = Runtime::new(RuntimeConfig::new().with_parallelism(PARALLELISM));

    // (mode label, retry policy, injection schedule)
    let modes: [(&str, FaultPolicy, FaultPlan); 3] = [
        ("baseline", FaultPolicy::fail_fast(), FaultPlan::new()),
        ("retry_armed", FaultPolicy::retry(3), FaultPlan::new()),
        ("recovery", FaultPolicy::retry(3), fail_once_schedule()),
    ];

    let mut medians = [0.0f64; 3];
    let mut series: Vec<Vec<f64>> = Vec::with_capacity(3);
    let mut reference: Option<er_core::MatchResult> = None;
    let (mut injected_failures, mut injected_retries) = (0u64, 0u64);
    for (slot, (label, policy, plan)) in modes.iter().enumerate() {
        let mut walls = Vec::with_capacity(RUNS);
        for run in 0..RUNS {
            let start = Instant::now();
            let mut workflow = runtime
                .workflow(format!("{label}-{run}"))
                .with_fault_policy(*policy)
                .with_fault_plan(plan.clone());
            let stages = run_er_in(&mut workflow, input.clone(), None, &config).unwrap();
            let metrics = workflow.finish();
            walls.push(start.elapsed().as_secs_f64() * 1e3);
            match &reference {
                None => reference = Some(stages.result),
                Some(r) => assert_eq!(
                    stages.result.pair_set(),
                    r.pair_set(),
                    "{label} run {run} drifted from the baseline output"
                ),
            }
            let expected = if plan.is_empty() {
                0
            } else {
                INJECTIONS as u64
            };
            assert_eq!(
                metrics.task_failures(),
                expected,
                "{label} run {run}: gauges must count the schedule exactly"
            );
            assert_eq!(metrics.tasks_retried(), expected, "{label} run {run}");
            injected_failures = metrics.task_failures();
            injected_retries = metrics.tasks_retried();
        }
        medians[slot] = median_ms(&walls);
        series.push(walls);
    }
    assert_eq!(
        runtime.pool().threads_spawned(),
        PARALLELISM,
        "recovery must reuse the pool, never spawn replacement threads"
    );

    let [base, armed, recovery] = medians;
    let overhead_pct = (armed - base) / base * 100.0;
    let recovery_pct = (recovery - base) / base * 100.0;
    println!("runs per mode:        {RUNS}  (m = {MAP_TASKS}, r = {REDUCE_TASKS}, parallelism = {PARALLELISM})");
    println!("baseline median:      {base:.2} ms  (fail-fast, no injection)");
    println!("retry-armed median:   {armed:.2} ms  ({overhead_pct:+.1}% — fault-free overhead)");
    println!(
        "recovery median:      {recovery:.2} ms  ({recovery_pct:+.1}% — {INJECTIONS} fail-once panics over 48 task slots)"
    );
    let verdict = if overhead_pct.abs() <= 10.0 {
        "PASS retry-armed fault-free overhead within the 10% noise band"
    } else {
        "WARN retry-armed overhead outside the noise band — investigate"
    };
    println!("{verdict}");

    let json = Json::obj([
        ("bench", Json::str("fault_injection")),
        ("runs", Json::Num(RUNS as f64)),
        ("parallelism", Json::Num(PARALLELISM as f64)),
        ("map_tasks", Json::Num(MAP_TASKS as f64)),
        ("reduce_tasks", Json::Num(REDUCE_TASKS as f64)),
        ("injections", Json::Num(INJECTIONS as f64)),
        (
            "baseline_ms",
            Json::Arr(series[0].iter().map(|&v| Json::Num(v)).collect()),
        ),
        (
            "retry_armed_ms",
            Json::Arr(series[1].iter().map(|&v| Json::Num(v)).collect()),
        ),
        (
            "recovery_ms",
            Json::Arr(series[2].iter().map(|&v| Json::Num(v)).collect()),
        ),
        ("baseline_median_ms", Json::Num(base)),
        ("retry_armed_median_ms", Json::Num(armed)),
        ("recovery_median_ms", Json::Num(recovery)),
        ("task_failures", Json::Num(injected_failures as f64)),
        ("tasks_retried", Json::Num(injected_retries as f64)),
        (
            "threads_spawned_once",
            Json::Num(runtime.pool().threads_spawned() as f64),
        ),
    ]);
    write_bench_json("fault_injection", &json).expect("bench json export");
}
