//! Criterion micro-benchmarks for the MapReduce engine and the ER
//! pipeline at laptop scale: BDM job, full BlockSplit/PairRange runs,
//! and the streaming-reduce memory report.
//!
//! Besides the stdout report, this target writes
//! `BENCH_micro_engine.json` (median wall + the reduce-memory gauges)
//! via [`er_bench::write_bench_json`] so cross-PR perf trajectories
//! are machine-readable; CI smoke-runs the bench with `--test` and
//! re-parses the export.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use er_bench::{median_ms, write_bench_json, Json, PAPER_SEED};
use er_core::blocking::PrefixBlocking;
use er_loadbalance::driver::{run_er, ErConfig};
use er_loadbalance::StrategyKind;
use mr_engine::input::partition_evenly;

fn pipeline_input(scale: f64) -> Vec<Vec<((), er_loadbalance::Ent)>> {
    let ds = er_datagen::generate_products(&er_datagen::ds1_spec(PAPER_SEED).scaled(scale));
    partition_evenly(
        ds.entities.into_iter().map(|e| ((), Arc::new(e))).collect(),
        8,
    )
}

fn bench_pipeline(c: &mut Criterion) {
    let input = pipeline_input(0.005);
    let mut g = c.benchmark_group("er_pipeline_ds1_0.5pct");
    for strategy in [
        StrategyKind::Basic,
        StrategyKind::BlockSplit,
        StrategyKind::PairRange,
    ] {
        let config = ErConfig::new(strategy)
            .with_blocking(Arc::new(PrefixBlocking::title3()))
            .with_reduce_tasks(16)
            .with_parallelism(4);
        g.bench_function(strategy.to_string(), |b| {
            b.iter_batched(
                || input.clone(),
                |input| run_er(input, &config).unwrap(),
                BatchSize::LargeInput,
            )
        });
    }
    g.finish();
}

/// Not a timing benchmark: prints where the shuffle cost lives. With
/// map-side sorted runs and reduce-side merging, the coordinator's
/// shuffle share must be a sliver of job wall time — the merge is
/// absorbed into reduce-task wall time on the worker pool.
fn report_shuffle_location(_c: &mut Criterion) {
    use er_core::Matcher;
    use er_loadbalance::basic::basic_job;
    use er_loadbalance::compare::PairComparer;

    let input = pipeline_input(0.02);
    let job = basic_job(
        Arc::new(PrefixBlocking::title3()),
        None,
        PairComparer::new(Arc::new(Matcher::paper_default())),
        16,
        4,
    );
    let out = job.run(input).unwrap();
    let m = &out.metrics;
    let reduce_wall: std::time::Duration = m.reduce_tasks.iter().map(|t| t.wall).sum();
    println!(
        "shuffle location: coordinator {:?} ({:.2}% of job wall {:?}); \
         reduce tasks absorb the merge ({:?} summed reduce wall)",
        m.shuffle_wall,
        100.0 * m.shuffle_wall.as_secs_f64() / m.wall.as_secs_f64().max(1e-9),
        m.wall,
        reduce_wall,
    );
    assert!(
        m.shuffle_wall.as_secs_f64() < 0.25 * m.wall.as_secs_f64(),
        "coordinator-side shuffle must be a transpose, not a sort"
    );
}

/// Not a timing benchmark: measures the streaming reduce path's
/// memory gauges on the DS1-scale engine micro-bench and exports them
/// (plus a median wall) as `BENCH_micro_engine.json`.
///
/// The pre-streaming engine materialized each reduce task's merged
/// run, pinning peak resident records at ≈1.0× task input; the
/// streaming path buffers one group + `m` run heads, and this report
/// *asserts* the job-level ratio stays below 0.6× — the tentpole's
/// acceptance bound — instead of trusting the design.
fn report_reduce_memory(c: &mut Criterion) {
    use er_core::Matcher;
    use er_loadbalance::basic::basic_job;
    use er_loadbalance::compare::PairComparer;

    let (scale, reps) = if c.is_test_mode() {
        (0.005, 1)
    } else {
        (0.02, 5)
    };
    let input = pipeline_input(scale);
    let job = basic_job(
        Arc::new(PrefixBlocking::title3()),
        None,
        PairComparer::new(Arc::new(Matcher::paper_default())),
        16,
        4,
    );
    let mut walls_ms = Vec::with_capacity(reps);
    let mut shuffle_walls_ms = Vec::with_capacity(reps);
    let mut out = None;
    for _ in 0..reps {
        let run = job.run(input.clone()).unwrap();
        walls_ms.push(run.metrics.wall.as_secs_f64() * 1e3);
        shuffle_walls_ms.push(run.metrics.shuffle_wall.as_secs_f64() * 1e3);
        out = Some(run);
    }
    let out = out.expect("at least one rep");
    // Record counts and peak gauges are deterministic (identical every
    // rep — the test suite asserts this), so the last rep's metrics
    // serve; wall times are noisy and exported as medians across reps.
    let m = &out.metrics;
    let reduce_input: u64 = m.reduce_tasks.iter().map(|t| t.records_in).sum();
    let fraction = m.peak_resident_fraction();
    println!(
        "reduce memory (scale {scale}): {} input records over {} tasks; \
         peak group {} records, peak resident {} records, \
         resident/input = {fraction:.3} (materialized path: ~1.0)",
        reduce_input,
        m.reduce_tasks.len(),
        m.peak_group_len(),
        m.peak_resident_records(),
    );
    assert!(
        fraction < 0.6,
        "streaming reduce must stay below 0.6x of task input records, got {fraction:.3}"
    );

    let json = Json::obj([
        ("bench", Json::str("micro_engine")),
        ("job", Json::str("basic_ds1")),
        ("scale", Json::Num(scale)),
        ("samples", Json::Num(walls_ms.len() as f64)),
        ("median_wall_ms", Json::Num(median_ms(&walls_ms))),
        ("shuffle_wall_ms", Json::Num(median_ms(&shuffle_walls_ms))),
        ("reduce_input_records", Json::Num(reduce_input as f64)),
        ("peak_group_len", Json::Num(m.peak_group_len() as f64)),
        (
            "peak_resident_records",
            Json::Num(m.peak_resident_records() as f64),
        ),
        ("peak_resident_fraction", Json::Num(fraction)),
    ]);
    write_bench_json("micro_engine", &json).expect("bench json export");
}

fn bench_bdm_job(c: &mut Criterion) {
    let input = pipeline_input(0.02);
    c.bench_function("bdm_job_ds1_2pct", |b| {
        b.iter_batched(
            || input.clone(),
            |input| {
                er_loadbalance::bdm_job::compute_bdm(
                    input,
                    Arc::new(PrefixBlocking::title3()),
                    16,
                    4,
                    true,
                )
                .unwrap()
            },
            BatchSize::LargeInput,
        )
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(5)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_pipeline, bench_bdm_job, report_shuffle_location, report_reduce_memory
}
criterion_main!(benches);
