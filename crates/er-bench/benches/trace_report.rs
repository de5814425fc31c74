//! Trace instrumentation — overhead of the event stream and the
//! post-run execution report.
//!
//! The same ER workload (DS1-shaped corpus, BlockSplit, pooled
//! workflow) runs N times back to back two ways:
//!
//! * **untraced** — no sink attached: every emit site must collapse to
//!   a single branch, so these walls are the noise floor;
//! * **traced** — a [`TraceRecorder`] attached per run: the full event
//!   stream (job/stage/attempt lifecycle, pool scheduling, shuffle) is
//!   captured in memory.
//!
//! Outputs are asserted byte-identical across modes; the recorded
//! per-category counts are asserted against the workflow gauges; the
//! last traced run is rendered as the full [`TraceReport`] (per-worker
//! Gantt, critical path vs. sum-of-walls, reduce-load skew, queue-wait
//! percentiles). `BENCH_trace_report.json` records both wall series,
//! the deterministic event counts, and the nested report.

use std::sync::Arc;
use std::time::Instant;

use er_bench::{median_ms, write_bench_json, Json, PAPER_SEED};
use er_loadbalance::driver::{run_er_in, ErConfig, ErStages};
use er_loadbalance::StrategyKind;
use mr_engine::input::partition_evenly;
use mr_engine::pool::WorkerPool;
use mr_engine::trace::{TraceRecorder, TraceReport, TraceSink};
use mr_engine::workflow::{Workflow, WorkflowMetrics};

const RUNS: usize = 10;
const PARALLELISM: usize = 4;

fn main() {
    println!("== Trace instrumentation: overhead + execution report ==\n");
    let ds = er_datagen::generate_products(&er_datagen::ds1_spec(PAPER_SEED).scaled(0.02));
    let input = partition_evenly(
        ds.entities.into_iter().map(|e| ((), Arc::new(e))).collect(),
        8,
    );
    let config = ErConfig::new(StrategyKind::BlockSplit)
        .with_reduce_tasks(16)
        .with_parallelism(PARALLELISM);
    let pool = Arc::new(WorkerPool::new(PARALLELISM));

    let run = |sink: Option<Arc<dyn TraceSink>>, run: usize| -> (f64, ErStages, WorkflowMetrics) {
        let start = Instant::now();
        let mut workflow = Workflow::on_pool(format!("trace-bench-{run}"), Arc::clone(&pool));
        if let Some(sink) = sink {
            workflow = workflow.with_trace_sink(sink);
        }
        let stages = run_er_in(&mut workflow, input.clone(), None, &config).unwrap();
        let metrics = workflow.finish();
        (start.elapsed().as_secs_f64() * 1e3, stages, metrics)
    };

    // Noise floor: no sink — every emit site is one branch.
    let (_, reference, _) = run(None, 0);
    let mut untraced_ms = Vec::with_capacity(RUNS);
    for i in 0..RUNS {
        let (wall, stages, _) = run(None, i);
        untraced_ms.push(wall);
        assert_eq!(stages.result.pair_set(), reference.result.pair_set());
    }

    // Instrumented: a fresh in-memory recorder per run.
    let mut traced_ms = Vec::with_capacity(RUNS);
    let mut last: Option<(Arc<TraceRecorder>, WorkflowMetrics)> = None;
    for i in 0..RUNS {
        let recorder = Arc::new(TraceRecorder::new());
        let concrete: Arc<TraceRecorder> = Arc::clone(&recorder);
        let sink: Arc<dyn TraceSink> = concrete;
        let (wall, stages, metrics) = run(Some(sink), i);
        traced_ms.push(wall);
        assert_eq!(
            stages.result.pair_set(),
            reference.result.pair_set(),
            "tracing must not change the output"
        );
        last = Some((recorder, metrics));
    }
    let (recorder, metrics) = last.expect("RUNS > 0");

    // Event counts vs workflow gauges: emitted at the increment sites,
    // so they can never disagree.
    assert_eq!(recorder.count("attempt_failed"), metrics.task_failures());
    assert_eq!(recorder.count("attempt_retried"), metrics.tasks_retried());
    assert_eq!(
        recorder.count("spill_run_sealed"),
        metrics.spilled_runs(),
        "every sealed spill run must be traced"
    );
    assert_eq!(
        recorder.count("stage_finished"),
        metrics.num_stages() as u64
    );
    let logical = recorder.logical_events();
    assert!(!logical.is_empty(), "a traced run must record events");

    let report = TraceReport::from_events(&recorder.events());
    println!("{}", report.to_text());

    let u_med = median_ms(&untraced_ms);
    let t_med = median_ms(&traced_ms);
    println!("runs per mode:        {RUNS}  (m = 8, r = 16, parallelism = {PARALLELISM})");
    println!("untraced median:      {u_med:.2} ms  (no sink: emit = one branch)");
    println!(
        "traced median:        {t_med:.2} ms  ({} events recorded)",
        recorder.len()
    );
    println!(
        "per-run delta:        {:+.2} ms ({:+.1}%)",
        t_med - u_med,
        (t_med - u_med) / u_med * 100.0
    );
    let verdict = if t_med <= u_med * 1.25 {
        "PASS in-memory tracing stays within the noise band"
    } else {
        "WARN tracing overhead above 25% — investigate emit sites"
    };
    println!("{verdict}");

    // Top-level numerics are the drift-guarded surface: wall medians
    // (wide band) plus the deterministic event counts (exact). The
    // full report nests below and is informational.
    let json = Json::obj([
        ("bench", Json::str("trace_report")),
        ("runs", Json::Num(RUNS as f64)),
        ("parallelism", Json::Num(PARALLELISM as f64)),
        (
            "untraced_ms",
            Json::Arr(untraced_ms.iter().map(|&v| Json::Num(v)).collect()),
        ),
        (
            "traced_ms",
            Json::Arr(traced_ms.iter().map(|&v| Json::Num(v)).collect()),
        ),
        ("untraced_median_ms", Json::Num(u_med)),
        ("traced_median_ms", Json::Num(t_med)),
        ("logical_events", Json::Num(logical.len() as f64)),
        (
            "attempt_finished",
            Json::Num(recorder.count("attempt_finished") as f64),
        ),
        (
            "spill_run_sealed",
            Json::Num(recorder.count("spill_run_sealed") as f64),
        ),
        (
            "stages_traced",
            Json::Num(recorder.count("stage_finished") as f64),
        ),
        ("report", report.to_json()),
    ]);
    write_bench_json("trace_report", &json).expect("bench json export");
}
