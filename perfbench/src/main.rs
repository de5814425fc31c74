//! Resolve-level benchmark of `dedupe-mr` with per-layer attribution.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One run generates the workload's input from the seed, computes the
//! brute-force reference of every scenario in it, then measures:
//!
//! * `--trace 0`: set-up time (runtime creation through the warm-up
//!   resolves, several times, median) and a closed loop of untraced
//!   resolves for `--seconds`; prints the end-to-end metrics.
//! * `--trace 1`: set-up once, a closed loop for `--seconds` in which
//!   every second request is traced, then timed calls into single
//!   layers; prints the per-layer metrics, the tracing overhead, and
//!   whether the attributed layers sum to the resolve wall within the
//!   stated tolerance.
//!
//! Every resolve is checked against its reference (pairs and score
//! bits). The last line of standard output is one JSON object:
//! `correct`, `attempted`, `failed`, `metrics`. The exit code is
//! non-zero when any resolve failed or differed.

mod corpus;
mod layers;
mod report;
mod run;
mod stats;
mod workload;

use std::process::ExitCode;
use std::time::Instant;

use dedupe_mr::mr_engine::json::Json;

use crate::layers::{CaseCounts, LayerSample, Probes};
use crate::report::{result_line, Machine, Metrics, END_TO_END, PER_LAYER};
use crate::run::{matches_reference, set_up, timed_phase, Phase, Record};
use crate::stats::{mean_of_medians, median, percentile, LayerSum};
use crate::workload::Workload;

/// Set-ups per untraced run: at least `SETUP_MIN_REPS`, repeated until
/// `SETUP_BUDGET_S` has passed (at most `SETUP_MAX_REPS`); `setup_s`
/// is their median.
const SETUP_MIN_REPS: usize = 3;
const SETUP_MAX_REPS: usize = 50;
const SETUP_BUDGET_S: f64 = 1.5;
/// Shortest run whose tail percentile is reported: p90 needs ten
/// samples beyond it.
const P90_MIN_SAMPLES: usize = 100;
/// Share of the resolve wall the attributed layers must sum within.
const LAYER_SUM_TOLERANCE: f64 = 0.05;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds.is_finite()) {
        return Err(format!("--seconds must be positive, got {}", args.seconds));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!(
                "{err}\nusage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                workload::NAMES.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let generated = Instant::now();
    let Some(mut workload) = Workload::build(&args.workload, args.seed, nproc) else {
        eprintln!(
            "unknown workload {:?}; one of {}",
            args.workload,
            workload::NAMES.join(", ")
        );
        return ExitCode::from(2);
    };
    let generate_s = generated.elapsed().as_secs_f64();
    let machine = Machine::detect(nproc, workload.clients, workload.parallel);

    println!(
        "workload {} seed {} trace {} | {} entities in {} case(s), {} client(s)",
        workload.name,
        args.seed,
        u8::from(args.trace),
        workload.entities_per_cycle(),
        workload.cases.len(),
        workload.clients
    );
    println!(
        "machine: {} cores available, pool {}, {} build, rev {}, {}",
        machine.available_parallelism,
        machine.pool_parallelism,
        machine.profile,
        machine.git_revision,
        machine.rustc
    );

    let Measured {
        mut metrics,
        warm_ups,
        timed,
        layer_sum,
    } = if args.trace {
        measure_layers(&workload, &machine, &args)
    } else {
        measure_end_to_end(&workload, &machine, &args)
    };

    // The references are computed once, outside set-up and every timed
    // phase, and after them, so their memory never counts in
    // `peak_rss_mb`.
    let referenced = Instant::now();
    {
        let runtime = dedupe_mr::Runtime::new(workload.runtime_config(1));
        workload.compute_references(&workload.resolver(&runtime));
    }
    let reference_s = referenced.elapsed().as_secs_f64();
    println!("untimed: corpus generation {generate_s:.3} s, references {reference_s:.3} s");

    let warmup_ok = warm_ups.iter().all(|r| matches_reference(&workload, r));
    let attempted = timed.len();
    let failed = timed
        .iter()
        .filter(|r| !matches_reference(&workload, r))
        .count();
    let correct = failed == 0 && warmup_ok;
    if !args.trace {
        // Each scenario of the workload weighs the same.
        let mean = |f: fn(&(f64, f64)) -> f64| {
            workload.cases.iter().map(|c| f(&c.quality)).sum::<f64>() / workload.cases.len() as f64
        };
        metrics.set("failed_frac", failed as f64 / attempted as f64, "ratio");
        metrics.set("recall", mean(|q| q.0), "ratio");
        metrics.set("precision", mean(|q| q.1), "ratio");
    }

    println!("metrics:");
    for (name, value, unit) in metrics.iter() {
        println!("  {name:<30} {value:>16.6} {unit}");
    }
    if let Some(sum) = &layer_sum {
        println!(
            "layer sum (mean traced resolve): wall {:.3} ms = planning + engine stages {:.3} ms + unattributed {:.3} ms ({:+.2}%); tolerance ±{:.0}%: {}",
            sum.wall_ms,
            sum.parts_ms,
            sum.gap_ms,
            sum.gap_frac * 100.0,
            LAYER_SUM_TOLERANCE * 100.0,
            if sum.within(LAYER_SUM_TOLERANCE) {
                "within".to_string()
            } else {
                "EXCEEDED: a layer is unattributed".to_string()
            }
        );
    }
    println!(
        "resolves: {attempted} attempted, {failed} failed, warm-up {}",
        if warmup_ok { "ok" } else { "FAILED" }
    );

    let export = Json::obj([
        ("workload", Json::str(workload.name)),
        ("seed", Json::Num(args.seed as f64)),
        ("trace", Json::Bool(args.trace)),
        ("seconds", Json::Num(args.seconds)),
        ("machine", machine.to_json()),
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        (
            "metrics",
            metrics.to_json(None).expect("every metric renders"),
        ),
    ]);
    println!("export {export}");

    let names: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
    match result_line(correct, attempted, failed, &metrics, names) {
        Ok(line) => println!("{line}"),
        Err(err) => {
            eprintln!("{err}");
            return ExitCode::FAILURE;
        }
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

struct Measured {
    metrics: Metrics,
    /// Warm-up resolves of every set-up; checked, not counted.
    warm_ups: Vec<Record>,
    /// Resolves of the timed phases: the attempted ones.
    timed: Vec<Record>,
    layer_sum: Option<LayerSum>,
}

fn walls_ms<'a>(records: impl IntoIterator<Item = &'a Record>) -> Vec<f64> {
    records
        .into_iter()
        .map(|r| r.wall.as_secs_f64() * 1e3)
        .collect()
}

/// The median resolve wall of each case, averaged over the cases: every
/// scenario of a mixed workload weighs the same, and the figure does not
/// jump between scenarios as a pooled median of their walls would.
fn case_p50_ms<'a>(
    workload: &Workload,
    records: impl IntoIterator<Item = &'a Record>,
) -> Option<f64> {
    let mut per_case = vec![Vec::new(); workload.cases.len()];
    for r in records {
        per_case[r.case].push(r.wall.as_secs_f64() * 1e3);
    }
    mean_of_medians(&per_case)
}

fn measure_end_to_end(workload: &Workload, machine: &Machine, args: &Args) -> Measured {
    let mut setups = Vec::new();
    let mut warm_ups = Vec::new();
    let mut runtime = None;
    let started = Instant::now();
    while setups.len() < SETUP_MIN_REPS
        || (setups.len() < SETUP_MAX_REPS && started.elapsed().as_secs_f64() < SETUP_BUDGET_S)
    {
        // Drop the previous runtime first so set-ups never overlap.
        drop(runtime.take());
        let (rt, elapsed, resolves) = set_up(workload, machine.pool_parallelism);
        setups.push(elapsed.as_secs_f64());
        warm_ups.extend(resolves);
        runtime = Some(rt);
    }
    let runtime = runtime.expect("at least one set-up");
    let resolver = workload.resolver(&runtime);
    let Phase {
        records,
        wall,
        peak_rss_mb,
    } = timed_phase(workload, &resolver, args.seconds, args.seed, false);

    let walls = walls_ms(&records);
    let entities: usize = records
        .iter()
        .map(|r| workload.cases[r.case].entities.len())
        .sum();
    let mut m = Metrics::default();
    m.set("setup_s", median(&setups).expect("set-ups ran"), "s");
    m.set(
        "resolve_p50_ms",
        case_p50_ms(workload, &records).expect("resolves ran"),
        "ms",
    );
    m.set_opt(
        "resolve_p90_ms",
        (walls.len() >= P90_MIN_SAMPLES).then(|| percentile(&walls, 0.9).expect("resolves ran")),
        "ms",
    );
    m.set(
        "entities_per_s",
        entities as f64 / wall.as_secs_f64(),
        "1/s",
    );
    m.set("peak_rss_mb", peak_rss_mb, "MB");
    m.set("resolves", records.len() as f64, "count");
    Measured {
        metrics: m,
        warm_ups,
        timed: records,
        layer_sum: None,
    }
}

fn measure_layers(workload: &Workload, machine: &Machine, args: &Args) -> Measured {
    let parallelism = machine.pool_parallelism;
    let (runtime, _, warm_ups) = set_up(workload, parallelism);
    let resolver = workload.resolver(&runtime);
    let phase = timed_phase(workload, &resolver, args.seconds, args.seed, true);
    let probes = Probes::run(workload, &resolver, parallelism, args.seed);

    let (traced, untraced): (Vec<&Record>, Vec<&Record>) =
        phase.records.iter().partition(|r| r.traced);
    let samples: Vec<&(LayerSample, CaseCounts)> =
        traced.iter().filter_map(|r| r.layers.as_ref()).collect();
    let med = |f: &dyn Fn(&LayerSample) -> f64| {
        median(&samples.iter().map(|(l, _)| f(l)).collect::<Vec<_>>())
    };
    // Exact counts: one resolve of every case (they repeat exactly).
    let per_case: Vec<&CaseCounts> = (0..workload.cases.len())
        .filter_map(|i| {
            let record = phase
                .records
                .iter()
                .find(|r| r.case == i && r.layers.is_some());
            record.and_then(|r| r.layers.as_ref()).map(|(_, c)| c)
        })
        .collect();
    let every_case = per_case.len() == workload.cases.len();
    let total = |f: &dyn Fn(&CaseCounts) -> u64| per_case.iter().map(|c| f(c)).sum::<u64>() as f64;
    let all_counts = || {
        phase
            .records
            .iter()
            .filter_map(|r| r.layers.as_ref())
            .map(|(_, c)| c)
    };

    let mut m = Metrics::default();
    m.set_opt("engine.map_ms", med(&|l| l.map_ms), "ms");
    m.set_opt("engine.reduce_ms", med(&|l| l.reduce_ms), "ms");
    m.set_opt("engine.shuffle_ms", med(&|l| l.shuffle_ms), "ms");
    m.set_opt("engine.reduce_max_ms", med(&|l| l.reduce_max_ms), "ms");
    if every_case {
        m.set(
            "engine.map_output_records",
            total(&|c| c.map_output_records),
            "count",
        );
        m.set(
            "engine.reduce_input_records",
            total(&|c| c.reduce_input_records),
            "count",
        );
        let peak = per_case
            .iter()
            .map(|c| c.peak_resident_records)
            .max()
            .unwrap_or(0);
        m.set("engine.peak_resident_records", peak as f64, "count");
        m.set("engine.spilled_runs", total(&|c| c.spilled_runs), "count");
    }
    m.set(
        "engine.task_failures",
        all_counts().map(|c| c.task_failures).sum::<u64>() as f64,
        "count",
    );
    m.set(
        "engine.tasks_retried",
        all_counts().map(|c| c.tasks_retried).sum::<u64>() as f64,
        "count",
    );

    m.set_opt("pool.queue_wait_ms", med(&|l| l.queue_wait_ms), "ms");
    let waits: Vec<f64> = samples
        .iter()
        .flat_map(|(l, _)| l.queue_waits_ms.iter().copied())
        .collect();
    m.set_opt("pool.queue_wait_p95_ms", percentile(&waits, 0.95), "ms");
    // Task time of every resolve over the cores' time in the phase.
    let busy_ms: f64 = phase
        .records
        .iter()
        .filter_map(|r| r.layers.as_ref())
        .map(|(l, _)| l.map_ms + l.reduce_ms)
        .sum();
    let capacity_ms = machine.available_parallelism as f64 * phase.wall.as_secs_f64() * 1e3;
    m.set("pool.utilization", busy_ms / capacity_ms, "ratio");

    m.set_opt(
        "resolver.unattributed_ms",
        med(&|l| l.unattributed_ms()),
        "ms",
    );
    if every_case {
        m.set("resolver.stages", total(&|c| c.stages), "count");
    }
    m.set_opt("plan.stage_ms", med(&|l| l.plan_ms), "ms");
    m.set("plan.bdm_call_ms", probes.bdm_call_ms, "ms");
    for name in [
        "plan.bdm_ms",
        "lsh.signature_ms",
        "sn.sample_ms",
        "sn.window_ms",
        "sn.stitch_ms",
    ] {
        let walls: Vec<f64> = samples
            .iter()
            .filter_map(|(l, _)| {
                l.family_stages
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map(|(_, v)| *v)
            })
            .collect();
        m.set_opt(name, median(&walls), "ms");
    }
    let replicas: Vec<u64> = per_case.iter().filter_map(|c| c.replicas).collect();
    m.set_opt(
        "sn.replicas",
        (!replicas.is_empty()).then(|| replicas.iter().sum::<u64>() as f64),
        "count",
    );

    if every_case {
        let comparisons = total(&|c| c.comparisons);
        let gated = total(&|c| c.gated_pairs);
        m.set("balance.comparisons", comparisons, "count");
        let imbalance =
            per_case.iter().map(|c| c.reduce_imbalance).sum::<f64>() / per_case.len() as f64;
        m.set("balance.reduce_imbalance", imbalance, "ratio");
        m.set("balance.gated_pairs", gated, "count");
        if comparisons + gated > 0.0 {
            m.set(
                "balance.compare_yield",
                comparisons / (comparisons + gated),
                "ratio",
            );
        }
    }

    m.set("kernel.ns_per_pair", probes.kernel_ns_per_pair, "ns");
    m.set(
        "kernel.prepare_ns_per_entity",
        probes.prepare_ns_per_entity,
        "ns",
    );
    m.set_opt(
        "kernel.est_share",
        med(&|l| {
            probes.kernel_ns_per_pair * l.comparisons as f64
                / (l.reduce_ms * 1e6).max(f64::MIN_POSITIVE)
        }),
        "ratio",
    );
    m.set(
        "blocking.ns_per_entity",
        probes.blocking_ns_per_entity,
        "ns",
    );
    m.set("sortkey.ns_per_entity", probes.sortkey_ns_per_entity, "ns");
    m.set(
        "lsh.signature_ns_per_entity",
        probes.signature_ns_per_entity,
        "ns",
    );

    let p50 = |records: &[&Record]| case_p50_ms(workload, records.iter().copied());
    if let (Some(traced_p50), Some(untraced_p50)) = (p50(&traced), p50(&untraced)) {
        m.set(
            "trace.overhead_frac",
            traced_p50 / untraced_p50 - 1.0,
            "ratio",
        );
    }

    // Layer sum of the mean traced resolve: planning stage + the
    // engine's other stages + what no stage accounts for. Means, not
    // medians, so the parts add up to the whole.
    let layer_sum = (!samples.is_empty()).then(|| {
        let mean = |f: &dyn Fn(&LayerSample) -> f64| {
            samples.iter().map(|(l, _)| f(l)).sum::<f64>() / samples.len() as f64
        };
        let sum = LayerSum::new(
            mean(&|l| l.wall_ms),
            &[mean(&|l| l.plan_ms), mean(&|l| l.stages_ms - l.plan_ms)],
        );
        m.set("layers.gap_frac", sum.gap_frac, "ratio");
        sum
    });
    m.set("resolves.untraced", untraced.len() as f64, "count");
    m.set("resolves.traced", traced.len() as f64, "count");

    Measured {
        metrics: m,
        warm_ups,
        timed: phase.records,
        layer_sum,
    }
}
