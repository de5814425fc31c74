//! Per-layer attribution, measured from outside the program: the
//! gauges an untraced `Outcome` already carries, the events a
//! `TraceRecorder` collected during one resolve, and timed calls into
//! single layers' public functions.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dedupe_mr::er_loadbalance::bdm_job::compute_bdm;
use dedupe_mr::er_loadbalance::compare::{MULTIPASS_SKIPPED, SAME_SOURCE_SKIPPED};
use dedupe_mr::er_sn::REPLICAS;
use dedupe_mr::mr_engine::counters::{MAP_OUTPUT_RECORDS, REDUCE_INPUT_RECORDS};
use dedupe_mr::mr_engine::metrics::JobMetrics;
use dedupe_mr::mr_engine::trace::{TraceEvent, TraceEventData};
use dedupe_mr::prelude::*;

use crate::stats::{median, SplitMix64};
use crate::workload::{Case, Workload, LSH_PARAMS, WINDOW};

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The layer split of one resolve.
#[derive(Debug, Clone)]
pub struct LayerSample {
    /// Resolve wall, call to return.
    pub wall_ms: f64,
    /// Σ map-task walls over every stage.
    pub map_ms: f64,
    /// Σ reduce-task walls over every stage.
    pub reduce_ms: f64,
    /// Σ coordinator shuffle walls over every stage.
    pub shuffle_ms: f64,
    /// Slowest reduce task of the matching stage.
    pub reduce_max_ms: f64,
    /// Σ enqueue→start waits of every task.
    pub queue_wait_ms: f64,
    /// Σ stage walls.
    pub stages_ms: f64,
    /// Wall of the planning stage (BDM job, signature job or SN sample
    /// job).
    pub plan_ms: f64,
    /// Planning-stage wall again, under its family's name
    /// (`plan.bdm_ms`, `lsh.signature_ms` or `sn.sample_ms`).
    pub family_stages: Vec<(&'static str, f64)>,
    /// Comparisons this resolve made.
    pub comparisons: u64,
    /// Every task's queue wait, as the trace recorded it (empty when
    /// untraced).
    pub queue_waits_ms: Vec<f64>,
}

impl LayerSample {
    /// Extracts the split from a resolve's outcome and its recorded
    /// events (none when untraced).
    pub fn new(wall: Duration, outcome: &Outcome, events: &[TraceEvent]) -> Self {
        let stages = &outcome.workflow.stages;
        let tasks = || {
            stages
                .iter()
                .flat_map(|s| s.map_tasks.iter().chain(&s.reduce_tasks))
        };
        let sum_walls = |f: fn(&JobMetrics) -> f64| stages.iter().map(f).sum::<f64>();
        let (plan, family_stages) = planning_stages(&outcome.details);
        Self {
            wall_ms: ms(wall),
            map_ms: sum_walls(|s| s.map_tasks.iter().map(|t| ms(t.wall)).sum()),
            reduce_ms: sum_walls(|s| s.reduce_tasks.iter().map(|t| ms(t.wall)).sum()),
            shuffle_ms: sum_walls(|s| ms(s.shuffle_wall)),
            reduce_max_ms: outcome
                .details
                .match_metrics()
                .map(|m| {
                    m.reduce_tasks
                        .iter()
                        .map(|t| ms(t.wall))
                        .fold(0.0, f64::max)
                })
                .unwrap_or(0.0),
            queue_wait_ms: tasks().map(|t| ms(t.queue_wait)).sum(),
            stages_ms: ms(outcome.workflow.stages_wall()),
            plan_ms: plan,
            family_stages,
            comparisons: outcome.total_comparisons(),
            queue_waits_ms: events
                .iter()
                .filter_map(|e| match &e.data {
                    TraceEventData::QueueWaited { wait, .. } => Some(ms(*wait)),
                    _ => None,
                })
                .collect(),
        }
    }

    /// Resolve wall minus Σ stage walls: facade and driver glue no
    /// stage accounts for.
    pub fn unattributed_ms(&self) -> f64 {
        self.wall_ms - self.stages_ms
    }
}

/// The planning stage's wall, and the same wall under the name of its
/// family (SN also reports its window and stitch jobs).
fn planning_stages(details: &ScenarioDetails) -> (f64, Vec<(&'static str, f64)>) {
    match details {
        ScenarioDetails::Blocked { bdm_metrics, .. } => {
            let plan = bdm_metrics.as_ref().map_or(0.0, |m| ms(m.wall));
            (plan, vec![("plan.bdm_ms", plan)])
        }
        ScenarioDetails::Lsh { bdm_metrics, .. } => {
            let plan = ms(bdm_metrics.wall);
            (plan, vec![("lsh.signature_ms", plan)])
        }
        ScenarioDetails::Sorted {
            sample_metrics,
            match_metrics,
            stitch_metrics,
            ..
        } => {
            let plan = ms(sample_metrics.wall);
            let mut stages = vec![
                ("sn.sample_ms", plan),
                ("sn.window_ms", ms(match_metrics.wall)),
            ];
            if let Some(stitch) = stitch_metrics {
                stages.push(("sn.stitch_ms", ms(stitch.wall)));
            }
            (plan, stages)
        }
        ScenarioDetails::MultiPass { .. } => (0.0, Vec::new()),
    }
}

/// Exact counts of one resolve of a case; they repeat on every resolve.
#[derive(Debug, Clone)]
pub struct CaseCounts {
    pub map_output_records: u64,
    pub reduce_input_records: u64,
    pub peak_resident_records: u64,
    pub spilled_runs: u64,
    pub task_failures: u64,
    pub tasks_retried: u64,
    pub stages: u64,
    pub comparisons: u64,
    pub gated_pairs: u64,
    /// `None` when no SN stage ran.
    pub replicas: Option<u64>,
    /// Max/mean comparisons per reduce task of the matching stage.
    pub reduce_imbalance: f64,
}

impl CaseCounts {
    /// Reads the counts from an outcome's gauges.
    pub fn new(outcome: &Outcome) -> Self {
        let w = &outcome.workflow;
        let is_sn = matches!(
            outcome.details,
            ScenarioDetails::Sorted { .. } | ScenarioDetails::MultiPass { .. }
        );
        Self {
            map_output_records: w.counters.get(MAP_OUTPUT_RECORDS),
            reduce_input_records: w.counters.get(REDUCE_INPUT_RECORDS),
            peak_resident_records: w.peak_resident_records(),
            spilled_runs: w.spilled_runs(),
            task_failures: w.task_failures(),
            tasks_retried: w.tasks_retried(),
            stages: w.num_stages() as u64,
            comparisons: outcome.total_comparisons(),
            gated_pairs: w.counters.get(MULTIPASS_SKIPPED) + w.counters.get(SAME_SOURCE_SKIPPED),
            replicas: is_sn.then(|| w.counters.get(REPLICAS)),
            reduce_imbalance: outcome
                .details
                .match_metrics()
                .map_or(1.0, |m| m.reduce_imbalance(COMPARISONS)),
        }
    }
}

/// Times `work` until it has run at least `reps` times and for at
/// least `budget`, returning the median time per call.
fn time_calls(reps: usize, budget: Duration, mut work: impl FnMut()) -> Duration {
    let started = Instant::now();
    let mut times = Vec::new();
    while times.len() < reps || started.elapsed() < budget {
        let t = Instant::now();
        work();
        times.push(t.elapsed().as_secs_f64());
    }
    Duration::from_secs_f64(median(&times).expect("at least one call"))
}

const PROBE_REPS: usize = 5;
const PROBE_BUDGET: Duration = Duration::from_millis(150);
/// Pairs in the kernel probe's seeded sample.
const SAMPLE_PAIRS: usize = 4_000;

/// Timings of single layers' public functions on the workload's own
/// data.
#[derive(Debug, Clone)]
pub struct Probes {
    pub kernel_ns_per_pair: f64,
    pub prepare_ns_per_entity: f64,
    pub blocking_ns_per_entity: f64,
    pub sortkey_ns_per_entity: f64,
    pub signature_ns_per_entity: f64,
    pub bdm_call_ms: f64,
}

impl Probes {
    /// Runs every probe on the first case of `workload` with the
    /// configs `resolver` compiles.
    pub fn run(
        workload: &Workload,
        resolver: &Resolver<'_>,
        parallelism: usize,
        seed: u64,
    ) -> Self {
        let case = &workload.cases[0];
        let entities = &case.entities;
        let er = resolver.er_config(StrategyKind::BlockSplit);
        let sn = resolver.sn_config(SnStrategy::JobSn);
        let lsh = resolver
            .lsh_config(Some(LSH_PARAMS))
            .blocking_for(LSH_PARAMS);
        let per_entity = |f: &dyn Fn(&Entity)| {
            let t = time_calls(PROBE_REPS, PROBE_BUDGET, || {
                entities.iter().for_each(|e| f(black_box(e)))
            });
            t.as_secs_f64() * 1e9 / entities.len() as f64
        };
        let blocking_ns_per_entity = per_entity(&|e| {
            black_box(er.blocking.keys(e));
        });
        let sortkey_ns_per_entity = per_entity(&|e| {
            black_box(sn.sort_key.sort_key(e));
        });
        let signature_ns_per_entity = per_entity(&|e| {
            black_box(lsh.signature(e).map(|sig| lsh.band_keys_of(&sig)));
        });

        let (sample, pairs) = sample_compared_pairs(case, resolver, seed);
        let matcher = Arc::clone(&er.matcher);
        let prepare = time_calls(PROBE_REPS, PROBE_BUDGET, || {
            for e in &sample {
                black_box(matcher.prepare(black_box(e)));
            }
        });
        let prepared: Vec<_> = sample.iter().map(|e| matcher.prepare(e)).collect();
        let kernel = time_calls(PROBE_REPS, PROBE_BUDGET, || {
            for &(a, b) in &pairs {
                black_box(
                    matcher.matches_prepared(black_box(&prepared[a]), black_box(&prepared[b])),
                );
            }
        });

        let bdm_call = time_calls(3, Duration::ZERO, || {
            let bdm = compute_bdm(
                case.input.clone(),
                Arc::clone(&er.blocking),
                workload.reduce_tasks,
                parallelism,
                er.use_combiner,
            )
            .expect("standalone BDM job");
            black_box(bdm);
        });
        Self {
            kernel_ns_per_pair: kernel.as_secs_f64() * 1e9 / pairs.len().max(1) as f64,
            prepare_ns_per_entity: prepare.as_secs_f64() * 1e9 / sample.len().max(1) as f64,
            blocking_ns_per_entity,
            sortkey_ns_per_entity,
            signature_ns_per_entity,
            bdm_call_ms: ms(bdm_call),
        }
    }
}

/// A seeded sample of pairs the case's blocking family compares
/// (pairs within the sort window, or sharing a band bucket or a
/// blocking key): returns the sampled entities and pairs of indices
/// into them.
fn sample_compared_pairs(
    case: &Case,
    resolver: &Resolver<'_>,
    seed: u64,
) -> (Vec<Ent>, Vec<(usize, usize)>) {
    let mut rng = SplitMix64::new(seed, 0x4B45_524E);
    let entities = &case.entities;
    let candidates: Vec<(usize, usize)> = match &case.scenario {
        Scenario::SortedNeighborhood { .. } | Scenario::TwoSourceSn { .. } => {
            let sort_key = &resolver.sn_config(SnStrategy::JobSn).sort_key;
            let mut order: Vec<(SortKey, usize)> = entities
                .iter()
                .enumerate()
                .filter_map(|(i, e)| sort_key.sort_key(e).map(|k| (k, i)))
                .collect();
            order.sort();
            (0..SAMPLE_PAIRS)
                .filter_map(|_| {
                    let j = rng.below(order.len() as u64) as usize;
                    let back = 1 + rng.below(WINDOW as u64 - 1) as usize;
                    j.checked_sub(back).map(|i| (order[i].1, order[j].1))
                })
                .collect()
        }
        scenario => {
            let blocking: Arc<dyn BlockingFunction> = if let Scenario::Lsh { .. } = scenario {
                Arc::new(
                    resolver
                        .lsh_config(Some(LSH_PARAMS))
                        .blocking_for(LSH_PARAMS),
                )
            } else {
                resolver.er_config(StrategyKind::BlockSplit).blocking
            };
            let mut blocks: BTreeMap<BlockKey, Vec<usize>> = BTreeMap::new();
            for (i, e) in entities.iter().enumerate() {
                for key in blocking.keys(e) {
                    blocks.entry(key).or_default().push(i);
                }
            }
            // Pick a block with probability ∝ its pairs, then a pair.
            let blocks: Vec<Vec<usize>> = blocks.into_values().filter(|b| b.len() > 1).collect();
            let mut cumulative = Vec::with_capacity(blocks.len());
            let mut total = 0u64;
            for b in &blocks {
                total += (b.len() * (b.len() - 1) / 2) as u64;
                cumulative.push(total);
            }
            (0..if total == 0 { 0 } else { SAMPLE_PAIRS })
                .map(|_| {
                    let pick = rng.below(total);
                    let block = &blocks[cumulative.partition_point(|&c| c <= pick)];
                    let a = rng.below(block.len() as u64) as usize;
                    let b = (a + 1 + rng.below(block.len() as u64 - 1) as usize) % block.len();
                    (block[a], block[b])
                })
                .collect()
        }
    };
    // Re-index onto the distinct entities the pairs touch.
    let mut index: BTreeMap<usize, usize> = BTreeMap::new();
    let mut sample = Vec::new();
    let mut slot = |i: usize| {
        *index.entry(i).or_insert_with(|| {
            sample.push(Arc::clone(&entities[i]));
            sample.len() - 1
        })
    };
    let pairs = candidates
        .into_iter()
        .map(|(a, b)| (slot(a), slot(b)))
        .collect();
    (sample, pairs)
}
