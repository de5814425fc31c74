//! The four workloads: what each resolves, on which generated input,
//! under which session knobs, and the brute-force reference every
//! resolve is checked against.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use dedupe_mr::er_loadbalance::driver::naive_reference;
use dedupe_mr::prelude::*;

use crate::corpus::{self, Corpus};

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = ["dedup_ds1", "lsh_skew1", "sn_ds1", "mixed_tenants"];

/// The banding of the LSH workload.
pub const LSH_PARAMS: LshParams = LshParams { bands: 16, rows: 2 };

/// The Sorted Neighborhood window of every workload.
pub const WINDOW: usize = 8;

/// One scenario on one input, with its reference result.
pub struct Case {
    pub label: &'static str,
    pub scenario: Scenario,
    pub input: Partitions<(), Ent>,
    pub entities: Vec<Ent>,
    pub gold: GoldStandard,
    /// Fingerprint of the reference result, filled by
    /// [`Workload::compute_references`].
    pub reference: Option<u64>,
    /// Recall and precision of the reference against `gold`.
    pub quality: (f64, f64),
}

impl Case {
    fn new(
        label: &'static str,
        scenario: Scenario,
        input: Partitions<(), Ent>,
        gold: GoldStandard,
    ) -> Self {
        let entities = input.iter().flatten().map(|(_, e)| Arc::clone(e)).collect();
        Self {
            label,
            scenario,
            input,
            entities,
            gold,
            reference: None,
            quality: (0.0, 0.0),
        }
    }
}

/// A named workload: its cases, client count and session knobs.
pub struct Workload {
    pub name: &'static str,
    pub cases: Vec<Case>,
    /// Closed-loop client threads (each waits for its reply).
    pub clients: usize,
    /// Whether the pool gets the cores (each client's share) or a
    /// single slot, which runs every task on the client's own thread.
    pub parallel: bool,
    pub reduce_tasks: usize,
}

/// A 64-bit fingerprint of a result: every pair, in order, with the
/// exact bits of its score. Equal results have equal fingerprints;
/// results differing in any pair or score bit collide with
/// probability 2⁻⁶⁴.
pub fn fingerprint(result: &MatchResult) -> u64 {
    let mut hasher = DefaultHasher::new();
    for (pair, score) in result.iter() {
        (pair, score.to_bits()).hash(&mut hasher);
    }
    result.len().hash(&mut hasher);
    hasher.finish()
}

fn one_source(entities: &[Ent], partitions: usize) -> Partitions<(), Ent> {
    partition_evenly(
        entities.iter().map(|e| ((), Arc::clone(e))).collect(),
        partitions,
    )
}

impl Workload {
    /// Generates the named workload from `seed`. `nproc` caps the
    /// client threads. `None` for an unknown name.
    pub fn build(name: &str, seed: u64, nproc: usize) -> Option<Self> {
        let workload = match name {
            "dedup_ds1" => {
                let Corpus { entities, gold } = corpus::ds1(seed, 0.25);
                Self {
                    name: "dedup_ds1",
                    cases: vec![Case::new(
                        "dedup-blocksplit",
                        Scenario::Dedup {
                            strategy: StrategyKind::BlockSplit,
                        },
                        one_source(&entities, 8),
                        gold,
                    )],
                    clients: 1,
                    parallel: true,
                    reduce_tasks: 16,
                }
            }
            "lsh_skew1" => {
                let Corpus { entities, gold } = corpus::skewed_duplicates(6_000, 24, 1.0, 6, seed);
                Self {
                    name: "lsh_skew1",
                    cases: vec![Case::new(
                        "lsh-16x2",
                        Scenario::lsh(LSH_PARAMS),
                        one_source(&entities, 8),
                        gold,
                    )],
                    clients: 1,
                    parallel: true,
                    reduce_tasks: 16,
                }
            }
            "sn_ds1" => {
                let Corpus { entities, gold } = corpus::ds1(seed, 0.25);
                Self {
                    name: "sn_ds1",
                    cases: vec![Case::new(
                        "sn-jobsn",
                        Scenario::sorted_neighborhood(SnStrategy::JobSn),
                        one_source(&entities, 8),
                        gold,
                    )],
                    clients: 1,
                    // The data plane's cost, not its scheduling: JobSN's
                    // sampled ranges are balanced by construction, so on
                    // a pool of worker threads only the wake-ups and
                    // stragglers of its short stages would add to the
                    // wall, and they follow the host rather than the
                    // program.
                    parallel: false,
                    reduce_tasks: 16,
                }
            }
            "mixed_tenants" => {
                let corpus = corpus::ds1(seed, 0.02);
                let (r, s, cross_gold) = corpus::split_sources(&corpus, seed);
                let (two_source, sources) = two_source_input(r, s, 2);
                let single = one_source(&corpus.entities, 4);
                let linkage = |label, scenario| {
                    Case::new(label, scenario, two_source.clone(), cross_gold.clone())
                };
                let cases = vec![
                    Case::new(
                        "dedup-pairrange",
                        Scenario::Dedup {
                            strategy: StrategyKind::PairRange,
                        },
                        single.clone(),
                        corpus.gold.clone(),
                    ),
                    linkage(
                        "linkage-blocksplit",
                        Scenario::Linkage {
                            strategy: StrategyKind::BlockSplit,
                            sources: sources.clone(),
                        },
                    ),
                    linkage(
                        "linkage-pairrange",
                        Scenario::Linkage {
                            strategy: StrategyKind::PairRange,
                            sources: sources.clone(),
                        },
                    ),
                    Case::new(
                        "sn-repsn",
                        Scenario::sorted_neighborhood(SnStrategy::RepSn),
                        single,
                        corpus.gold.clone(),
                    ),
                    linkage(
                        "two-source-sn-jobsn",
                        Scenario::TwoSourceSn {
                            strategy: SnStrategy::JobSn,
                            sources,
                        },
                    ),
                ];
                Self {
                    name: "mixed_tenants",
                    cases,
                    clients: 2.min(nproc),
                    parallel: true,
                    reduce_tasks: 8,
                }
            }
            _ => return None,
        };
        Some(workload)
    }

    /// The runtime knobs: `parallelism` pool slots, the workload's
    /// reduce-task count.
    pub fn runtime_config(&self, parallelism: usize) -> RuntimeConfig {
        RuntimeConfig::new()
            .with_parallelism(parallelism)
            .with_reduce_tasks(self.reduce_tasks)
    }

    /// A resolver session on `runtime` with the workload's knobs.
    pub fn resolver<'rt>(&self, runtime: &'rt Runtime) -> Resolver<'rt> {
        Resolver::new(runtime).with_window(WINDOW)
    }

    /// Entities resolved by one pass over every case (one resolve of
    /// each).
    pub fn entities_per_cycle(&self) -> usize {
        self.cases.iter().map(|c| c.entities.len()).sum()
    }

    /// Computes every case's brute-force reference under the exact
    /// configs `resolver` compiles, and its quality against the gold
    /// standard. Runs after the timed phases, so the reference's
    /// memory never inflates the measured resident set.
    pub fn compute_references(&mut self, resolver: &Resolver<'_>) {
        for case in &mut self.cases {
            let reference = reference(resolver, case);
            let quality = QualityReport::evaluate(&reference, &case.gold);
            case.quality = (quality.recall(), quality.precision());
            case.reference = Some(fingerprint(&reference));
        }
    }
}

/// The brute-force oracle of one case.
fn reference(resolver: &Resolver<'_>, case: &Case) -> MatchResult {
    match &case.scenario {
        Scenario::Dedup { strategy } => {
            naive_reference(&case.entities, &resolver.er_config(*strategy))
        }
        Scenario::Linkage { strategy, .. } => {
            // Linkage compares the cross-source pairs of shared blocks:
            // the one-source reference restricted to those pairs.
            let all = naive_reference(&case.entities, &resolver.er_config(*strategy));
            let mut cross = MatchResult::new();
            for (pair, score) in all.iter() {
                if pair.lo().source != pair.hi().source {
                    cross.insert(pair, score);
                }
            }
            cross
        }
        Scenario::SortedNeighborhood { strategy, passes } if passes.is_empty() => {
            sn_oracle(&case.input, &resolver.sn_config(*strategy))
        }
        Scenario::TwoSourceSn { strategy, .. } => {
            two_source_sn_oracle(&case.input, &resolver.sn_config(*strategy))
        }
        Scenario::Lsh {
            params: Some(params),
            sources: None,
        } => lsh_oracle(
            &case.entities,
            &resolver.lsh_config(Some(*params)),
            *params,
            false,
        ),
        other => panic!("no reference for scenario {other}"),
    }
}
