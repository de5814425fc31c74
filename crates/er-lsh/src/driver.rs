//! The adaptive LSH workflow: signature/BDM rounds over a
//! `(bands, rows)` ladder, then one load-balanced candidate job.
//!
//! Each round runs only the *signature job* — the BDM job under
//! [`LshBlocking`] — which is cheap (linear in the input) and yields
//! the exact enumerated candidate workload of that rung's banded key
//! space: `Σ_buckets C(|bucket|, 2)` for dedup,
//! `Σ_buckets |R| · |S|` for linkage. The first rung whose workload
//! fits the candidate budget is accepted (every rung also reports the
//! banding S-curve estimate of its recall at the target similarity);
//! with no budget the widest rung wins immediately, and if no rung
//! fits, the tightest runs as best effort. Only the accepted rung
//! pays for the matching job.
//!
//! The candidate job is the paper's load-balanced matching job over
//! the accepted BDM: BlockSplit splits oversized band buckets into
//! balanced sub-tasks, PairRange ranges over the global pair
//! enumeration, Basic hashes bucket keys. In every case the comparers'
//! smallest-common-block gate makes cross-band dedup exact — a pair
//! sharing several buckets is evaluated in its smallest shared band
//! key only.

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::sync::Arc;

use er_core::result::MatchPair;
use er_core::{check_source_tags, MatchResult, Matcher, MatcherCache, SourceId};
use er_loadbalance::bdm_job::compute_bdm_named_in;
use er_loadbalance::block_split::SplitPolicy;
use er_loadbalance::driver::{run_match_stage, MatchInput};
use er_loadbalance::{
    BlockDistributionMatrix, Ent, ErConfig, PairSpace, RangePolicy, StrategyKind,
};
use mr_engine::error::MrError;
use mr_engine::fault::{FaultPlan, FaultPolicy};
use mr_engine::input::Partitions;
use mr_engine::metrics::JobMetrics;
use mr_engine::runtime::RuntimeConfig;
use mr_engine::workflow::{StageGraph, Workflow, WorkflowMetrics};

use crate::{LshBlocking, LshParams, DEFAULT_LSH_SEED};

use er_core::minhash::ShingleScheme;

/// Configuration of one LSH run — the adaptive ladder, the shingle
/// and seed choices, and the balancing strategy applied to the banded
/// key space. Shared execution knobs live in the embedded
/// [`RuntimeConfig`], mirroring `ErConfig`/`SnConfig`.
#[derive(Clone)]
pub struct LshConfig {
    /// Attribute signatures are computed over.
    pub attribute: String,
    /// Shingle scheme (default: character trigrams).
    pub scheme: ShingleScheme,
    /// MinHash family seed.
    pub seed: u64,
    /// The adaptive ladder, widest (most bands / highest recall /
    /// most candidates) first. A fixed-parameter run is a one-rung
    /// ladder.
    pub ladder: Vec<LshParams>,
    /// Accept the first rung whose enumerated candidate workload is
    /// at most this (`None`: the widest rung is accepted
    /// immediately).
    pub candidate_budget: Option<u64>,
    /// Estimated-recall floor each round is scored against (at
    /// [`LshConfig::target_similarity`]); rounds below it are
    /// flagged in their [`LshRound`].
    pub recall_floor: f64,
    /// The Jaccard similarity the recall estimate is evaluated at —
    /// the collision probability of a pair right at the match
    /// boundary.
    pub target_similarity: f64,
    /// How the candidate job balances the banded key space.
    pub balance: StrategyKind,
    /// Range formula for `balance = PairRange`.
    pub range_policy: RangePolicy,
    /// BlockSplit splitting policy for oversized band buckets.
    pub split_policy: SplitPolicy,
    /// Pre-aggregate signature-job counts per map task.
    pub use_combiner: bool,
    /// Match rule candidates are evaluated under.
    pub matcher: Arc<Matcher>,
    /// Shared execution knobs: reduce tasks, worker threads,
    /// count-only mode, cache bound, spill threshold, fault policy.
    pub runtime: RuntimeConfig,
    /// Deterministic fault-injection schedule (empty = none).
    pub fault_plan: FaultPlan,
}

impl Default for LshConfig {
    fn default() -> Self {
        Self::new()
    }
}

impl LshConfig {
    /// The workspace default: trigrams of `title`, a 16×2 → 8×4 → 4×8
    /// ladder (constant 32-slot signature), no budget, BlockSplit
    /// balancing, the paper matcher.
    pub fn new() -> Self {
        Self {
            attribute: "title".to_string(),
            scheme: ShingleScheme::CharGrams(3),
            seed: DEFAULT_LSH_SEED,
            ladder: vec![
                LshParams::new(16, 2),
                LshParams::new(8, 4),
                LshParams::new(4, 8),
            ],
            candidate_budget: None,
            recall_floor: 0.8,
            target_similarity: 0.8,
            balance: StrategyKind::BlockSplit,
            range_policy: RangePolicy::CeilDiv,
            split_policy: SplitPolicy::paper(),
            use_combiner: true,
            matcher: Arc::new(Matcher::paper_default()),
            runtime: RuntimeConfig::default(),
            fault_plan: FaultPlan::new(),
        }
    }

    /// Fixes the banding to a one-rung ladder (no adaptation).
    pub fn with_params(mut self, params: LshParams) -> Self {
        self.ladder = vec![params];
        self
    }

    /// Replaces the adaptive ladder (widest rung first).
    ///
    /// # Panics
    /// If `ladder` is empty.
    pub fn with_ladder(mut self, ladder: Vec<LshParams>) -> Self {
        assert!(!ladder.is_empty(), "the ladder needs at least one rung");
        self.ladder = ladder;
        self
    }

    /// Sets the candidate budget the adaptive rounds tighten towards.
    pub fn with_candidate_budget(mut self, budget: Option<u64>) -> Self {
        self.candidate_budget = budget;
        self
    }

    /// Sets the estimated-recall floor rounds are scored against.
    pub fn with_recall_floor(mut self, floor: f64) -> Self {
        self.recall_floor = floor;
        self
    }

    /// Sets the similarity level the recall estimate is evaluated at.
    pub fn with_target_similarity(mut self, s: f64) -> Self {
        self.target_similarity = s;
        self
    }

    /// Overrides the shingle scheme.
    pub fn with_scheme(mut self, scheme: ShingleScheme) -> Self {
        self.scheme = scheme;
        self
    }

    /// Overrides the MinHash seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the signed attribute.
    pub fn with_attribute(mut self, attribute: impl Into<String>) -> Self {
        self.attribute = attribute.into();
        self
    }

    /// Overrides how the candidate job balances the banded key space.
    pub fn with_balance(mut self, balance: StrategyKind) -> Self {
        self.balance = balance;
        self
    }

    /// Overrides the PairRange range formula.
    pub fn with_range_policy(mut self, policy: RangePolicy) -> Self {
        self.range_policy = policy;
        self
    }

    /// Overrides the matcher.
    pub fn with_matcher(mut self, matcher: Arc<Matcher>) -> Self {
        self.matcher = matcher;
        self
    }

    /// Replaces the whole shared-knob block (e.g. with a `Runtime`'s
    /// configuration).
    pub fn with_runtime(mut self, runtime: RuntimeConfig) -> Self {
        self.runtime = runtime;
        self
    }

    /// Overrides the number of reduce tasks (both jobs).
    pub fn with_reduce_tasks(mut self, r: usize) -> Self {
        self.runtime.reduce_tasks = r;
        self
    }

    /// Overrides the worker-thread count.
    pub fn with_parallelism(mut self, p: usize) -> Self {
        self.runtime.parallelism = p;
        self
    }

    /// Switches comparison counting only (no similarity evaluation).
    pub fn with_count_only(mut self, count_only: bool) -> Self {
        self.runtime.count_only = count_only;
        self
    }

    /// Bounds the prepared-entity caches.
    pub fn with_matcher_cache_capacity(mut self, capacity: Option<usize>) -> Self {
        self.runtime = self.runtime.with_matcher_cache_capacity(capacity);
        self
    }

    /// Sets the map-side spill threshold.
    pub fn with_spill_threshold(mut self, threshold: Option<usize>) -> Self {
        self.runtime = self.runtime.with_spill_threshold(threshold);
        self
    }

    /// Replaces the per-task fault-tolerance policy.
    pub fn with_fault_policy(mut self, policy: FaultPolicy) -> Self {
        self.runtime = self.runtime.with_fault_policy(policy);
        self
    }

    /// Installs a deterministic fault-injection schedule.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = plan;
        self
    }

    /// The per-task fault-tolerance policy.
    pub fn fault_policy(&self) -> FaultPolicy {
        self.runtime.fault_policy
    }

    /// The deterministic fault-injection schedule (empty = none).
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.fault_plan
    }

    /// Number of reduce tasks `r` (both jobs).
    pub fn reduce_tasks(&self) -> usize {
        self.runtime.reduce_tasks
    }

    /// Local worker threads.
    pub fn parallelism(&self) -> usize {
        self.runtime.parallelism
    }

    /// Whether similarity evaluation is skipped.
    pub fn count_only(&self) -> bool {
        self.runtime.count_only
    }

    /// The prepared-entity cache bound (`None` = unbounded).
    pub fn matcher_cache_capacity(&self) -> Option<usize> {
        self.runtime.matcher_cache_capacity
    }

    /// The map-side spill threshold (`None` = never spill).
    pub fn spill_threshold(&self) -> Option<usize> {
        self.runtime.spill_threshold
    }

    /// The blocking function of one ladder rung.
    pub fn blocking_for(&self, params: LshParams) -> LshBlocking {
        LshBlocking::new(params, self.scheme, self.attribute.clone(), self.seed)
    }

    /// The candidate job's config under `params`: the rung's band keys
    /// balanced by [`LshConfig::balance`].
    fn match_config(&self, params: LshParams) -> ErConfig {
        ErConfig {
            blocking: Arc::new(self.blocking_for(params)),
            matcher: Arc::clone(&self.matcher),
            strategy: self.balance,
            range_policy: self.range_policy,
            use_combiner: self.use_combiner,
            split_policy: self.split_policy,
            runtime: self.runtime,
            fault_plan: self.fault_plan.clone(),
        }
    }
}

impl std::fmt::Debug for LshConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LshConfig")
            .field("attribute", &self.attribute)
            .field("scheme", &self.scheme)
            .field("seed", &self.seed)
            .field("ladder", &self.ladder)
            .field("candidate_budget", &self.candidate_budget)
            .field("recall_floor", &self.recall_floor)
            .field("balance", &self.balance)
            .field("runtime", &self.runtime)
            .finish_non_exhaustive()
    }
}

/// What one adaptive round measured and decided.
#[derive(Debug, Clone)]
pub struct LshRound {
    /// The rung's banding.
    pub params: LshParams,
    /// Enumerated candidate workload of the rung's banded key space:
    /// `Σ_buckets C(n, 2)` for dedup, `Σ_buckets |R|·|S|` for linkage
    /// — what the reducers iterate (the smallest-band gate then
    /// evaluates each distinct pair once).
    pub candidate_pairs: u64,
    /// The banding S-curve estimate of recall at the target
    /// similarity.
    pub est_recall: f64,
    /// Whether the workload fit the candidate budget.
    pub within_budget: bool,
    /// Whether the recall estimate reached the floor.
    pub meets_floor: bool,
    /// Whether this rung was accepted (rounds after an accepted rung
    /// never run).
    pub accepted: bool,
}

/// Products of the LSH stages executed inside a caller-owned
/// [`Workflow`] — what [`run_lsh_in`] produces and [`run_lsh`] (plus
/// the facade `Resolver` under `Scenario::Lsh`) wraps into an outcome.
#[derive(Debug)]
pub struct LshStages {
    /// The deduplicated match result.
    pub result: MatchResult,
    /// The accepted banding.
    pub params: LshParams,
    /// One report per executed adaptive round, in ladder order.
    pub rounds: Vec<LshRound>,
    /// The accepted rung's band-bucket distribution matrix.
    pub bdm: Arc<BlockDistributionMatrix>,
    /// Metrics of the accepted signature job.
    pub bdm_metrics: JobMetrics,
    /// Metrics of the candidate/matching job.
    pub match_metrics: JobMetrics,
}

/// Everything a completed [`run_lsh`] produces.
#[derive(Debug)]
pub struct LshOutcome {
    /// The deduplicated match result.
    pub result: MatchResult,
    /// The accepted banding.
    pub params: LshParams,
    /// One report per executed adaptive round.
    pub rounds: Vec<LshRound>,
    /// The accepted rung's band-bucket distribution matrix.
    pub bdm: Arc<BlockDistributionMatrix>,
    /// Metrics of the accepted signature job.
    pub bdm_metrics: JobMetrics,
    /// Metrics of the candidate/matching job.
    pub match_metrics: JobMetrics,
    /// Rolled-up metrics of the whole run (every signature round plus
    /// the matching job under one workflow).
    pub workflow: WorkflowMetrics,
}

impl LshOutcome {
    /// Comparison counts per reduce task of the candidate job.
    pub fn reduce_loads(&self) -> Vec<u64> {
        self.match_metrics
            .per_reduce_counter(er_loadbalance::COMPARISONS)
    }

    /// Total pair comparisons (each distinct candidate pair exactly
    /// once, across all shared bands).
    pub fn total_comparisons(&self) -> u64 {
        self.reduce_loads().iter().sum()
    }
}

/// The products the accepted signature round hands to the match node.
struct Accepted {
    params: LshParams,
    bdm: Arc<BlockDistributionMatrix>,
    annotated: Partitions<er_core::blocking::BlockKey, er_loadbalance::Keyed>,
    bdm_metrics: JobMetrics,
}

/// Executes the LSH scenario as stages of `workflow` — the scenario
/// compiler both [`run_lsh`] and the facade crate's `Resolver` (via
/// `Scenario::Lsh`) drive.
///
/// `sources` selects the workload: `None` deduplicates one source;
/// `Some(tags)` links two (`tags[p]` labels input partition `p` as
/// `R` or `S`; only cross-source pairs within shared buckets are
/// compared).
///
/// The scenario compiles to a sequential [`StageGraph`]: one
/// `lsh-sig-…` node per ladder rung (later rungs no-op once a rung is
/// accepted — acceptance is a data dependency, expressed as graph
/// edges), then one `match` node running the balanced candidate job
/// with the accepted BDM's exact pair count as its scheduling weight.
pub fn run_lsh_in(
    workflow: &mut Workflow,
    input: Partitions<(), Ent>,
    sources: Option<Vec<SourceId>>,
    config: &LshConfig,
) -> Result<LshStages, MrError> {
    assert!(
        !config.ladder.is_empty(),
        "the ladder needs at least one rung"
    );
    if let Some(tags) = &sources {
        check_source_tags(tags, input.len()).unwrap_or_else(|e| panic!("{e}"));
    }
    let rounds: RefCell<Vec<LshRound>> = RefCell::new(Vec::new());
    let accepted: RefCell<Option<Accepted>> = RefCell::new(None);
    let stages = RefCell::new(None);
    let input = &input;
    let sources = &sources;
    let rounds_ref = &rounds;
    let accepted_ref = &accepted;
    let mut graph: StageGraph<'_, MrError> = StageGraph::new();
    let last_rung = config.ladder.len() - 1;
    let mut prev = None;
    for (i, &params) in config.ladder.iter().enumerate() {
        let deps: Vec<_> = prev.into_iter().collect();
        let name = format!("lsh-sig-{params}");
        prev = Some(graph.node(name.clone(), &deps, move |wf| {
            if accepted_ref.borrow().is_some() {
                // An earlier rung fit the budget: this rung never
                // runs (its node is a no-op, not a skipped stage).
                return Ok(());
            }
            let blocking = Arc::new(config.blocking_for(params));
            let (bdm, annotated, bdm_metrics) = compute_bdm_named_in(
                wf,
                &name,
                input.clone(),
                blocking,
                config.reduce_tasks(),
                config.parallelism(),
                config.use_combiner,
                config.spill_threshold(),
            )?;
            let bdm = Arc::new(bdm);
            let candidate_pairs =
                PairSpace::new(Arc::clone(&bdm), sources.as_deref()).total_pairs();
            let within_budget = config
                .candidate_budget
                .is_none_or(|budget| candidate_pairs <= budget);
            let est_recall = params.collision_probability(config.target_similarity);
            let accept = within_budget || i == last_rung;
            rounds_ref.borrow_mut().push(LshRound {
                params,
                candidate_pairs,
                est_recall,
                within_budget,
                meets_floor: est_recall >= config.recall_floor,
                accepted: accept,
            });
            if accept {
                *accepted_ref.borrow_mut() = Some(Accepted {
                    params,
                    bdm,
                    annotated,
                    bdm_metrics,
                });
            }
            Ok(())
        }));
    }
    let sig_node = prev.expect("at least one rung");
    graph.node("match", &[sig_node], |wf| {
        let Accepted {
            params,
            bdm,
            annotated,
            bdm_metrics,
        } = accepted_ref
            .borrow_mut()
            .take()
            .expect("a signature round accepted a rung");
        let space = Arc::new(PairSpace::new(Arc::clone(&bdm), sources.as_deref()));
        let input = match config.balance {
            StrategyKind::Basic => MatchInput::Raw {
                entities: input.clone(),
                sources: sources.as_deref().map(Arc::from),
                weight_hint: Some(space.total_pairs()),
            },
            _ => MatchInput::Planned { annotated, space },
        };
        let (result, match_metrics) = run_match_stage(wf, &config.match_config(params), input)?;
        *stages.borrow_mut() = Some(LshStages {
            result,
            params,
            rounds: Vec::new(),
            bdm,
            bdm_metrics,
            match_metrics,
        });
        Ok(())
    });
    graph.run(workflow)?;
    let mut out = stages
        .into_inner()
        .expect("match node populates the outcome");
    out.rounds = rounds.into_inner();
    Ok(out)
}

/// Runs banded-MinHash entity resolution over pre-partitioned input.
///
/// A thin wrapper over [`run_lsh_in`] on a transient per-run
/// [`Workflow`]; new code should use the facade crate's `Runtime` +
/// `Resolver` with `Scenario::Lsh`, which runs the identical stages
/// on a persistent worker pool.
pub fn run_lsh(
    input: Partitions<(), Ent>,
    sources: Option<Vec<SourceId>>,
    config: &LshConfig,
) -> Result<LshOutcome, MrError> {
    let name = if sources.is_some() {
        "lsh-linkage"
    } else {
        "lsh"
    };
    let mut workflow = Workflow::new(name)
        .with_fault_policy(config.fault_policy())
        .with_fault_plan(config.fault_plan().clone());
    let stages = run_lsh_in(&mut workflow, input, sources, config)?;
    Ok(LshOutcome {
        result: stages.result,
        params: stages.params,
        rounds: stages.rounds,
        bdm: stages.bdm,
        bdm_metrics: stages.bdm_metrics,
        match_metrics: stages.match_metrics,
        workflow: workflow.finish(),
    })
}

/// Brute-force banded candidate enumeration — the oracle the MR
/// candidate set is proven against. A pair is a candidate iff the two
/// entities share at least one band bucket (and, when
/// `cross_source_only`, come from different sources). Quadratic in
/// the input; test/bench scale only.
pub fn lsh_candidate_pairs(
    entities: &[Ent],
    blocking: &LshBlocking,
    cross_source_only: bool,
) -> BTreeSet<MatchPair> {
    let keys: Vec<Option<Vec<er_core::blocking::BlockKey>>> = entities
        .iter()
        .map(|e| blocking.signature(e).map(|sig| blocking.band_keys_of(&sig)))
        .collect();
    let mut candidates = BTreeSet::new();
    for i in 0..entities.len() {
        let Some(a) = &keys[i] else { continue };
        for j in (i + 1)..entities.len() {
            let Some(b) = &keys[j] else { continue };
            if cross_source_only && entities[i].source() == entities[j].source() {
                continue;
            }
            if a.iter().zip(b).any(|(ka, kb)| ka == kb) {
                candidates.insert(MatchPair::new(
                    entities[i].entity_ref(),
                    entities[j].entity_ref(),
                ));
            }
        }
    }
    candidates
}

/// Reference implementation: evaluates the matcher on every
/// brute-force banded candidate — the ground truth the MR workflow
/// must reproduce exactly (same pairs, same scores, each candidate
/// evaluated once).
pub fn lsh_oracle(
    entities: &[Ent],
    config: &LshConfig,
    params: LshParams,
    cross_source_only: bool,
) -> MatchResult {
    let blocking = config.blocking_for(params);
    let by_ref: std::collections::BTreeMap<_, _> =
        entities.iter().map(|e| (e.entity_ref(), e)).collect();
    let mut cache = MatcherCache::new(Arc::clone(&config.matcher));
    let mut result = MatchResult::new();
    for pair in lsh_candidate_pairs(entities, &blocking, cross_source_only) {
        let a = by_ref[&pair.lo()];
        let b = by_ref[&pair.hi()];
        if let Some(score) = cache.matches(a, b) {
            result.insert(pair, score);
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_core::Entity;
    use mr_engine::input::partition_evenly;

    fn corpus() -> Vec<Ent> {
        // Three near-duplicate clusters plus singletons; titles are
        // long enough that one edit keeps trigram Jaccard high.
        [
            "canon eos five d mark three body",
            "canon eos five d mark three bodi",
            "nikon d eight hundred body only kit",
            "nikon d eight hundred body only kit",
            "olympus om d e m five mark two",
            "olympus om d e m five mark two",
            "sony alpha seven r four mirrorless",
            "fujifilm x t four mirrorless camera",
        ]
        .iter()
        .enumerate()
        .map(|(id, t)| Arc::new(Entity::new(id as u64, [("title", *t)])) as Ent)
        .collect()
    }

    fn input(m: usize) -> Partitions<(), Ent> {
        partition_evenly(corpus().into_iter().map(|e| ((), e)).collect(), m)
    }

    fn config() -> LshConfig {
        LshConfig::new()
            .with_params(LshParams::new(8, 2))
            .with_reduce_tasks(3)
            .with_parallelism(1)
    }

    #[test]
    fn matches_the_brute_force_oracle_under_every_balance_strategy() {
        let entities = corpus();
        for balance in [
            StrategyKind::Basic,
            StrategyKind::BlockSplit,
            StrategyKind::PairRange,
        ] {
            let config = config().with_balance(balance);
            let outcome = run_lsh(input(2), None, &config).unwrap();
            let oracle = lsh_oracle(&entities, &config, LshParams::new(8, 2), false);
            assert_eq!(
                outcome.result.pair_set(),
                oracle.pair_set(),
                "{balance}: match set must equal the banded oracle"
            );
            let blocking = config.blocking_for(LshParams::new(8, 2));
            let candidates = lsh_candidate_pairs(&entities, &blocking, false);
            assert_eq!(
                outcome.total_comparisons(),
                candidates.len() as u64,
                "{balance}: every distinct candidate pair exactly once"
            );
        }
    }

    #[test]
    fn cross_band_dedup_is_exact() {
        // Identical titles collide in *every* band; the smallest-band
        // gate must still evaluate the pair exactly once, so skipped +
        // compared = enumerated.
        let config = config();
        let outcome = run_lsh(input(2), None, &config).unwrap();
        let skipped = outcome
            .workflow
            .counters
            .get(er_loadbalance::compare::MULTIPASS_SKIPPED);
        assert_eq!(
            outcome.total_comparisons() + skipped,
            outcome.bdm.total_pairs(),
            "every enumerated bucket pair is either compared once or gated"
        );
        assert!(skipped > 0, "duplicate clusters must share several bands");
    }

    #[test]
    fn adaptive_ladder_tightens_to_the_budget() {
        let entities = corpus();
        let wide = LshParams::new(16, 2);
        let tight = LshParams::new(4, 8);
        let wide_candidates =
            lsh_candidate_pairs(&entities, &config().blocking_for(wide), false).len() as u64;
        // A budget below the wide rung's enumerated workload forces
        // the driver down the ladder.
        let config = config()
            .with_ladder(vec![wide, tight])
            .with_candidate_budget(Some(wide_candidates.saturating_sub(1).max(1)));
        let outcome = run_lsh(input(2), None, &config).unwrap();
        assert_eq!(outcome.rounds.len(), 2, "both rounds measured");
        assert!(!outcome.rounds[0].accepted);
        assert!(outcome.rounds[1].accepted);
        assert_eq!(outcome.params, tight);
        assert!(
            outcome.rounds[0].est_recall > outcome.rounds[1].est_recall,
            "tightening trades estimated recall for candidates"
        );
    }

    #[test]
    fn no_budget_accepts_the_widest_rung_immediately() {
        let config = config().with_ladder(vec![LshParams::new(16, 2), LshParams::new(4, 8)]);
        let outcome = run_lsh(input(2), None, &config).unwrap();
        assert_eq!(outcome.rounds.len(), 1, "later rungs never run");
        assert!(outcome.rounds[0].accepted);
        assert_eq!(outcome.params, LshParams::new(16, 2));
    }

    #[test]
    fn linkage_compares_cross_source_candidates_only() {
        let entities = corpus();
        let half = entities.len() / 2;
        let tagged: Vec<Ent> = entities
            .iter()
            .enumerate()
            .map(|(i, e)| {
                let source = if i < half { SourceId::R } else { SourceId::S };
                Arc::new(Entity::with_source(
                    source,
                    e.id().0,
                    [("title", e.get("title").unwrap())],
                )) as Ent
            })
            .collect();
        let partitions: Partitions<(), Ent> = vec![
            tagged[..half].iter().map(|e| ((), Arc::clone(e))).collect(),
            tagged[half..].iter().map(|e| ((), Arc::clone(e))).collect(),
        ];
        let sources = vec![SourceId::R, SourceId::S];
        for balance in [
            StrategyKind::Basic,
            StrategyKind::BlockSplit,
            StrategyKind::PairRange,
        ] {
            let config = config().with_balance(balance);
            let outcome = run_lsh(partitions.clone(), Some(sources.clone()), &config).unwrap();
            let oracle = lsh_oracle(&tagged, &config, LshParams::new(8, 2), true);
            assert_eq!(
                outcome.result.pair_set(),
                oracle.pair_set(),
                "{balance}: linkage must equal the cross-source banded oracle"
            );
            let blocking = config.blocking_for(LshParams::new(8, 2));
            let candidates = lsh_candidate_pairs(&tagged, &blocking, true);
            assert_eq!(outcome.total_comparisons(), candidates.len() as u64);
        }
    }

    #[test]
    fn count_only_counts_without_emitting() {
        let config = config().with_count_only(true);
        let outcome = run_lsh(input(2), None, &config).unwrap();
        assert!(outcome.result.is_empty());
        assert!(outcome.total_comparisons() > 0);
    }
}
