//! The end-to-end ER workflow (paper Figure 2), for deduplication and
//! two-source linkage alike.
//!
//! [`run_er`] and [`run_linkage`] execute through the shared
//! [`mr_engine::workflow::Workflow`] layer: the BDM job's side outputs
//! are chained into the matching job with the identical-partitioning
//! invariant enforced by the layer (a violation is the typed
//! [`MrError::StageShapeMismatch`], not a debug assertion), and each
//! outcome carries the rolled-up [`WorkflowMetrics`] alongside the
//! per-job metrics. The matching job itself is built by
//! [`run_match_stage`], which the LSH driver shares.

use std::sync::Arc;

use er_core::blocking::{BlockKey, BlockingFunction, PrefixBlocking};
use er_core::{check_source_tags, MatchResult, Matcher, SourceId};
use mr_engine::error::MrError;
use mr_engine::fault::{FaultPlan, FaultPolicy};
use mr_engine::input::Partitions;
use mr_engine::metrics::JobMetrics;
use mr_engine::runtime::RuntimeConfig;
use mr_engine::workflow::{StageGraph, Workflow, WorkflowMetrics};

use crate::basic::basic_job;
use crate::bdm::BlockDistributionMatrix;
use crate::bdm_job::compute_bdm_in;
use crate::block_split::{block_split_job, SplitPolicy};
use crate::compare::PairComparer;
use crate::pair_range::{pair_range_job, RangePolicy};
use crate::pair_space::PairSpace;
use crate::{Ent, Keyed, StrategyKind};

/// Configuration of one ER run.
///
/// The execution knobs every scenario shares (`reduce_tasks`,
/// `parallelism`, `count_only`, `matcher_cache_capacity`) live in the
/// embedded [`RuntimeConfig`]; the `with_*` builders forward to it, so
/// call sites predating the extraction compile unchanged.
#[derive(Clone)]
pub struct ErConfig {
    /// Blocking function (paper default: first 3 letters of `title`).
    pub blocking: Arc<dyn BlockingFunction>,
    /// Match rule (paper default: edit distance ≥ 0.8 on `title`).
    pub matcher: Arc<Matcher>,
    /// Which strategy runs the matching job.
    pub strategy: StrategyKind,
    /// Range formula for PairRange.
    pub range_policy: RangePolicy,
    /// Pre-aggregate BDM counts per map task (paper footnote 2).
    pub use_combiner: bool,
    /// BlockSplit splitting policy (workload criterion + optional
    /// memory cap).
    pub split_policy: SplitPolicy,
    /// Shared execution knobs: reduce tasks `r` (both jobs), worker
    /// threads, count-only mode, prepared-entity cache bound.
    pub runtime: RuntimeConfig,
    /// Deterministic fault-injection schedule applied to every job of
    /// the run (empty by default — injection is a test/bench harness,
    /// never implied by a policy). See [`FaultPlan`].
    pub fault_plan: FaultPlan,
}

impl ErConfig {
    /// Paper-default configuration for a strategy.
    pub fn new(strategy: StrategyKind) -> Self {
        Self {
            blocking: Arc::new(PrefixBlocking::title3()),
            matcher: Arc::new(Matcher::paper_default()),
            strategy,
            range_policy: RangePolicy::CeilDiv,
            use_combiner: true,
            split_policy: SplitPolicy::paper(),
            runtime: RuntimeConfig::default(),
            fault_plan: FaultPlan::new(),
        }
    }

    /// Overrides the blocking function.
    pub fn with_blocking(mut self, blocking: Arc<dyn BlockingFunction>) -> Self {
        self.blocking = blocking;
        self
    }

    /// Overrides the matcher.
    pub fn with_matcher(mut self, matcher: Arc<Matcher>) -> Self {
        self.matcher = matcher;
        self
    }

    /// Overrides the strategy (the `Resolver` compiles one scenario
    /// template into each requested strategy through this).
    pub fn with_strategy(mut self, strategy: StrategyKind) -> Self {
        self.strategy = strategy;
        self
    }

    /// Replaces the whole shared-knob block (e.g. with a `Runtime`'s
    /// configuration).
    pub fn with_runtime(mut self, runtime: RuntimeConfig) -> Self {
        self.runtime = runtime;
        self
    }

    /// Overrides the number of reduce tasks (forwards to
    /// [`RuntimeConfig::reduce_tasks`]).
    pub fn with_reduce_tasks(mut self, r: usize) -> Self {
        self.runtime.reduce_tasks = r;
        self
    }

    /// Overrides the worker-thread count (forwards to
    /// [`RuntimeConfig::parallelism`]).
    pub fn with_parallelism(mut self, p: usize) -> Self {
        self.runtime.parallelism = p;
        self
    }

    /// Overrides the PairRange range formula.
    pub fn with_range_policy(mut self, policy: RangePolicy) -> Self {
        self.range_policy = policy;
        self
    }

    /// Switches comparison counting only (forwards to
    /// [`RuntimeConfig::count_only`]).
    pub fn with_count_only(mut self, count_only: bool) -> Self {
        self.runtime.count_only = count_only;
        self
    }

    /// Forces BlockSplit to split any block larger than `cap`
    /// entities, bounding reduce-side memory (see
    /// [`crate::block_split::SplitPolicy`]).
    pub fn with_memory_cap(mut self, cap: u64) -> Self {
        self.split_policy = SplitPolicy::with_memory_cap(cap);
        self
    }

    /// Seals map-side shuffle buckets into sorted runs every
    /// `threshold` open records, bounding map-phase resident memory
    /// (forwards to [`RuntimeConfig::spill_threshold`]); `None`
    /// restores the spill-free default. Outputs are byte-identical at
    /// any threshold.
    ///
    /// # Panics
    /// If `threshold` is `Some(0)`.
    pub fn with_spill_threshold(mut self, threshold: Option<usize>) -> Self {
        self.runtime = self.runtime.with_spill_threshold(threshold);
        self
    }

    /// Bounds every strategy reducer's prepared-entity cache (forwards
    /// to [`RuntimeConfig::matcher_cache_capacity`]); `None` restores
    /// the unbounded default.
    ///
    /// # Panics
    /// If `capacity` is `Some(n)` with `n < 2` — comparing a pair
    /// needs both sides resident.
    pub fn with_matcher_cache_capacity(mut self, capacity: Option<usize>) -> Self {
        self.runtime = self.runtime.with_matcher_cache_capacity(capacity);
        self
    }

    /// Replaces the per-task fault-tolerance policy — retry budget and
    /// straggler deadline — every job of the run executes under
    /// (forwards to [`RuntimeConfig::fault_policy`]).
    pub fn with_fault_policy(mut self, policy: FaultPolicy) -> Self {
        self.runtime = self.runtime.with_fault_policy(policy);
        self
    }

    /// Installs a deterministic fault-injection schedule (panics or
    /// delays at exact task coordinates) for every job of the run —
    /// the test/bench harness proving the retry path. An empty plan
    /// (the default) injects nothing.
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

    /// Whether similarity evaluation is skipped (comparisons are only
    /// counted).
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

    pub(crate) fn comparer(&self) -> PairComparer {
        let comparer = if self.count_only() {
            PairComparer::count_only(Arc::clone(&self.matcher))
        } else {
            PairComparer::new(Arc::clone(&self.matcher))
        };
        comparer.with_cache_capacity(self.matcher_cache_capacity())
    }
}

impl std::fmt::Debug for ErConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ErConfig")
            .field("strategy", &self.strategy)
            .field("range_policy", &self.range_policy)
            .field("use_combiner", &self.use_combiner)
            .field("split_policy", &self.split_policy)
            .field("runtime", &self.runtime)
            .field("fault_plan", &self.fault_plan)
            .finish()
    }
}

/// Everything a completed run produces.
#[derive(Debug)]
pub struct ErOutcome {
    /// The deduplicated match result.
    pub result: MatchResult,
    /// The BDM (absent for Basic, which runs without preprocessing).
    pub bdm: Option<Arc<BlockDistributionMatrix>>,
    /// Metrics of the BDM job (absent for Basic).
    pub bdm_metrics: Option<JobMetrics>,
    /// Metrics of the matching job.
    pub match_metrics: JobMetrics,
    /// Rolled-up metrics of the whole run: per-stage walls, end-to-end
    /// wall, merged counters, peak-memory gauges.
    pub workflow: WorkflowMetrics,
}

impl ErOutcome {
    /// Comparison counts per reduce task of the matching job — the
    /// distribution the paper's strategies balance.
    pub fn reduce_loads(&self) -> Vec<u64> {
        self.match_metrics.per_reduce_counter(crate::COMPARISONS)
    }

    /// Total comparisons across all reduce tasks.
    pub fn total_comparisons(&self) -> u64 {
        self.reduce_loads().iter().sum()
    }
}

/// Products of the ER stages executed inside a caller-owned
/// [`Workflow`] — what [`run_er_in`] produces and [`run_er`] (plus the
/// unified `Resolver` front end of the facade crate) wraps into an
/// outcome.
#[derive(Debug)]
pub struct ErStages {
    /// The deduplicated match result.
    pub result: MatchResult,
    /// The BDM (absent for Basic, which runs without preprocessing).
    pub bdm: Option<Arc<BlockDistributionMatrix>>,
    /// Metrics of the BDM job (absent for Basic).
    pub bdm_metrics: Option<JobMetrics>,
    /// Metrics of the matching job.
    pub match_metrics: JobMetrics,
}

/// What the matching job reads.
pub enum MatchInput {
    /// Basic's input: raw entity partitions, blocked by its own map
    /// phase. `sources` tags each partition's side for linkage;
    /// `weight_hint` seeds the pool's shortest-remaining-work ranking.
    Raw {
        /// The entity partitions.
        entities: Partitions<(), Ent>,
        /// Per-partition source tags (`None`: dedup).
        sources: Option<Arc<[SourceId]>>,
        /// Scheduling weight, when a BDM already counted the pairs.
        weight_hint: Option<u64>,
    },
    /// BlockSplit's and PairRange's input: the BDM job's annotated side
    /// output over its pair space.
    Planned {
        /// The annotated partitions.
        annotated: Partitions<BlockKey, Keyed>,
        /// The pairs to balance.
        space: Arc<PairSpace>,
    },
}

/// Runs `config.strategy`'s matching job on `input` as a stage of `wf`
/// and collects its matches — the one match-stage builder of blocking
/// dedup, linkage and LSH. A planned job's exact pair count doubles as
/// its scheduling weight.
///
/// # Panics
/// If Basic gets planned input or BlockSplit/PairRange raw input.
pub fn run_match_stage(
    wf: &mut Workflow,
    config: &ErConfig,
    input: MatchInput,
) -> Result<(MatchResult, JobMetrics), MrError> {
    let (r, p, spill) = (
        config.reduce_tasks(),
        config.parallelism(),
        config.spill_threshold(),
    );
    let out = match (config.strategy, input) {
        (
            StrategyKind::Basic,
            MatchInput::Raw {
                entities,
                sources,
                weight_hint,
            },
        ) => {
            let mut job = basic_job(
                Arc::clone(&config.blocking),
                sources,
                config.comparer(),
                r,
                p,
            )
            .with_spill_threshold(spill);
            if let Some(weight) = weight_hint {
                job = job.with_weight_hint(weight);
            }
            wf.chained_stage(&job, entities)?
        }
        (StrategyKind::BlockSplit, MatchInput::Planned { annotated, space }) => {
            let weight = space.total_pairs();
            let job = block_split_job(space, config.comparer(), config.split_policy, r, p)
                .with_spill_threshold(spill)
                .with_weight_hint(weight);
            wf.chained_stage(&job, annotated)?
        }
        (StrategyKind::PairRange, MatchInput::Planned { annotated, space }) => {
            let weight = space.total_pairs();
            let job = pair_range_job(space, config.comparer(), config.range_policy, r, p)
                .with_spill_threshold(spill)
                .with_weight_hint(weight);
            wf.chained_stage(&job, annotated)?
        }
        (strategy, _) => panic!("{strategy} cannot read this matching input"),
    };
    let mut result = MatchResult::new();
    for (pair, score) in out.reduce_outputs.into_iter().flatten() {
        result.insert(pair, score);
    }
    Ok((result, out.metrics))
}

/// Executes the ER scenario (paper Figure 2) as stages of `workflow` —
/// the scenario compiler [`run_er`], [`run_linkage`] and the facade
/// crate's `Resolver` drive. `sources` selects the workload: `None`
/// deduplicates one source; `Some(tags)` links two (`tags[p]` labels
/// input partition `p` as `R` or `S`; only cross-source pairs within
/// shared blocks are compared). The workflow decides *where* stages
/// run (its own transient threads, or a shared persistent pool); the
/// stages are the same either way, so outputs are byte-identical.
///
/// The scenario compiles to a [`StageGraph`] instead of an eager
/// loop: Basic is a single `match` node; BlockSplit/PairRange is
/// `bdm → match`. Node bodies submit their task sets to the pool's
/// central ready-queue, letting stages of concurrently resolving
/// workflows interleave.
///
/// # Panics
/// If `sources` does not fit the input (see [`check_source_tags`]).
pub fn run_er_in(
    workflow: &mut Workflow,
    input: Partitions<(), Ent>,
    sources: Option<Vec<SourceId>>,
    config: &ErConfig,
) -> Result<ErStages, MrError> {
    use std::cell::RefCell;
    if let Some(tags) = &sources {
        check_source_tags(tags, input.len()).unwrap_or_else(|e| panic!("{e}"));
    }
    let sources: Option<Arc<[SourceId]>> = sources.map(Into::into);
    let stages = RefCell::new(None);
    // Intermediate slot the `bdm` node fills and the `match` node
    // drains (used by the BDM-based strategies only); the dependency
    // edge orders the fill before the take. Declared before the graph
    // so the node closures' borrows outlive it.
    let products = RefCell::new(None);
    let mut graph: StageGraph<'_, MrError> = StageGraph::new();
    let (deps, raw) = if config.strategy == StrategyKind::Basic {
        (Vec::new(), Some(input))
    } else {
        let bdm_node = graph.node("bdm", &[], |wf| {
            let (bdm, annotated, bdm_metrics) = compute_bdm_in(
                wf,
                input,
                Arc::clone(&config.blocking),
                config.reduce_tasks(),
                config.parallelism(),
                config.use_combiner,
                config.spill_threshold(),
            )?;
            *products.borrow_mut() = Some((Arc::new(bdm), annotated, bdm_metrics));
            Ok(())
        });
        (vec![bdm_node], None)
    };
    graph.node("match", &deps, |wf| {
        // The BDM's side outputs are chained into the matching job by
        // the workflow layer, which enforces the identical-partitioning
        // invariant Algorithms 1–3 require.
        let (input, bdm, bdm_metrics) = match raw {
            Some(entities) => (
                MatchInput::Raw {
                    entities,
                    sources,
                    weight_hint: None,
                },
                None,
                None,
            ),
            None => {
                let (bdm, annotated, bdm_metrics) = products
                    .borrow_mut()
                    .take()
                    .expect("bdm node ran before match");
                let space = Arc::new(PairSpace::new(Arc::clone(&bdm), sources.as_deref()));
                (
                    MatchInput::Planned { annotated, space },
                    Some(bdm),
                    Some(bdm_metrics),
                )
            }
        };
        let (result, match_metrics) = run_match_stage(wf, config, input)?;
        *stages.borrow_mut() = Some(ErStages {
            result,
            bdm,
            bdm_metrics,
            match_metrics,
        });
        Ok(())
    });
    graph.run(workflow)?;
    Ok(stages
        .into_inner()
        .expect("match node populates the outcome"))
}

/// Runs [`run_er_in`] on a transient per-run [`Workflow`] named `name`.
fn run_transient(
    name: String,
    input: Partitions<(), Ent>,
    sources: Option<Vec<SourceId>>,
    config: &ErConfig,
) -> Result<ErOutcome, MrError> {
    let mut workflow = Workflow::new(name)
        .with_fault_policy(config.fault_policy())
        .with_fault_plan(config.fault_plan().clone());
    let stages = run_er_in(&mut workflow, input, sources, config)?;
    Ok(ErOutcome {
        result: stages.result,
        bdm: stages.bdm,
        bdm_metrics: stages.bdm_metrics,
        match_metrics: stages.match_metrics,
        workflow: workflow.finish(),
    })
}

/// Runs entity resolution over pre-partitioned input (each inner `Vec`
/// is one input partition == one map task).
///
/// Entities without a valid blocking key are *skipped* (counted under
/// [`crate::bdm_job::NULL_KEY_ENTITIES`]); use
/// [`crate::null_keys::deduplicate_with_null_keys`] to include them
/// via the paper's Cartesian decomposition.
///
/// # Deprecation path
///
/// This is now a thin wrapper over [`run_er_in`] on a transient
/// per-run [`Workflow`], kept for compatibility. New code should go
/// through the facade crate's unified front door — `Runtime` +
/// `Resolver` with `Scenario::Dedup` — which runs the identical stages
/// on a persistent worker pool shared across runs.
pub fn run_er(input: Partitions<(), Ent>, config: &ErConfig) -> Result<ErOutcome, MrError> {
    run_transient(format!("er-{}", config.strategy), input, None, config)
}

/// Runs two-source entity resolution (record linkage, paper Appendix
/// I): `sources[p]` tags input partition `p` as belonging to `R` or
/// `S`; only cross-source pairs within shared blocks are compared.
///
/// # Deprecation path
///
/// A thin wrapper over [`run_er_in`] on a transient per-run
/// [`Workflow`], kept for compatibility; new code should use the
/// facade crate's `Runtime` + `Resolver` with `Scenario::Linkage`,
/// which runs the identical stages on a persistent worker pool.
///
/// # Panics
/// If `sources` does not fit the input (see [`check_source_tags`]).
pub fn run_linkage(
    input: Partitions<(), Ent>,
    sources: Vec<SourceId>,
    config: &ErConfig,
) -> Result<ErOutcome, MrError> {
    let name = format!("linkage-{}", config.strategy);
    run_transient(name, input, Some(sources), config)
}

/// Reference implementation: per-block all-pairs matching with no
/// MapReduce — the ground truth every strategy must reproduce exactly.
pub fn naive_reference(entities: &[Ent], config: &ErConfig) -> MatchResult {
    use std::collections::BTreeMap;
    let mut blocks: BTreeMap<er_core::blocking::BlockKey, Vec<crate::Keyed>> = BTreeMap::new();
    for e in entities {
        for keyed in crate::Keyed::derive_all(config.blocking.as_ref(), e) {
            blocks.entry(keyed.key.clone()).or_default().push(keyed);
        }
    }
    let mut result = MatchResult::new();
    // Prepared once per entity across *all* of its blocks (multi-pass
    // blocking replicates entities), via the memoizing cache.
    let mut cache = er_core::MatcherCache::new(Arc::clone(&config.matcher));
    for (block_key, members) in &blocks {
        for i in 0..members.len() {
            for j in (i + 1)..members.len() {
                let (a, b) = (&members[i], &members[j]);
                if !a.should_compare_in(b, block_key) {
                    continue;
                }
                if let Some(score) = cache.matches(&a.entity, &b.entity) {
                    result.insert(
                        er_core::result::MatchPair::new(
                            a.entity.entity_ref(),
                            b.entity.entity_ref(),
                        ),
                        score,
                    );
                }
            }
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::running_example;

    fn example_config(strategy: StrategyKind) -> ErConfig {
        ErConfig::new(strategy)
            .with_blocking(running_example::blocking())
            .with_reduce_tasks(3)
            .with_parallelism(1)
            .with_count_only(true)
    }

    #[test]
    fn all_strategies_compute_exactly_20_comparisons_on_the_example() {
        for strategy in [
            StrategyKind::Basic,
            StrategyKind::BlockSplit,
            StrategyKind::PairRange,
        ] {
            let outcome = run_er(
                running_example::entity_partitions(),
                &example_config(strategy),
            )
            .unwrap();
            assert_eq!(
                outcome.total_comparisons(),
                20,
                "{strategy} must evaluate each of the 20 pairs exactly once"
            );
        }
    }

    #[test]
    fn block_split_loads_match_figure5() {
        let outcome = run_er(
            running_example::entity_partitions(),
            &example_config(StrategyKind::BlockSplit),
        )
        .unwrap();
        let mut loads = outcome.reduce_loads();
        loads.sort_unstable();
        assert_eq!(loads, vec![6, 7, 7]);
    }

    #[test]
    fn pair_range_loads_match_figure6() {
        let outcome = run_er(
            running_example::entity_partitions(),
            &example_config(StrategyKind::PairRange),
        )
        .unwrap();
        assert_eq!(outcome.reduce_loads(), vec![7, 7, 6]);
    }

    #[test]
    fn bounded_matcher_cache_reproduces_unbounded_results() {
        // Full matching (not count-only): a tiny capacity thrashes the
        // per-task caches, which must cost recompute only.
        for strategy in [
            StrategyKind::Basic,
            StrategyKind::BlockSplit,
            StrategyKind::PairRange,
        ] {
            let base = ErConfig::new(strategy)
                .with_blocking(running_example::blocking())
                .with_reduce_tasks(3)
                .with_parallelism(1);
            let unbounded = run_er(running_example::entity_partitions(), &base).unwrap();
            let bounded = run_er(
                running_example::entity_partitions(),
                &base.clone().with_matcher_cache_capacity(Some(2)),
            )
            .unwrap();
            assert_eq!(
                unbounded.result.pair_set(),
                bounded.result.pair_set(),
                "{strategy}: capacity bound changed the match output"
            );
        }
    }

    #[test]
    fn basic_has_no_bdm() {
        let outcome = run_er(
            running_example::entity_partitions(),
            &example_config(StrategyKind::Basic),
        )
        .unwrap();
        assert!(outcome.bdm.is_none());
        assert!(outcome.bdm_metrics.is_none());
    }

    #[test]
    fn load_balanced_strategies_expose_the_bdm() {
        let outcome = run_er(
            running_example::entity_partitions(),
            &example_config(StrategyKind::BlockSplit),
        )
        .unwrap();
        let bdm = outcome.bdm.expect("BDM computed");
        assert_eq!(bdm.total_pairs(), 20);
        assert!(outcome.bdm_metrics.is_some());
    }
}
