//! One front door: a [`Resolver`] session API over a shared
//! [`Runtime`], unifying all five entity-resolution scenarios.
//!
//! Historically every workload class had its own entry point —
//! `run_er`, `run_linkage`, `run_sorted_neighborhood`,
//! `run_multipass_sn`, `run_two_source_sn` — with two config structs
//! duplicating the shared execution knobs and two error types. The
//! resolver collapses that into one declarative surface:
//!
//! 1. create a [`Runtime`] once — its worker pool is spawned **once**
//!    and shared by every subsequent run;
//! 2. build a [`Resolver`] and set the workload knobs (blocking
//!    function, matcher, sort key, window, …);
//! 3. describe *what* to resolve with a [`Scenario`] value and call
//!    [`Resolver::resolve`], which compiles the scenario into the very
//!    same [`Workflow`] stages the
//!    legacy drivers build — so outputs are byte-identical to the old
//!    entry points (proven in `tests/resolver_api.rs`) — and returns
//!    one unified [`Outcome`] or [`ResolveError`].
//!
//! ```
//! use std::sync::Arc;
//! use dedupe_mr::prelude::*;
//!
//! let entities: Vec<Ent> = vec![
//!     Arc::new(Entity::new(0, [("title", "canon eos 5d mark iii")])),
//!     Arc::new(Entity::new(1, [("title", "canon eos 5d mark iri")])),
//!     Arc::new(Entity::new(2, [("title", "nikon d800 body only")])),
//! ];
//! let input = partition_evenly(entities.into_iter().map(|e| ((), e)).collect(), 2);
//!
//! let runtime = Runtime::new(RuntimeConfig::new().with_parallelism(2));
//! let resolver = Resolver::new(&runtime);
//!
//! // Same session, two scenarios, one thread pool:
//! let dedup = resolver
//!     .resolve(&Scenario::Dedup { strategy: StrategyKind::BlockSplit }, input.clone())
//!     .unwrap();
//! let sn = resolver
//!     .resolve(&Scenario::sorted_neighborhood(SnStrategy::JobSn), input)
//!     .unwrap();
//! assert_eq!(dedup.result.len(), 1);
//! assert_eq!(sn.result.len(), 1);
//! ```

use std::sync::Arc;

use er_core::blocking::BlockingFunction;
use er_core::sortkey::{RangePartitioner, SortKey, SortKeyFunction};
use er_core::{check_source_tags, MatchResult, Matcher, SourceId, SourceTagError};
use er_loadbalance::block_split::SplitPolicy;
use er_loadbalance::driver::run_er_in;
use er_loadbalance::{BlockDistributionMatrix, Ent, RangePolicy, StrategyKind};
use er_lsh::driver::run_lsh_in;
use er_lsh::{LshConfig, LshParams, LshRound};
use er_sn::driver::run_sorted_neighborhood_in;
use er_sn::multipass::run_multipass_sn_in;
use er_sn::two_source::run_two_source_sn_in;
use er_sn::{NullKeyPolicy, SnConfig, SnError, SnPassReport, SnStrategy};
use mr_engine::error::MrError;
use mr_engine::fault::{FaultPlan, FaultPolicy};
use mr_engine::input::Partitions;
use mr_engine::metrics::JobMetrics;
use mr_engine::runtime::Runtime;
use mr_engine::trace::TraceSink;
use mr_engine::workflow::{Workflow, WorkflowMetrics};

use er_loadbalance::ErConfig;

/// A declarative description of *what* to resolve; the [`Resolver`]
/// compiles it into the matching multi-stage workflow.
///
/// Each variant corresponds to (and is proven byte-identical with) one
/// legacy entry point:
///
/// | Scenario | Legacy entry point |
/// |---|---|
/// | `Dedup` | `er_loadbalance::run_er` |
/// | `Linkage` | `er_loadbalance::run_linkage` |
/// | `SortedNeighborhood` (no passes) | `er_sn::run_sorted_neighborhood` |
/// | `SortedNeighborhood` (explicit passes) | `er_sn::run_multipass_sn` |
/// | `TwoSourceSn` | `er_sn::run_two_source_sn` |
/// | `Lsh` | `er_lsh::run_lsh` |
#[derive(Clone)]
pub enum Scenario {
    /// Single-source deduplication via blocking (paper Figure 2) under
    /// one of the three load-balancing strategies.
    Dedup {
        /// Matching-job strategy (Basic / BlockSplit / PairRange).
        strategy: StrategyKind,
    },
    /// Two-source record linkage (paper Appendix I): `sources[p]` tags
    /// input partition `p` as `R` or `S`; only cross-source pairs
    /// within shared blocks are compared.
    Linkage {
        /// Matching-job strategy.
        strategy: StrategyKind,
        /// One source tag per input partition.
        sources: Vec<SourceId>,
    },
    /// Sorted Neighborhood blocking: sliding window over a total sort
    /// order, with one of the two boundary strategies.
    ///
    /// With `passes` empty, a single pass runs under the resolver's
    /// configured sort key ([`Resolver::with_sort_key`]). With
    /// explicit `passes`, one window workflow runs per key function
    /// and the pair sets union under the first-pass-wins dedup gate —
    /// multi-pass SN.
    SortedNeighborhood {
        /// Boundary-handling strategy (JobSN / RepSN).
        strategy: SnStrategy,
        /// Sort keys for multi-pass SN; empty = single pass under the
        /// resolver's sort key.
        passes: Vec<Arc<dyn SortKeyFunction>>,
    },
    /// Two-source Sorted Neighborhood linkage: both sources interleave
    /// in one sort order; only cross-source window pairs are
    /// evaluated.
    TwoSourceSn {
        /// Boundary-handling strategy.
        strategy: SnStrategy,
        /// One source tag per input partition.
        sources: Vec<SourceId>,
    },
    /// Banded-MinHash (LSH) blocking, load-balanced over the banded
    /// key space via the session's BlockSplit/PairRange configuration
    /// (see [`Resolver::with_lsh_balance`]).
    ///
    /// With `params` fixed, one signature round runs under that
    /// banding; with `params: None` the adaptive driver walks the
    /// session's `(bands, rows)` ladder until the enumerated candidate
    /// workload fits the configured budget (see
    /// [`Resolver::with_lsh_ladder`] /
    /// [`Resolver::with_lsh_budget`]), reporting every round in the
    /// outcome's [`ScenarioDetails::Lsh`].
    Lsh {
        /// Fixed banding, or `None` for the adaptive ladder.
        params: Option<LshParams>,
        /// `None` deduplicates one source; `Some(tags)` links two
        /// (`tags[p]` labels input partition `p`; only cross-source
        /// pairs within shared band buckets are compared).
        sources: Option<Vec<SourceId>>,
    },
}

impl Scenario {
    /// Single-pass Sorted Neighborhood under the resolver's sort key.
    pub fn sorted_neighborhood(strategy: SnStrategy) -> Self {
        Scenario::SortedNeighborhood {
            strategy,
            passes: Vec::new(),
        }
    }

    /// Multi-pass Sorted Neighborhood over the given sort keys.
    pub fn multipass_sn(
        strategy: SnStrategy,
        passes: impl IntoIterator<Item = Arc<dyn SortKeyFunction>>,
    ) -> Self {
        Scenario::SortedNeighborhood {
            strategy,
            passes: passes.into_iter().collect(),
        }
    }

    /// Single-source LSH deduplication under a fixed banding.
    pub fn lsh(params: LshParams) -> Self {
        Scenario::Lsh {
            params: Some(params),
            sources: None,
        }
    }

    /// Single-source LSH deduplication under the session's adaptive
    /// `(bands, rows)` ladder.
    pub fn lsh_adaptive() -> Self {
        Scenario::Lsh {
            params: None,
            sources: None,
        }
    }

    /// Two-source LSH linkage (fixed banding when `params` is `Some`,
    /// adaptive otherwise).
    pub fn lsh_linkage(params: Option<LshParams>, sources: Vec<SourceId>) -> Self {
        Scenario::Lsh {
            params,
            sources: Some(sources),
        }
    }

    /// The workflow name this scenario compiles to — identical to the
    /// name the matching legacy entry point uses, so metrics stay
    /// comparable across the old and new surface.
    pub fn workflow_name(&self) -> String {
        match self {
            Scenario::Dedup { strategy } => format!("er-{strategy}"),
            Scenario::Linkage { strategy, .. } => format!("linkage-{strategy}"),
            Scenario::SortedNeighborhood { strategy, passes } if passes.is_empty() => {
                format!("sn-{strategy}")
            }
            Scenario::SortedNeighborhood { strategy, .. } => format!("sn-multipass-{strategy}"),
            Scenario::TwoSourceSn { strategy, .. } => format!("sn-two-source-{strategy}"),
            Scenario::Lsh { sources: None, .. } => "lsh".to_string(),
            Scenario::Lsh {
                sources: Some(_), ..
            } => "lsh-linkage".to_string(),
        }
    }

    /// The per-partition source tags of a two-source scenario.
    fn source_tags(&self) -> Option<&[SourceId]> {
        match self {
            Scenario::Linkage { sources, .. }
            | Scenario::TwoSourceSn { sources, .. }
            | Scenario::Lsh {
                sources: Some(sources),
                ..
            } => Some(sources),
            _ => None,
        }
    }
}

impl std::fmt::Debug for Scenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Scenario::Dedup { strategy } => {
                f.debug_struct("Dedup").field("strategy", strategy).finish()
            }
            Scenario::Linkage { strategy, sources } => f
                .debug_struct("Linkage")
                .field("strategy", strategy)
                .field("sources", sources)
                .finish(),
            Scenario::SortedNeighborhood { strategy, passes } => f
                .debug_struct("SortedNeighborhood")
                .field("strategy", strategy)
                .field("passes", &passes.len())
                .finish(),
            Scenario::TwoSourceSn { strategy, sources } => f
                .debug_struct("TwoSourceSn")
                .field("strategy", strategy)
                .field("sources", sources)
                .finish(),
            Scenario::Lsh { params, sources } => f
                .debug_struct("Lsh")
                .field("params", params)
                .field("sources", sources)
                .finish(),
        }
    }
}

impl std::fmt::Display for Scenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.workflow_name())
    }
}

/// The one error type of the unified surface, composing every layer's
/// failures so `?` works across them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResolveError {
    /// The MapReduce engine rejected the run (configuration or
    /// input-shape problem; no task ran).
    Mr(MrError),
    /// RepSN precondition violated: an interior key range holds fewer
    /// than `window − 1` entities (see
    /// [`er_sn::SnError::ThinPartition`]). Re-run with JobSN, a
    /// smaller window, or fewer partitions.
    ThinPartition {
        /// The offending range.
        partition: usize,
        /// Entities it holds.
        entities: u64,
        /// The configured window.
        window: usize,
    },
    /// A two-source scenario's source tags do not fit its input: one
    /// `R` or `S` tag per input partition is required. No task ran.
    SourceTags(SourceTagError),
}

impl std::fmt::Display for ResolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResolveError::Mr(e) => write!(f, "MapReduce error: {e}"),
            ResolveError::SourceTags(e) => write!(f, "invalid source tags: {e}"),
            ResolveError::ThinPartition {
                partition,
                entities,
                window,
            } => write!(
                f,
                "RepSN requires every interior range to hold at least w-1 = {} entities, \
                 but range {partition} holds {entities}; use JobSN for this workload",
                window - 1
            ),
        }
    }
}

impl std::error::Error for ResolveError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ResolveError::Mr(e) => Some(e),
            ResolveError::SourceTags(e) => Some(e),
            ResolveError::ThinPartition { .. } => None,
        }
    }
}

impl From<MrError> for ResolveError {
    fn from(e: MrError) -> Self {
        ResolveError::Mr(e)
    }
}

impl From<SourceTagError> for ResolveError {
    fn from(e: SourceTagError) -> Self {
        ResolveError::SourceTags(e)
    }
}

impl From<SnError> for ResolveError {
    fn from(e: SnError) -> Self {
        match e {
            SnError::Mr(e) => ResolveError::Mr(e),
            SnError::ThinPartition {
                partition,
                entities,
                window,
            } => ResolveError::ThinPartition {
                partition,
                entities,
                window,
            },
        }
    }
}

/// Per-scenario extras of an [`Outcome`], beyond the match result and
/// the workflow roll-up every scenario shares.
#[derive(Debug)]
pub enum ScenarioDetails {
    /// Blocking-based scenarios ([`Scenario::Dedup`],
    /// [`Scenario::Linkage`]).
    Blocked {
        /// The BDM (absent for Basic, which runs without
        /// preprocessing).
        bdm: Option<Arc<BlockDistributionMatrix>>,
        /// Metrics of the BDM job (absent for Basic).
        bdm_metrics: Option<JobMetrics>,
        /// Metrics of the matching job.
        match_metrics: JobMetrics,
    },
    /// Single-pass Sorted Neighborhood scenarios
    /// (single-key [`Scenario::SortedNeighborhood`],
    /// [`Scenario::TwoSourceSn`]).
    Sorted {
        /// The sampled range partitioner the run routed by.
        partitioner: RangePartitioner<SortKey>,
        /// Metrics of the sort-key distribution job.
        sample_metrics: JobMetrics,
        /// Metrics of the window/matching job.
        match_metrics: JobMetrics,
        /// Metrics of JobSN's stitch job (absent for RepSN and
        /// boundary-free runs).
        stitch_metrics: Option<JobMetrics>,
    },
    /// Multi-pass Sorted Neighborhood: one report per pass.
    MultiPass {
        /// Per-pass reports, in pass order.
        passes: Vec<SnPassReport>,
    },
    /// Banded-MinHash scenarios ([`Scenario::Lsh`]).
    Lsh {
        /// The accepted banding.
        params: LshParams,
        /// One report per executed adaptive round, in ladder order.
        rounds: Vec<LshRound>,
        /// The accepted rung's band-bucket distribution matrix.
        bdm: Arc<BlockDistributionMatrix>,
        /// Metrics of the accepted signature job.
        bdm_metrics: JobMetrics,
        /// Metrics of the candidate/matching job.
        match_metrics: JobMetrics,
    },
}

impl ScenarioDetails {
    /// The matching job's metrics, for scenarios with exactly one
    /// matching job (`None` for multi-pass runs — see
    /// [`ScenarioDetails::passes`]).
    pub fn match_metrics(&self) -> Option<&JobMetrics> {
        match self {
            ScenarioDetails::Blocked { match_metrics, .. }
            | ScenarioDetails::Sorted { match_metrics, .. }
            | ScenarioDetails::Lsh { match_metrics, .. } => Some(match_metrics),
            ScenarioDetails::MultiPass { .. } => None,
        }
    }

    /// The Block Distribution Matrix, when the scenario computed one
    /// (for LSH scenarios: the accepted rung's band-bucket matrix).
    pub fn bdm(&self) -> Option<&Arc<BlockDistributionMatrix>> {
        match self {
            ScenarioDetails::Blocked { bdm, .. } => bdm.as_ref(),
            ScenarioDetails::Lsh { bdm, .. } => Some(bdm),
            _ => None,
        }
    }

    /// The accepted banding, for LSH scenarios.
    pub fn lsh_params(&self) -> Option<LshParams> {
        match self {
            ScenarioDetails::Lsh { params, .. } => Some(*params),
            _ => None,
        }
    }

    /// Per-round adaptive reports, for LSH scenarios.
    pub fn lsh_rounds(&self) -> Option<&[LshRound]> {
        match self {
            ScenarioDetails::Lsh { rounds, .. } => Some(rounds),
            _ => None,
        }
    }

    /// The sampled range partitioner, for single-pass SN scenarios.
    pub fn partitioner(&self) -> Option<&RangePartitioner<SortKey>> {
        match self {
            ScenarioDetails::Sorted { partitioner, .. } => Some(partitioner),
            _ => None,
        }
    }

    /// Per-pass reports, for multi-pass SN scenarios.
    pub fn passes(&self) -> Option<&[SnPassReport]> {
        match self {
            ScenarioDetails::MultiPass { passes } => Some(passes),
            _ => None,
        }
    }
}

/// Everything a completed [`Resolver::resolve`] produces, uniformly
/// across scenarios.
#[derive(Debug)]
pub struct Outcome {
    /// The deduplicated match result (cross-source only for the
    /// linkage scenarios; empty under count-only mode).
    pub result: MatchResult,
    /// Rolled-up metrics of the whole run: per-stage walls, end-to-end
    /// wall, merged counters, peak-memory gauges.
    pub workflow: WorkflowMetrics,
    /// Per-scenario extras (BDM, range partitioner, pass reports, …).
    pub details: ScenarioDetails,
}

impl Outcome {
    /// Total pair comparisons across every stage of the run — the
    /// workload unit the paper's strategies balance. Uniform over all
    /// scenarios (matching + stitch jobs for JobSN, summed passes for
    /// multi-pass).
    pub fn total_comparisons(&self) -> u64 {
        self.workflow.counters.get(er_loadbalance::COMPARISONS)
    }

    /// Comparison counts per reduce task of the matching job (`None`
    /// for multi-pass runs, which have one matching job per pass).
    pub fn reduce_loads(&self) -> Option<Vec<u64>> {
        self.details
            .match_metrics()
            .map(|m| m.per_reduce_counter(er_loadbalance::COMPARISONS))
    }
}

/// The unified session front end: borrows a [`Runtime`] (whose pool
/// outlives any single run) and compiles [`Scenario`]s into workflows.
///
/// A resolver is a configured *session*: workload knobs set once apply
/// to every subsequent [`Resolver::resolve`] call, and any number of
/// scenarios can be resolved back to back — all on the runtime's
/// persistent worker pool. Internally it keeps one [`ErConfig`] and
/// one [`SnConfig`] template synced with the runtime's
/// [`RuntimeConfig`](mr_engine::runtime::RuntimeConfig), so a compiled
/// scenario is *exactly* what the legacy entry point would have built.
///
/// # Concurrency contract
///
/// `Resolver` is `Send + Sync` (asserted at compile time):
/// [`Resolver::resolve`] may be called from any number of threads at
/// once — on one shared resolver, or on per-tenant clones of it
/// (cloning is cheap; the configs are `Arc`-backed). Concurrent
/// resolves interleave stage-by-stage on the runtime's pool under its
/// [`SchedulingPolicy`](mr_engine::pool::SchedulingPolicy), and each
/// produces the same [`Outcome`] — byte-identical result, exact
/// per-workflow metrics — it would produce running alone. Give each
/// tenant's clone its own [`Resolver::with_tenant`] label to make
/// fair-share scheduling, [`mr_engine::pool::PoolStats`], and the
/// per-tenant trace report section attribute work correctly. One
/// tenant's failure (even an injected panic) never stalls another's
/// dispatch — see [`Runtime`]'s concurrency contract.
#[derive(Clone)]
pub struct Resolver<'rt> {
    runtime: &'rt Runtime,
    er: ErConfig,
    sn: SnConfig,
    lsh: LshConfig,
    /// Tenant label this session's workflows are attributed to on the
    /// shared pool; `None` uses the pool's `"default"` tenant.
    tenant: Option<Arc<str>>,
    /// Session-level trace sink; overrides the runtime's when set.
    trace_sink: Option<Arc<dyn TraceSink>>,
}

/// Compile-time pin of the concurrency contract: sessions must stay
/// shareable across threads so one runtime can serve many concurrent
/// tenants.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Resolver<'_>>();
    assert_send_sync::<Scenario>();
};

// Manual: `dyn TraceSink` carries no `Debug` bound.
impl std::fmt::Debug for Resolver<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Resolver")
            .field("runtime", &self.runtime)
            .field("er", &self.er)
            .field("sn", &self.sn)
            .field("lsh", &self.lsh)
            .field("traced", &self.trace_sink.is_some())
            .finish_non_exhaustive()
    }
}

impl<'rt> Resolver<'rt> {
    /// Starts a session on `runtime`, inheriting its shared knobs
    /// (`reduce_tasks` default, `count_only`,
    /// `matcher_cache_capacity`) and paper-default workload settings.
    pub fn new(runtime: &'rt Runtime) -> Self {
        let shared = *runtime.config();
        Self {
            runtime,
            // The strategy placeholders are overwritten per scenario.
            er: ErConfig::new(StrategyKind::Basic).with_runtime(shared),
            sn: SnConfig::new(SnStrategy::JobSn).with_runtime(shared),
            lsh: LshConfig::new().with_runtime(shared),
            tenant: None,
            trace_sink: None,
        }
    }

    /// The runtime this session executes on.
    pub fn runtime(&self) -> &'rt Runtime {
        self.runtime
    }

    /// Overrides the blocking function of the blocking-based scenarios
    /// (paper default: first 3 letters of `title`).
    pub fn with_blocking(mut self, blocking: Arc<dyn BlockingFunction>) -> Self {
        self.er = self.er.with_blocking(blocking);
        self
    }

    /// Overrides the matcher for every scenario (paper default: edit
    /// distance ≥ 0.8 on `title`).
    pub fn with_matcher(mut self, matcher: Arc<Matcher>) -> Self {
        self.er = self.er.with_matcher(Arc::clone(&matcher));
        self.lsh = self.lsh.with_matcher(Arc::clone(&matcher));
        self.sn = self.sn.with_matcher(matcher);
        self
    }

    /// Overrides the sort key of single-pass SN scenarios (default:
    /// full normalized `title`).
    pub fn with_sort_key(mut self, sort_key: Arc<dyn SortKeyFunction>) -> Self {
        self.sn = self.sn.with_sort_key(sort_key);
        self
    }

    /// Overrides the SN window size (`w ≥ 2`).
    pub fn with_window(mut self, window: usize) -> Self {
        self.sn = self.sn.with_window(window);
        self
    }

    /// Overrides the number of reduce tasks for this session — both
    /// jobs of the blocking scenarios *and* the SN key-range count
    /// (the ranges are the reduce tasks of SN's matching job). Use
    /// [`Resolver::with_partitions`] to set the SN range count
    /// independently.
    pub fn with_reduce_tasks(mut self, r: usize) -> Self {
        self.er = self.er.with_reduce_tasks(r);
        self.lsh = self.lsh.with_reduce_tasks(r);
        self.sn = self.sn.with_partitions(r);
        self
    }

    /// Overrides the SN key-range count only.
    pub fn with_partitions(mut self, partitions: usize) -> Self {
        self.sn = self.sn.with_partitions(partitions);
        self
    }

    /// Overrides the SN histogram sampling rate (in `(0, 1]`).
    pub fn with_sample_rate(mut self, rate: f64) -> Self {
        self.sn = self.sn.with_sample_rate(rate);
        self
    }

    /// Overrides the SN null-sort-key policy.
    pub fn with_null_key_policy(mut self, policy: NullKeyPolicy) -> Self {
        self.sn = self.sn.with_null_key_policy(policy);
        self
    }

    /// Overrides the PairRange range formula.
    pub fn with_range_policy(mut self, policy: RangePolicy) -> Self {
        self.er = self.er.with_range_policy(policy);
        self.lsh = self.lsh.with_range_policy(policy);
        self
    }

    /// Replaces the BlockSplit splitting policy.
    pub fn with_split_policy(mut self, policy: SplitPolicy) -> Self {
        self.er.split_policy = policy;
        self.lsh.split_policy = policy;
        self
    }

    /// Forces BlockSplit to split any block larger than `cap`
    /// entities.
    pub fn with_memory_cap(mut self, cap: u64) -> Self {
        self.er = self.er.with_memory_cap(cap);
        self.lsh.split_policy = SplitPolicy::with_memory_cap(cap);
        self
    }

    /// Toggles the per-map-task combiner of the preprocessing jobs.
    pub fn with_use_combiner(mut self, use_combiner: bool) -> Self {
        self.er.use_combiner = use_combiner;
        self.sn.use_combiner = use_combiner;
        self.lsh.use_combiner = use_combiner;
        self
    }

    /// Switches comparison counting only (no similarity evaluation)
    /// for this session, overriding the runtime default.
    pub fn with_count_only(mut self, count_only: bool) -> Self {
        self.er = self.er.with_count_only(count_only);
        self.sn = self.sn.with_count_only(count_only);
        self.lsh = self.lsh.with_count_only(count_only);
        self
    }

    /// Bounds the prepared-entity caches for this session, overriding
    /// the runtime default.
    pub fn with_matcher_cache_capacity(mut self, capacity: Option<usize>) -> Self {
        self.er = self.er.with_matcher_cache_capacity(capacity);
        self.sn = self.sn.with_matcher_cache_capacity(capacity);
        self.lsh = self.lsh.with_matcher_cache_capacity(capacity);
        self
    }

    /// Sets the map-side spill threshold for this session, overriding
    /// the runtime default: shuffle buckets are sealed into sorted
    /// runs every `threshold` open records, bounding map-phase
    /// resident memory. `None` restores the spill-free default;
    /// outputs are byte-identical at any threshold.
    pub fn with_spill_threshold(mut self, threshold: Option<usize>) -> Self {
        self.er = self.er.with_spill_threshold(threshold);
        self.sn = self.sn.with_spill_threshold(threshold);
        self.lsh = self.lsh.with_spill_threshold(threshold);
        self
    }

    /// Overrides the per-task fault-tolerance policy (retry budget,
    /// straggler deadline) for this session, replacing the runtime's
    /// [`RuntimeConfig::fault_policy`](mr_engine::runtime::RuntimeConfig::fault_policy)
    /// default. Retried or speculated tasks never change the match
    /// result — outputs stay byte-identical to a fault-free run.
    pub fn with_fault_policy(mut self, policy: FaultPolicy) -> Self {
        self.er = self.er.with_fault_policy(policy);
        self.sn = self.sn.with_fault_policy(policy);
        self.lsh = self.lsh.with_fault_policy(policy);
        self
    }

    /// Installs a deterministic fault-injection schedule for every
    /// scenario this session resolves — the test/bench harness that
    /// exercises the retry and speculation paths at exact task
    /// coordinates. An empty plan (the default) injects nothing.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.er = self.er.with_fault_plan(plan.clone());
        self.lsh = self.lsh.with_fault_plan(plan.clone());
        self.sn = self.sn.with_fault_plan(plan);
        self
    }

    /// Replaces the LSH adaptive `(bands, rows)` ladder, widest rung
    /// first — what [`Scenario::lsh_adaptive`] walks until the
    /// candidate workload fits the budget.
    pub fn with_lsh_ladder(mut self, ladder: Vec<LshParams>) -> Self {
        self.lsh = self.lsh.with_ladder(ladder);
        self
    }

    /// Sets the candidate budget the adaptive LSH rounds tighten
    /// towards (`None`, the default, accepts the widest rung
    /// immediately).
    pub fn with_lsh_budget(mut self, budget: Option<u64>) -> Self {
        self.lsh = self.lsh.with_candidate_budget(budget);
        self
    }

    /// Sets the estimated-recall floor each adaptive LSH round is
    /// scored against (default 0.8, evaluated at the target
    /// similarity).
    pub fn with_lsh_recall_floor(mut self, floor: f64) -> Self {
        self.lsh = self.lsh.with_recall_floor(floor);
        self
    }

    /// Overrides how the LSH candidate job balances the banded key
    /// space (default: BlockSplit — oversized band buckets split into
    /// balanced sub-tasks).
    pub fn with_lsh_balance(mut self, balance: StrategyKind) -> Self {
        self.lsh = self.lsh.with_balance(balance);
        self
    }

    /// Overrides the LSH shingle scheme (default: character trigrams).
    pub fn with_lsh_scheme(mut self, scheme: er_core::minhash::ShingleScheme) -> Self {
        self.lsh = self.lsh.with_scheme(scheme);
        self
    }

    /// Overrides the MinHash family seed.
    pub fn with_lsh_seed(mut self, seed: u64) -> Self {
        self.lsh = self.lsh.with_seed(seed);
        self
    }

    /// Overrides the attribute LSH signatures are computed over
    /// (default `title`).
    pub fn with_lsh_attribute(mut self, attribute: impl Into<String>) -> Self {
        self.lsh = self.lsh.with_attribute(attribute);
        self
    }

    /// Labels every workflow this session resolves with `tenant` on
    /// the runtime's shared pool — the identity fair-share scheduling
    /// balances across, [`mr_engine::pool::PoolStats`] reports
    /// inflight work by, and the trace report's per-tenant section
    /// aggregates on. Typical use: clone one configured resolver per
    /// tenant and give each clone its own label. Purely operational —
    /// outputs are byte-identical under any labeling.
    pub fn with_tenant(mut self, tenant: impl Into<Arc<str>>) -> Self {
        self.tenant = Some(tenant.into());
        self
    }

    /// The tenant label of this session, if one is set.
    pub fn tenant(&self) -> Option<&str> {
        self.tenant.as_deref()
    }

    /// Attaches a [`TraceSink`] receiving structured execution events
    /// (task attempts, retries, speculation, spills, pool scheduling;
    /// see [`mr_engine::trace`]) from every scenario this session
    /// resolves — overriding any sink on the runtime. The default (no
    /// sink) resolves untraced at zero cost.
    pub fn with_trace_sink(mut self, sink: Arc<dyn TraceSink>) -> Self {
        self.trace_sink = Some(sink);
        self
    }

    /// The blocking-scenario config this session would compile for
    /// `strategy` — what [`Resolver::resolve`] hands to the stage
    /// compilers, exposed for oracles
    /// ([`er_loadbalance::driver::naive_reference`]) and tests.
    pub fn er_config(&self, strategy: StrategyKind) -> ErConfig {
        self.er.clone().with_strategy(strategy)
    }

    /// The SN config this session would compile for `strategy`.
    pub fn sn_config(&self, strategy: SnStrategy) -> SnConfig {
        self.sn.clone().with_strategy(strategy)
    }

    /// The LSH config this session would compile — a one-rung ladder
    /// when `params` fixes the banding, the session's adaptive ladder
    /// otherwise. Exposed for oracles ([`er_lsh::lsh_oracle`]) and
    /// tests.
    pub fn lsh_config(&self, params: Option<LshParams>) -> LshConfig {
        match params {
            Some(p) => self.lsh.clone().with_params(p),
            None => self.lsh.clone(),
        }
    }

    /// Resolves one scenario over pre-partitioned input (each inner
    /// `Vec` is one input partition == one map task), executing on the
    /// runtime's persistent pool.
    ///
    /// The scenario is compiled into the same workflow stages its
    /// legacy entry point builds, so the outcome's `result` and
    /// counters are byte-identical to the old surface at any
    /// parallelism.
    pub fn resolve(
        &self,
        scenario: &Scenario,
        input: Partitions<(), Ent>,
    ) -> Result<Outcome, ResolveError> {
        self.resolve_in(
            self.runtime.workflow(scenario.workflow_name()),
            scenario,
            input,
        )
    }

    /// Like [`Resolver::resolve`], but caps how many of the runtime's
    /// persistent workers this run may occupy — no new threads are
    /// spawned and none are torn down; the run simply schedules its
    /// tasks onto at most `max_parallelism` of the existing pool.
    ///
    /// Lets one shared runtime serve latency-sensitive foreground runs
    /// next to throughput batch runs. Outputs are byte-identical to
    /// [`Resolver::resolve`] at any cap.
    ///
    /// # Panics
    /// If `max_parallelism` is zero.
    pub fn resolve_with(
        &self,
        scenario: &Scenario,
        input: Partitions<(), Ent>,
        max_parallelism: usize,
    ) -> Result<Outcome, ResolveError> {
        self.resolve_in(
            self.runtime
                .workflow_with_parallelism(scenario.workflow_name(), max_parallelism),
            scenario,
            input,
        )
    }

    fn resolve_in(
        &self,
        mut workflow: Workflow,
        scenario: &Scenario,
        input: Partitions<(), Ent>,
    ) -> Result<Outcome, ResolveError> {
        // Session-level fault settings override the runtime default
        // the workflow was seeded with (`er` and `sn` are kept in
        // sync, so either carries the session's settings).
        workflow = workflow
            .with_fault_policy(self.er.fault_policy())
            .with_fault_plan(self.er.fault_plan().clone());
        if let Some(tenant) = &self.tenant {
            workflow = workflow.with_tenant(Arc::clone(tenant));
        }
        if let Some(sink) = &self.trace_sink {
            workflow = workflow.with_trace_sink(Arc::clone(sink));
        }
        if let Some(tags) = scenario.source_tags() {
            check_source_tags(tags, input.len())?;
        }
        match scenario {
            Scenario::Dedup { strategy } | Scenario::Linkage { strategy, .. } => {
                let config = self.er_config(*strategy);
                let sources = scenario.source_tags().map(<[SourceId]>::to_vec);
                let stages = run_er_in(&mut workflow, input, sources, &config)?;
                Ok(Outcome {
                    result: stages.result,
                    details: ScenarioDetails::Blocked {
                        bdm: stages.bdm,
                        bdm_metrics: stages.bdm_metrics,
                        match_metrics: stages.match_metrics,
                    },
                    workflow: workflow.finish(),
                })
            }
            Scenario::SortedNeighborhood { strategy, passes } if passes.is_empty() => {
                let config = self.sn_config(*strategy);
                let stages = run_sorted_neighborhood_in(&mut workflow, input, &config)?;
                Ok(Outcome {
                    result: stages.result,
                    details: ScenarioDetails::Sorted {
                        partitioner: stages.partitioner,
                        sample_metrics: stages.sample_metrics,
                        match_metrics: stages.match_metrics,
                        stitch_metrics: stages.stitch_metrics,
                    },
                    workflow: workflow.finish(),
                })
            }
            Scenario::SortedNeighborhood { strategy, passes } => {
                let config = self.sn_config(*strategy);
                let stages = run_multipass_sn_in(&mut workflow, input, &config, passes)?;
                Ok(Outcome {
                    result: stages.result,
                    details: ScenarioDetails::MultiPass {
                        passes: stages.passes,
                    },
                    workflow: workflow.finish(),
                })
            }
            Scenario::TwoSourceSn { strategy, sources } => {
                let config = self.sn_config(*strategy);
                let stages = run_two_source_sn_in(&mut workflow, input, sources.clone(), &config)?;
                Ok(Outcome {
                    result: stages.result,
                    details: ScenarioDetails::Sorted {
                        partitioner: stages.partitioner,
                        sample_metrics: stages.sample_metrics,
                        match_metrics: stages.match_metrics,
                        stitch_metrics: stages.stitch_metrics,
                    },
                    workflow: workflow.finish(),
                })
            }
            Scenario::Lsh { params, sources } => {
                let config = self.lsh_config(*params);
                let stages = run_lsh_in(&mut workflow, input, sources.clone(), &config)?;
                Ok(Outcome {
                    result: stages.result,
                    details: ScenarioDetails::Lsh {
                        params: stages.params,
                        rounds: stages.rounds,
                        bdm: stages.bdm,
                        bdm_metrics: stages.bdm_metrics,
                        match_metrics: stages.match_metrics,
                    },
                    workflow: workflow.finish(),
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_core::Entity;
    use mr_engine::input::partition_evenly;
    use mr_engine::runtime::RuntimeConfig;

    fn runtime() -> Runtime {
        Runtime::new(RuntimeConfig::new().with_parallelism(1))
    }

    fn tiny_input() -> Partitions<(), Ent> {
        let entities: Vec<Ent> = [
            "canon eos 5d mark iii",
            "canon eos 5d mark iri",
            "nikon d800 body only",
        ]
        .iter()
        .enumerate()
        .map(|(id, t)| Arc::new(Entity::new(id as u64, [("title", *t)])) as Ent)
        .collect();
        partition_evenly(entities.into_iter().map(|e| ((), e)).collect(), 2)
    }

    #[test]
    fn scenario_names_mirror_the_legacy_workflows() {
        assert_eq!(
            Scenario::Dedup {
                strategy: StrategyKind::BlockSplit
            }
            .workflow_name(),
            "er-BlockSplit"
        );
        assert_eq!(
            Scenario::Linkage {
                strategy: StrategyKind::Basic,
                sources: vec![]
            }
            .workflow_name(),
            "linkage-Basic"
        );
        assert_eq!(
            Scenario::sorted_neighborhood(SnStrategy::JobSn).workflow_name(),
            "sn-JobSN"
        );
        assert_eq!(
            Scenario::multipass_sn(
                SnStrategy::RepSn,
                [Arc::new(er_core::sortkey::AttributeSortKey::title())
                    as Arc<dyn SortKeyFunction>]
            )
            .workflow_name(),
            "sn-multipass-RepSN"
        );
        assert_eq!(
            Scenario::TwoSourceSn {
                strategy: SnStrategy::RepSn,
                sources: vec![]
            }
            .to_string(),
            "sn-two-source-RepSN"
        );
    }

    #[test]
    fn resolve_error_composes_with_question_mark() {
        fn run() -> Result<(), ResolveError> {
            Err(MrError::NoMapTasks)?
        }
        fn run_sn() -> Result<(), ResolveError> {
            Err(SnError::ThinPartition {
                partition: 1,
                entities: 0,
                window: 4,
            })?
        }
        assert_eq!(run().unwrap_err(), ResolveError::Mr(MrError::NoMapTasks));
        let thin = run_sn().unwrap_err();
        assert!(matches!(
            thin,
            ResolveError::ThinPartition { window: 4, .. }
        ));
        assert!(thin.to_string().contains("JobSN"));
        // Error::source threads the engine error through.
        use std::error::Error;
        let mr: ResolveError = MrError::NoMapTasks.into();
        assert!(mr.source().is_some());
        assert!(thin.source().is_none());
        // SnError::Mr flattens to ResolveError::Mr — one engine-error
        // representation, not two nesting depths.
        let flat: ResolveError = SnError::Mr(MrError::NoReduceTasks).into();
        assert_eq!(flat, ResolveError::Mr(MrError::NoReduceTasks));
    }

    #[test]
    fn thin_partition_surfaces_through_resolve() {
        let runtime = runtime();
        let resolver = Resolver::new(&runtime).with_window(4).with_partitions(3);
        let entities: Vec<Ent> = ["aa", "bb", "cc"]
            .iter()
            .enumerate()
            .map(|(id, t)| Arc::new(Entity::new(id as u64, [("title", *t)])) as Ent)
            .collect();
        let input = vec![entities.into_iter().map(|e| ((), e)).collect()];
        let err = resolver
            .resolve(&Scenario::sorted_neighborhood(SnStrategy::RepSn), input)
            .unwrap_err();
        assert!(matches!(err, ResolveError::ThinPartition { .. }));
    }

    #[test]
    fn outcome_exposes_uniform_accessors() {
        let runtime = runtime();
        let resolver = Resolver::new(&runtime);
        let outcome = resolver
            .resolve(
                &Scenario::Dedup {
                    strategy: StrategyKind::BlockSplit,
                },
                tiny_input(),
            )
            .unwrap();
        assert_eq!(outcome.result.len(), 1);
        assert!(outcome.total_comparisons() >= 1);
        assert_eq!(
            outcome.reduce_loads().expect("one matching job").len(),
            runtime.config().reduce_tasks
        );
        assert!(outcome.details.bdm().is_some());
        assert!(outcome.details.match_metrics().is_some());
        assert!(outcome.details.partitioner().is_none());
        assert!(outcome.details.passes().is_none());
        assert_eq!(outcome.workflow.num_stages(), 2);
    }

    #[test]
    fn session_knobs_flow_into_compiled_configs() {
        let runtime = Runtime::new(
            RuntimeConfig::new()
                .with_parallelism(1)
                .with_reduce_tasks(9)
                .with_count_only(true),
        );
        let resolver = Resolver::new(&runtime).with_window(6);
        let er = resolver.er_config(StrategyKind::PairRange);
        assert_eq!(er.reduce_tasks(), 9);
        assert!(er.count_only());
        let sn = resolver.sn_config(SnStrategy::RepSn);
        assert_eq!(sn.partitions(), 9, "reduce_tasks default reaches SN ranges");
        assert_eq!(sn.window, 6);
        assert!(sn.count_only());
        // A per-session override narrows only this session.
        let narrowed = resolver.clone().with_reduce_tasks(3).with_partitions(5);
        assert_eq!(narrowed.er_config(StrategyKind::Basic).reduce_tasks(), 3);
        assert_eq!(narrowed.sn_config(SnStrategy::JobSn).partitions(), 5);
        assert_eq!(runtime.config().reduce_tasks, 9, "runtime stays untouched");
    }
}
