//! Acceptance suite for the unified `Runtime` + `Resolver` front door:
//!
//! * **old-vs-new equivalence** — every [`Scenario`] must produce
//!   byte-identical output (match pairs *and* score bits) and equal
//!   `WorkflowMetrics` counters / stage names / per-reduce loads vs
//!   its legacy entry point, across parallelism {1, 2, 4};
//! * **pool reuse** — one `Runtime` runs several scenarios back to
//!   back on the worker pool it spawned at construction: no further
//!   thread spawn, no output drift.

use std::sync::Arc;

use dedupe_mr::prelude::*;
use er_datagen::{ds1_spec, generate_products};
use mr_engine::metrics::JobMetrics;

const PARALLELISM_LEVELS: [usize; 3] = [1, 2, 4];

/// A DS1-shaped corpus small enough for the full matrix: scenarios ×
/// strategies × parallelism levels, all with real similarity
/// evaluation.
fn corpus(m: usize) -> Partitions<(), Ent> {
    let ds = generate_products(&ds1_spec(77).scaled(0.003));
    partition_evenly(
        ds.entities.into_iter().map(|e| ((), Arc::new(e))).collect(),
        m,
    )
}

/// Two-source input: the corpus split into an R and an S catalog.
fn two_source_corpus() -> (Partitions<(), Ent>, Vec<SourceId>) {
    let ds = generate_products(&ds1_spec(78).scaled(0.003));
    let mut r = Vec::new();
    let mut s = Vec::new();
    for (i, e) in ds.entities.into_iter().enumerate() {
        if i % 2 == 0 {
            r.push(Arc::new(e) as Ent);
        } else {
            s.push(Arc::new(Entity::with_source(SourceId::S, e.id().0, e.attributes())) as Ent);
        }
    }
    two_source_input(r, s, 2)
}

fn passes() -> Vec<Arc<dyn SortKeyFunction>> {
    vec![
        Arc::new(AttributeSortKey::title()),
        Arc::new(ReversedSortKey::title()),
    ]
}

/// Byte-exact view of a match result: pairs plus raw score bits.
fn result_bits(result: &MatchResult) -> Vec<(MatchPair, u64)> {
    result.iter().map(|(p, s)| (p, s.to_bits())).collect()
}

fn stage_names(metrics: &WorkflowMetrics) -> Vec<String> {
    metrics.stages.iter().map(|s| s.job_name.clone()).collect()
}

fn reduce_loads(metrics: &JobMetrics) -> Vec<u64> {
    metrics.per_reduce_counter(COMPARISONS)
}

/// Asserts the new outcome is indistinguishable from a legacy result
/// in everything deterministic: match output (bit-exact scores),
/// workflow name, stage names, merged counters, and per-stage merged
/// counters.
fn assert_equivalent(
    context: &str,
    new: &dedupe_mr::Outcome,
    legacy_result: &MatchResult,
    legacy_workflow: &WorkflowMetrics,
) {
    assert_eq!(
        result_bits(&new.result),
        result_bits(legacy_result),
        "{context}: match output must be byte-identical"
    );
    assert_eq!(
        new.workflow.workflow_name, legacy_workflow.workflow_name,
        "{context}: workflow name"
    );
    assert_eq!(
        stage_names(&new.workflow),
        stage_names(legacy_workflow),
        "{context}: stage composition"
    );
    assert_eq!(
        new.workflow.counters, legacy_workflow.counters,
        "{context}: merged workflow counters"
    );
    for (stage_new, stage_old) in new.workflow.stages.iter().zip(&legacy_workflow.stages) {
        assert_eq!(
            stage_new.counters, stage_old.counters,
            "{context}: stage `{}` counters",
            stage_old.job_name
        );
        assert_eq!(
            reduce_loads(stage_new),
            reduce_loads(stage_old),
            "{context}: stage `{}` per-reduce comparison loads",
            stage_old.job_name
        );
    }
}

#[test]
fn dedup_scenario_equals_run_er_across_parallelism() {
    let input = corpus(3);
    for parallelism in PARALLELISM_LEVELS {
        let runtime = Runtime::new(
            RuntimeConfig::new()
                .with_parallelism(parallelism)
                .with_reduce_tasks(5),
        );
        let resolver = Resolver::new(&runtime);
        for strategy in [
            StrategyKind::Basic,
            StrategyKind::BlockSplit,
            StrategyKind::PairRange,
        ] {
            let legacy = run_er(input.clone(), &resolver.er_config(strategy)).unwrap();
            let new = resolver
                .resolve(&Scenario::Dedup { strategy }, input.clone())
                .unwrap();
            assert_equivalent(
                &format!("dedup/{strategy}/p{parallelism}"),
                &new,
                &legacy.result,
                &legacy.workflow,
            );
            assert_eq!(new.total_comparisons(), legacy.total_comparisons());
            assert_eq!(new.reduce_loads(), Some(legacy.reduce_loads()));
            assert_eq!(
                new.details.bdm().map(|b| b.total_pairs()),
                legacy.bdm.as_ref().map(|b| b.total_pairs())
            );
        }
    }
}

#[test]
fn linkage_scenario_equals_run_linkage_across_parallelism() {
    let (input, sources) = two_source_corpus();
    for parallelism in PARALLELISM_LEVELS {
        let runtime = Runtime::new(RuntimeConfig::new().with_parallelism(parallelism));
        let resolver = Resolver::new(&runtime);
        for strategy in [
            StrategyKind::Basic,
            StrategyKind::BlockSplit,
            StrategyKind::PairRange,
        ] {
            let legacy = run_linkage(
                input.clone(),
                sources.clone(),
                &resolver.er_config(strategy),
            )
            .unwrap();
            let new = resolver
                .resolve(
                    &Scenario::Linkage {
                        strategy,
                        sources: sources.clone(),
                    },
                    input.clone(),
                )
                .unwrap();
            assert_equivalent(
                &format!("linkage/{strategy}/p{parallelism}"),
                &new,
                &legacy.result,
                &legacy.workflow,
            );
            assert!(
                new.result
                    .iter()
                    .all(|(pair, _)| pair.lo().source != pair.hi().source),
                "linkage output must stay cross-source"
            );
        }
    }
}

#[test]
fn sorted_neighborhood_scenario_equals_run_sorted_neighborhood() {
    let input = corpus(3);
    for parallelism in PARALLELISM_LEVELS {
        let runtime = Runtime::new(RuntimeConfig::new().with_parallelism(parallelism));
        let resolver = Resolver::new(&runtime).with_window(5).with_partitions(4);
        for strategy in [SnStrategy::JobSn, SnStrategy::RepSn] {
            let legacy =
                run_sorted_neighborhood(input.clone(), &resolver.sn_config(strategy)).unwrap();
            let new = resolver
                .resolve(&Scenario::sorted_neighborhood(strategy), input.clone())
                .unwrap();
            assert_equivalent(
                &format!("sn/{strategy}/p{parallelism}"),
                &new,
                &legacy.result,
                &legacy.workflow,
            );
            assert_eq!(new.total_comparisons(), legacy.total_comparisons());
            assert_eq!(
                new.details.partitioner().map(|p| p.num_partitions()),
                Some(legacy.partitioner.num_partitions())
            );
        }
    }
}

#[test]
fn multipass_scenario_equals_run_multipass_sn() {
    let input = corpus(2);
    for parallelism in PARALLELISM_LEVELS {
        let runtime = Runtime::new(RuntimeConfig::new().with_parallelism(parallelism));
        let resolver = Resolver::new(&runtime).with_window(4).with_partitions(3);
        for strategy in [SnStrategy::JobSn, SnStrategy::RepSn] {
            let legacy =
                run_multipass_sn(input.clone(), &resolver.sn_config(strategy), &passes()).unwrap();
            let new = resolver
                .resolve(&Scenario::multipass_sn(strategy, passes()), input.clone())
                .unwrap();
            assert_equivalent(
                &format!("sn-multipass/{strategy}/p{parallelism}"),
                &new,
                &legacy.result,
                &legacy.workflow,
            );
            let new_passes = new.details.passes().expect("multi-pass reports");
            assert_eq!(new_passes.len(), legacy.passes.len());
            for (a, b) in new_passes.iter().zip(&legacy.passes) {
                assert_eq!(a.comparisons, b.comparisons);
                assert_eq!(a.skipped, b.skipped);
                assert_eq!(a.new_matches, b.new_matches);
            }
            assert_eq!(new.total_comparisons(), legacy.total_comparisons());
        }
    }
}

#[test]
fn two_source_sn_scenario_equals_run_two_source_sn() {
    let (input, sources) = two_source_corpus();
    for parallelism in PARALLELISM_LEVELS {
        let runtime = Runtime::new(RuntimeConfig::new().with_parallelism(parallelism));
        let resolver = Resolver::new(&runtime).with_window(4).with_partitions(3);
        for strategy in [SnStrategy::JobSn, SnStrategy::RepSn] {
            let legacy = run_two_source_sn(
                input.clone(),
                sources.clone(),
                &resolver.sn_config(strategy),
            )
            .unwrap();
            let new = resolver
                .resolve(
                    &Scenario::TwoSourceSn {
                        strategy,
                        sources: sources.clone(),
                    },
                    input.clone(),
                )
                .unwrap();
            assert_equivalent(
                &format!("sn-two-source/{strategy}/p{parallelism}"),
                &new,
                &legacy.result,
                &legacy.workflow,
            );
        }
    }
}

#[test]
fn count_only_sessions_count_without_scoring_across_scenarios() {
    // ErConfig always had count-only mode; through the shared
    // RuntimeConfig it now reaches SN scenarios too: identical
    // comparison counters, empty match result.
    let input = corpus(2);
    let runtime = Runtime::new(RuntimeConfig::new().with_parallelism(2));
    let full = Resolver::new(&runtime).with_window(4).with_partitions(3);
    let counting = full.clone().with_count_only(true);
    for scenario in [
        Scenario::Dedup {
            strategy: StrategyKind::BlockSplit,
        },
        Scenario::sorted_neighborhood(SnStrategy::JobSn),
        Scenario::sorted_neighborhood(SnStrategy::RepSn),
        Scenario::multipass_sn(SnStrategy::JobSn, passes()),
    ] {
        let scored = full.resolve(&scenario, input.clone()).unwrap();
        let counted = counting.resolve(&scenario, input.clone()).unwrap();
        assert_eq!(
            counted.total_comparisons(),
            scored.total_comparisons(),
            "{scenario}: count-only must count the same workload"
        );
        assert!(
            counted.result.is_empty(),
            "{scenario}: count-only must not score"
        );
        assert!(!scored.result.is_empty(), "{scenario}: corpus has matches");
    }
}

#[test]
fn resolve_with_caps_parallelism_without_spawning_threads() {
    let input = corpus(3);
    let runtime = Runtime::new(
        RuntimeConfig::new()
            .with_parallelism(4)
            .with_reduce_tasks(5),
    );
    let resolver = Resolver::new(&runtime).with_window(4).with_partitions(3);
    let spawned_at_construction = runtime.pool().threads_spawned();
    assert_eq!(spawned_at_construction, 4);

    for scenario in [
        Scenario::Dedup {
            strategy: StrategyKind::BlockSplit,
        },
        Scenario::sorted_neighborhood(SnStrategy::JobSn),
    ] {
        let uncapped = resolver.resolve(&scenario, input.clone()).unwrap();
        for cap in [1, 2, 8] {
            let capped = resolver
                .resolve_with(&scenario, input.clone(), cap)
                .unwrap();
            assert_eq!(
                result_bits(&capped.result),
                result_bits(&uncapped.result),
                "{scenario}/cap{cap}: capped run drifted from the uncapped one"
            );
            assert_eq!(
                capped.workflow.counters, uncapped.workflow.counters,
                "{scenario}/cap{cap}: merged workflow counters"
            );
            assert_eq!(
                runtime.pool().threads_spawned(),
                spawned_at_construction,
                "{scenario}/cap{cap}: a capped run must reuse the pool, not respawn it"
            );
        }
    }
}

#[test]
fn one_runtime_reuses_its_pool_across_scenarios_without_drift() {
    let input = corpus(3);
    let (ts_input, ts_sources) = two_source_corpus();

    // Reference outcomes from the legacy, transient-pool entry points.
    let runtime = Runtime::new(
        RuntimeConfig::new()
            .with_parallelism(2)
            .with_reduce_tasks(4),
    );
    let resolver = Resolver::new(&runtime).with_window(4).with_partitions(3);
    let legacy_dedup =
        run_er(input.clone(), &resolver.er_config(StrategyKind::BlockSplit)).unwrap();
    let legacy_sn =
        run_sorted_neighborhood(input.clone(), &resolver.sn_config(SnStrategy::JobSn)).unwrap();
    let legacy_linkage = run_two_source_sn(
        ts_input.clone(),
        ts_sources.clone(),
        &resolver.sn_config(SnStrategy::RepSn),
    )
    .unwrap();

    let spawned_at_construction = runtime.pool().threads_spawned();
    assert_eq!(spawned_at_construction, 2);

    // Three different scenarios, twice each, all on the one pool.
    for round in 0..2 {
        let mut executed_before = runtime.pool().tasks_executed();
        let dedup = resolver
            .resolve(
                &Scenario::Dedup {
                    strategy: StrategyKind::BlockSplit,
                },
                input.clone(),
            )
            .unwrap();
        assert_eq!(
            result_bits(&dedup.result),
            result_bits(&legacy_dedup.result),
            "round {round}: dedup drifted"
        );
        let sn = resolver
            .resolve(
                &Scenario::sorted_neighborhood(SnStrategy::JobSn),
                input.clone(),
            )
            .unwrap();
        assert_eq!(
            result_bits(&sn.result),
            result_bits(&legacy_sn.result),
            "round {round}: sn drifted"
        );
        let linkage = resolver
            .resolve(
                &Scenario::TwoSourceSn {
                    strategy: SnStrategy::RepSn,
                    sources: ts_sources.clone(),
                },
                ts_input.clone(),
            )
            .unwrap();
        assert_eq!(
            result_bits(&linkage.result),
            result_bits(&legacy_linkage.result),
            "round {round}: two-source sn drifted"
        );
        for outcome in [&dedup, &sn, &linkage] {
            let executed_now = runtime.pool().tasks_executed();
            assert!(executed_now >= executed_before, "counter is monotonic");
            executed_before = executed_now;
            assert!(outcome.workflow.num_stages() >= 2);
        }
        assert_eq!(
            runtime.pool().threads_spawned(),
            spawned_at_construction,
            "round {round}: a scenario run spawned threads — the hot path must reuse the pool"
        );
    }
    assert!(
        runtime.pool().tasks_executed() > 0,
        "the scenarios must actually have executed on the pool"
    );
}

#[test]
fn ill_fitting_source_tags_are_typed_errors_and_the_runtime_survives() {
    let (input, sources) = two_source_corpus();
    assert_eq!(input.len(), 4);
    let runtime = Runtime::new(
        RuntimeConfig::new()
            .with_parallelism(2)
            .with_reduce_tasks(3),
    );
    let resolver = Resolver::new(&runtime).with_window(4).with_partitions(3);
    let spawned_at_construction = runtime.pool().threads_spawned();
    let scenarios = |tags: Vec<SourceId>| {
        [
            Scenario::Linkage {
                strategy: StrategyKind::BlockSplit,
                sources: tags.clone(),
            },
            Scenario::TwoSourceSn {
                strategy: SnStrategy::JobSn,
                sources: tags.clone(),
            },
            Scenario::lsh_linkage(Some(LshParams { bands: 8, rows: 2 }), tags),
        ]
    };
    let mut unknown = sources.clone();
    unknown[3] = SourceId(7);
    for (tags, expected) in [
        (
            vec![SourceId::R],
            SourceTagError::Count {
                tags: 1,
                partitions: 4,
            },
        ),
        (
            unknown,
            SourceTagError::Unknown {
                partition: 3,
                tag: SourceId(7),
            },
        ),
    ] {
        for scenario in scenarios(tags.clone()) {
            let err = resolver.resolve(&scenario, input.clone()).unwrap_err();
            assert_eq!(err, ResolveError::SourceTags(expected), "{scenario}");
        }
    }
    for scenario in scenarios(sources) {
        let outcome = resolver.resolve(&scenario, input.clone()).unwrap();
        assert!(outcome.total_comparisons() > 0, "{scenario}");
    }
    assert_eq!(
        runtime.pool().threads_spawned(),
        spawned_at_construction,
        "rejected resolves must leave the pool as it was"
    );
}
