//! End-to-end determinism: the full two-job ER pipeline must produce
//! byte-identical outputs regardless of worker parallelism, and the
//! side-output plumbing must preserve partition shape between jobs.
#![allow(clippy::type_complexity)]

use std::sync::Arc;

use dedupe_mr::prelude::*;
use er_datagen::{ds1_spec, generate_products};

fn input(m: usize) -> Partitions<(), Ent> {
    let ds = generate_products(&ds1_spec(55).scaled(0.005));
    partition_evenly(
        ds.entities.into_iter().map(|e| ((), Arc::new(e))).collect(),
        m,
    )
}

#[test]
fn results_are_identical_across_parallelism_levels() {
    for strategy in [
        StrategyKind::Basic,
        StrategyKind::BlockSplit,
        StrategyKind::PairRange,
    ] {
        let mut reference: Option<(Vec<(MatchPair, String)>, Vec<u64>)> = None;
        for parallelism in [1usize, 2, 8] {
            let config = ErConfig::new(strategy)
                .with_reduce_tasks(12)
                .with_parallelism(parallelism);
            let outcome = run_er(input(5), &config).unwrap();
            let fingerprint: Vec<(MatchPair, String)> = outcome
                .result
                .iter()
                .map(|(p, s)| (p, format!("{s:.12}")))
                .collect();
            let loads = outcome.reduce_loads();
            match &reference {
                None => reference = Some((fingerprint, loads)),
                Some((fp, ld)) => {
                    assert_eq!(fp, &fingerprint, "{strategy} at parallelism {parallelism}");
                    assert_eq!(
                        ld, &loads,
                        "{strategy}: even per-task loads must be identical"
                    );
                }
            }
        }
    }
}

#[test]
fn sort_merge_shuffle_reproduces_byte_identical_reduce_outputs() {
    // The shuffle rework (map-side sorted runs + in-reduce k-way
    // merge) must keep the engine's strongest guarantee: the *exact*
    // per-reduce-task output structure — scores compared by bit
    // pattern, not epsilon — is independent of worker parallelism.
    use er_core::Matcher;
    use er_loadbalance::basic::basic_job;
    use er_loadbalance::compare::PairComparer;

    let mut reference: Option<Vec<Vec<(MatchPair, u64)>>> = None;
    for parallelism in [1usize, 2, 4, 8] {
        let job = basic_job(
            Arc::new(PrefixBlocking::title3()),
            None,
            PairComparer::new(Arc::new(Matcher::paper_default())),
            6,
            parallelism,
        );
        let out = job.run(input(4)).unwrap();
        let fingerprint: Vec<Vec<(MatchPair, u64)>> = out
            .reduce_outputs
            .into_iter()
            .map(|task| {
                task.into_iter()
                    .map(|(pair, score)| (pair, score.to_bits()))
                    .collect()
            })
            .collect();
        match &reference {
            None => reference = Some(fingerprint),
            Some(r) => assert_eq!(
                r, &fingerprint,
                "parallelism {parallelism} changed reduce_outputs"
            ),
        }
    }
}

#[test]
fn bdm_is_independent_of_reduce_task_count() {
    // The BDM describes the data, not the job configuration.
    let mut reference: Option<String> = None;
    for r in [2usize, 7, 31] {
        let config = ErConfig::new(StrategyKind::BlockSplit)
            .with_reduce_tasks(r)
            .with_parallelism(2);
        let outcome = run_er(input(4), &config).unwrap();
        let tsv = outcome.bdm.unwrap().to_tsv();
        match &reference {
            None => reference = Some(tsv),
            Some(t) => assert_eq!(t, &tsv, "BDM changed with r={r}"),
        }
    }
}

#[test]
fn more_map_tasks_do_not_change_results() {
    let mut reference: Option<std::collections::BTreeSet<MatchPair>> = None;
    for m in [1usize, 3, 9] {
        let config = ErConfig::new(StrategyKind::PairRange)
            .with_reduce_tasks(8)
            .with_parallelism(2);
        let outcome = run_er(input(m), &config).unwrap();
        let pairs = outcome.result.pair_set();
        match &reference {
            None => reference = Some(pairs),
            Some(p) => assert_eq!(p, &pairs, "m={m} changed the result"),
        }
    }
}

#[test]
fn multipass_pipeline_is_deterministic_and_duplicate_free() {
    use er_core::blocking::{AttributeBlocking, MultiPassBlocking};
    let blocking: Arc<dyn BlockingFunction> = Arc::new(MultiPassBlocking::new(vec![
        Arc::new(PrefixBlocking::title3()),
        Arc::new(AttributeBlocking::new("sku")),
    ]));
    let config = ErConfig::new(StrategyKind::BlockSplit)
        .with_blocking(blocking)
        .with_reduce_tasks(9)
        .with_parallelism(4);
    let a = run_er(input(4), &config).unwrap();
    let b = run_er(input(4), &config).unwrap();
    assert_eq!(a.result.pair_set(), b.result.pair_set());
    // Multi-pass may skip but never double-count: comparisons +
    // skipped == BDM pair total.
    let skipped = a
        .match_metrics
        .counters
        .get(er_loadbalance::compare::MULTIPASS_SKIPPED);
    assert_eq!(
        a.total_comparisons() + skipped,
        a.bdm.unwrap().total_pairs()
    );
}
