//! Criterion micro-benchmarks for the similarity kernels — the inner
//! loop of every reduce task, and the constant the cluster simulator
//! calibrates.
//!
//! The `blocked_matching` group measures the tentpole win: all-pairs
//! matching over one block through the naive per-pair string path vs
//! the prepare-once path (`Matcher::prepare` + `score_prepared`).
//!
//! The `levenshtein_at_least` case times the paper's thresholded match
//! kernel (`NormalizedLevenshtein::sim_view_at_least` at floor 0.8) on
//! DS1-shaped titles and writes `BENCH_micro_similarity.json` via
//! [`er_bench::write_bench_json`]; CI smoke-runs it with `--test` and
//! re-parses the export.

use std::sync::Arc;
use std::time::Instant;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use er_bench::{median_ms, write_bench_json, Json, PAPER_SEED};
use er_core::similarity::{
    levenshtein_distance, levenshtein_within, Jaccard, JaroWinkler, MongeElkan, NGram,
    NormalizedLevenshtein, Prepared, Similarity,
};
use er_core::{Entity, MatchRule, Matcher};

const A: &str = "babpro k3vd9qmzx21ab camera";
const B: &str = "babpro k3vd9qmzx21ac camera";
const C: &str = "zzmax w8jf02qrty45cd printer";

/// One synthetic block of near-duplicate product titles.
fn block(size: usize) -> Vec<Entity> {
    (0..size)
        .map(|i| {
            Entity::new(
                i as u64,
                [(
                    "title",
                    format!("babpro k3vd9qmzx21ab camera kit rev{:02}", i % 17).as_str(),
                )],
            )
        })
        .collect()
}

fn all_pairs_naive(matcher: &Matcher, entities: &[Entity]) -> usize {
    let mut matches = 0;
    for i in 0..entities.len() {
        for j in (i + 1)..entities.len() {
            if matcher.matches(&entities[i], &entities[j]).is_some() {
                matches += 1;
            }
        }
    }
    matches
}

fn all_pairs_prepared(matcher: &Matcher, entities: &[Entity]) -> usize {
    let prepared: Vec<_> = entities.iter().map(|e| matcher.prepare(e)).collect();
    let mut matches = 0;
    for i in 0..prepared.len() {
        for j in (i + 1)..prepared.len() {
            if matcher
                .matches_prepared(&prepared[i], &prepared[j])
                .is_some()
            {
                matches += 1;
            }
        }
    }
    matches
}

fn bench_blocked_matching(c: &mut Criterion) {
    const BLOCK: usize = 48;
    let entities = block(BLOCK);
    let configs: Vec<(&str, Matcher)> = vec![
        (
            "levenshtein",
            Matcher::new(
                vec![MatchRule::new("title", Arc::new(NormalizedLevenshtein))],
                0.8,
            ),
        ),
        (
            "trigram",
            Matcher::new(
                vec![MatchRule::new("title", Arc::new(NGram::trigram()))],
                0.8,
            ),
        ),
        (
            "jaccard",
            Matcher::new(vec![MatchRule::new("title", Arc::new(Jaccard))], 0.5),
        ),
        (
            "monge-elkan",
            Matcher::new(
                vec![MatchRule::new("title", Arc::new(MongeElkan::default()))],
                0.8,
            ),
        ),
    ];
    let mut g = c.benchmark_group(format!("blocked_matching_b{BLOCK}"));
    for (name, matcher) in &configs {
        // Sanity: both paths must agree before we time them.
        assert_eq!(
            all_pairs_naive(matcher, &entities),
            all_pairs_prepared(matcher, &entities),
            "{name}: prepared path diverged"
        );
        g.bench_function(format!("{name}/naive"), |b| {
            b.iter(|| all_pairs_naive(black_box(matcher), black_box(&entities)))
        });
        g.bench_function(format!("{name}/prepared"), |b| {
            b.iter(|| all_pairs_prepared(black_box(matcher), black_box(&entities)))
        });
    }
    g.finish();
}

fn bench_similarity(c: &mut Criterion) {
    let mut g = c.benchmark_group("similarity");
    g.bench_function("levenshtein/near", |b| {
        b.iter(|| levenshtein_distance(black_box(A), black_box(B)))
    });
    g.bench_function("levenshtein/far", |b| {
        b.iter(|| levenshtein_distance(black_box(A), black_box(C)))
    });
    g.bench_function("levenshtein_within/k5", |b| {
        b.iter(|| levenshtein_within(black_box(A), black_box(C), 5))
    });
    g.bench_function("normalized_levenshtein", |b| {
        let s = NormalizedLevenshtein;
        b.iter(|| s.sim(black_box(A), black_box(B)))
    });
    g.bench_function("jaro_winkler", |b| {
        let s = JaroWinkler::default();
        b.iter(|| s.sim(black_box(A), black_box(B)))
    });
    g.bench_function("jaccard", |b| {
        let s = Jaccard;
        b.iter(|| s.sim(black_box(A), black_box(B)))
    });
    g.bench_function("trigram", |b| {
        let s = NGram::trigram();
        b.iter(|| s.sim(black_box(A), black_box(B)))
    });
    g.finish();
}

/// Sorted-neighbour pairs (each title against the next
/// `WINDOW - 1`) over the titles of a scaled DS1-like corpus, all
/// 25–29 scalars long: near-duplicates and near-misses in the mix the
/// reducers see.
fn ds1_title_pairs(scale: f64) -> (Vec<String>, Vec<Prepared>, Vec<(usize, usize)>) {
    const WINDOW: usize = 8;
    let ds = er_datagen::generate_products(&er_datagen::ds1_spec(PAPER_SEED).scaled(scale));
    let mut titles: Vec<String> = ds
        .entities
        .iter()
        .filter_map(|e| e.get("title").map(str::to_string))
        .collect();
    titles.sort();
    let s = NormalizedLevenshtein;
    let prepared: Vec<Prepared> = titles.iter().map(|t| s.prepare(t)).collect();
    let pairs = (0..prepared.len())
        .flat_map(|i| ((i + 1)..(i + WINDOW).min(prepared.len())).map(move |j| (i, j)))
        .collect();
    (titles, prepared, pairs)
}

/// Not a criterion benchmark: times the thresholded kernel over the
/// DS1 title pairs (median of `reps` sweeps) and exports it, with the
/// deterministic pair and match counts, as
/// `BENCH_micro_similarity.json`.
fn levenshtein_at_least(c: &mut Criterion) {
    const FLOOR: f64 = 0.8;
    let (scale, reps) = if c.is_test_mode() {
        (0.005, 1)
    } else {
        (0.05, 15)
    };
    let (titles, prepared, pairs) = ds1_title_pairs(scale);
    let lengths = titles.iter().map(|t| t.chars().count());
    let (min_len, max_len) = (
        lengths.clone().min().unwrap_or(0),
        lengths.max().unwrap_or(0),
    );
    let s = NormalizedLevenshtein;
    let sweep = || {
        pairs
            .iter()
            .filter(|&&(i, j)| {
                s.sim_view_at_least(
                    black_box(&prepared[i].view()),
                    black_box(&prepared[j].view()),
                    FLOOR,
                )
                .is_some()
            })
            .count()
    };
    let matches = sweep();
    let mut sweeps_ms = Vec::with_capacity(reps);
    for _ in 0..reps {
        let started = Instant::now();
        assert_eq!(black_box(sweep()), matches, "the kernel is deterministic");
        sweeps_ms.push(started.elapsed().as_secs_f64() * 1e3);
    }
    let sweep_ms = median_ms(&sweeps_ms);
    let ns_per_pair = sweep_ms * 1e6 / pairs.len().max(1) as f64;
    println!(
        "{:<44} {ns_per_pair:.1} ns/pair over {} pairs of {}-{} scalar titles, \
         {matches} matches at floor {FLOOR} (median of {reps} sweeps)",
        "similarity/levenshtein_at_least",
        pairs.len(),
        min_len,
        max_len,
    );
    let json = Json::obj([
        ("bench", Json::str("micro_similarity")),
        ("case", Json::str("levenshtein_at_least")),
        ("scale", Json::Num(scale)),
        ("floor", Json::Num(FLOOR)),
        ("title_len_min", Json::Num(min_len as f64)),
        ("title_len_max", Json::Num(max_len as f64)),
        ("pairs", Json::Num(pairs.len() as f64)),
        ("matches", Json::Num(matches as f64)),
        ("samples", Json::Num(reps as f64)),
        ("median_sweep_ms", Json::Num(sweep_ms)),
        ("median_ns_per_pair", Json::Num(ns_per_pair)),
    ]);
    write_bench_json("micro_similarity", &json).expect("bench json export");
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_similarity, bench_blocked_matching, levenshtein_at_least
}
criterion_main!(benches);
