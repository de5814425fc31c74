//! The phases of one benchmark run: set-up and the closed-loop timed
//! phase (optionally traced).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use dedupe_mr::mr_engine::trace::TraceRecorder;
use dedupe_mr::prelude::*;

use crate::layers::{CaseCounts, LayerSample};
use crate::stats::SplitMix64;
use crate::workload::{fingerprint, Case, Workload};

/// One resolve a client made.
pub struct Record {
    /// Index of the case resolved.
    pub case: usize,
    pub wall: Duration,
    /// Fingerprint of the result; `None` when the resolve returned
    /// `Err` or panicked.
    pub fingerprint: Option<u64>,
    /// Whether a trace sink was attached.
    pub traced: bool,
    /// The layer split and the exact counts (absent when the resolve
    /// failed).
    pub layers: Option<(LayerSample, CaseCounts)>,
}

/// Resolves `case` once, timing the call and fingerprinting the
/// result for the check against the reference.
pub fn resolve_once(
    resolver: &Resolver<'_>,
    case_index: usize,
    case: &Case,
    traced: bool,
) -> Record {
    let input = case.input.clone();
    let recorder = traced.then(|| Arc::new(TraceRecorder::new()));
    let traced_session;
    let session = match &recorder {
        Some(r) => {
            traced_session = resolver.clone().with_trace_sink(Arc::clone(r) as _);
            &traced_session
        }
        None => resolver,
    };
    let start = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| session.resolve(&case.scenario, input)));
    let wall = start.elapsed();
    let outcome = match outcome {
        Ok(Ok(outcome)) => Some(outcome),
        Ok(Err(err)) => {
            eprintln!("{}: resolve failed: {err}", case.label);
            None
        }
        Err(_) => {
            eprintln!("{}: resolve panicked", case.label);
            None
        }
    };
    let events = recorder.map(|r| r.events()).unwrap_or_default();
    let layers = outcome
        .as_ref()
        .map(|o| (LayerSample::new(wall, o, &events), CaseCounts::new(o)));
    Record {
        case: case_index,
        wall,
        fingerprint: outcome.as_ref().map(|o| fingerprint(&o.result)),
        traced,
        layers,
    }
}

/// Builds a runtime and warms it with one resolve of every case:
/// returns the runtime, the set-up time, and the warm-up resolves.
pub fn set_up(workload: &Workload, parallelism: usize) -> (Runtime, Duration, Vec<Record>) {
    let start = Instant::now();
    let runtime = Runtime::new(workload.runtime_config(parallelism));
    let resolver = workload.resolver(&runtime);
    let warm_ups = workload
        .cases
        .iter()
        .enumerate()
        .map(|(i, case)| resolve_once(&resolver, i, case, false))
        .collect();
    let elapsed = start.elapsed();
    (runtime, elapsed, warm_ups)
}

/// Whether `record` returned a result equal to its case's reference.
pub fn matches_reference(workload: &Workload, record: &Record) -> bool {
    let case = &workload.cases[record.case];
    let reference = case
        .reference
        .expect("references are computed before checking");
    let ok = record.fingerprint == Some(reference);
    if record.fingerprint.is_some() && !ok {
        eprintln!("{}: result differs from the reference", case.label);
    }
    ok
}

/// What a timed phase produced.
pub struct Phase {
    pub records: Vec<Record>,
    /// First request sent to last reply received.
    pub wall: Duration,
    /// The process's peak resident set (`VmHWM`) at the end of the
    /// phase, in MB: the largest of every set-up and timed resolve
    /// before it, counted exactly by the kernel rather than sampled.
    pub peak_rss_mb: f64,
}

/// Runs the closed loop for `seconds`: each of the workload's clients
/// sends its next request only after its previous reply. A client
/// walks its cases in rounds, each round every case once in its own
/// seeded order, so every case is resolved equally often (within one
/// round) whatever the seed. Every client makes at least one request
/// (two with `trace_alternate`). With `trace_alternate`, every second
/// request of each client is traced, so traced and untraced resolves
/// share the same stretch of time.
pub fn timed_phase(
    workload: &Workload,
    resolver: &Resolver<'_>,
    seconds: f64,
    seed: u64,
    trace_alternate: bool,
) -> Phase {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let records = thread::scope(|scope| {
        let clients: Vec<_> = (0..workload.clients)
            .map(|client| {
                let session = resolver.clone().with_tenant(format!("client-{client}"));
                scope.spawn(move || {
                    let mut rng = SplitMix64::new(seed, 0x434C_0000 + client as u64);
                    let mut records = Vec::new();
                    let mut round = Vec::new();
                    loop {
                        if round.is_empty() {
                            round = rng.permutation(workload.cases.len());
                        }
                        let case = round.pop().expect("a workload has cases");
                        let traced = trace_alternate && records.len() % 2 == 1;
                        records.push(resolve_once(&session, case, &workload.cases[case], traced));
                        // A traced run needs one traced and one untraced resolve.
                        let enough = !trace_alternate || records.len() >= 2;
                        if enough && Instant::now() >= deadline {
                            break records;
                        }
                    }
                })
            })
            .collect::<Vec<_>>();
        clients
            .into_iter()
            .flat_map(|c| c.join().expect("client thread panicked outside a resolve"))
            .collect::<Vec<Record>>()
    });
    let wall = start.elapsed();
    let peak_kb = status_kb("VmHWM").expect("peak resident set readable from /proc/self/status");
    Phase {
        records,
        wall,
        peak_rss_mb: peak_kb as f64 / 1024.0,
    }
}

/// The `field` (a `kB` figure such as `VmHWM`) of this process's
/// `/proc/self/status`.
fn status_kb(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|line| line.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
}
