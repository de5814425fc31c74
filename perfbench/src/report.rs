//! Named metrics, the machine stamp, and the two JSON renderings: the
//! full export and the one-line result the benchmark ends with.

use dedupe_mr::mr_engine::json::Json;

/// End-to-end metrics the result line carries with `--trace 0`: the
/// `end_to_end` list of `BENCHMARK.json`, in its order.
pub const END_TO_END: [&str; 6] = [
    "setup_s",
    "resolve_p50_ms",
    "entities_per_s",
    "peak_rss_mb",
    "recall",
    "precision",
];

/// Per-layer metrics the result line carries with `--trace 1`: the
/// `per_layer` list of `BENCHMARK.json`, in its order. Each is
/// measured on every workload.
pub const PER_LAYER: [&str; 29] = [
    "engine.map_ms",
    "engine.reduce_ms",
    "engine.shuffle_ms",
    "engine.reduce_max_ms",
    "engine.map_output_records",
    "engine.reduce_input_records",
    "engine.peak_resident_records",
    "engine.spilled_runs",
    "engine.task_failures",
    "engine.tasks_retried",
    "pool.queue_wait_ms",
    "pool.queue_wait_p95_ms",
    "pool.utilization",
    "resolver.unattributed_ms",
    "resolver.stages",
    "plan.stage_ms",
    "plan.bdm_call_ms",
    "balance.comparisons",
    "balance.reduce_imbalance",
    "balance.gated_pairs",
    "balance.compare_yield",
    "kernel.ns_per_pair",
    "kernel.prepare_ns_per_entity",
    "kernel.est_share",
    "blocking.ns_per_entity",
    "sortkey.ns_per_entity",
    "lsh.signature_ns_per_entity",
    "trace.overhead_frac",
    "layers.gap_frac",
];

/// Metrics by name, in insertion order. A metric that does not apply
/// to a workload is never set: it is absent, not zero.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics(Vec<(String, f64, String)>);

impl Metrics {
    /// Sets `name` (replacing an earlier value).
    pub fn set(&mut self, name: &str, value: f64, unit: &str) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.0.retain(|(n, _, _)| n != name);
        self.0.push((name.to_string(), value, unit.to_string()));
    }

    /// Sets `name` when a value exists; leaves it absent otherwise.
    pub fn set_opt(&mut self, name: &str, value: Option<f64>, unit: &str) {
        if let Some(v) = value {
            self.set(name, v, unit);
        }
    }

    /// The value and unit of `name`, if set.
    pub fn get(&self, name: &str) -> Option<(f64, &str)> {
        self.0
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, u)| (*v, u.as_str()))
    }

    /// Iterates `(name, value, unit)` in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64, &str)> {
        self.0.iter().map(|(n, v, u)| (n.as_str(), *v, u.as_str()))
    }

    /// `{name: {"value", "unit"}}` over `names` (all when `None`).
    /// Errors on a requested name that is absent.
    pub fn to_json(&self, names: Option<&[&str]>) -> Result<Json, String> {
        let entry = |v: f64, u: &str| Json::obj([("value", Json::Num(v)), ("unit", Json::str(u))]);
        match names {
            None => Ok(Json::Obj(
                self.iter()
                    .map(|(n, v, u)| (n.to_string(), entry(v, u)))
                    .collect(),
            )),
            Some(names) => names
                .iter()
                .map(|&n| {
                    let (v, u) = self
                        .get(n)
                        .ok_or_else(|| format!("metric {n} was not measured"))?;
                    Ok((n.to_string(), entry(v, u)))
                })
                .collect::<Result<Vec<_>, String>>()
                .map(Json::Obj),
        }
    }

    /// Parses the `{name: {"value", "unit"}}` form back.
    #[cfg(test)]
    pub fn from_json(json: &Json) -> Result<Self, String> {
        let Json::Obj(members) = json else {
            return Err("metrics must be an object".into());
        };
        let mut metrics = Metrics::default();
        for (name, entry) in members {
            let value = entry.get("value").and_then(Json::as_f64);
            let unit = entry.get("unit").and_then(Json::as_str);
            match (value, unit) {
                (Some(v), Some(u)) => metrics.set(name, v, u),
                _ => return Err(format!("metric {name} lacks a value or unit")),
            }
        }
        Ok(metrics)
    }
}

/// What the numbers ran on, so runs on different machines are never
/// compared as like for like.
#[derive(Debug, Clone, PartialEq)]
pub struct Machine {
    pub available_parallelism: usize,
    pub pool_parallelism: usize,
    pub client_threads: usize,
    pub profile: String,
    pub git_revision: String,
    pub rustc: String,
}

impl Machine {
    /// The stamp of this build on a machine with `available` cores
    /// and `client_threads` concurrent clients. A `parallel` workload's
    /// pool gets one client's share of the cores, at least one slot;
    /// any other gets one slot. A one-slot pool runs every task on the
    /// calling client's thread, so two clients on 2 cores resolve on
    /// their own threads rather than adding the pool's workers to their
    /// own dispatching threads on two cores.
    pub fn detect(available: usize, client_threads: usize, parallel: bool) -> Self {
        let share = (available / client_threads.max(1)).max(1);
        Self {
            available_parallelism: available,
            pool_parallelism: if parallel { share } else { 1 },
            client_threads,
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .into(),
            git_revision: env!("PERFBENCH_GIT_REV").into(),
            rustc: env!("PERFBENCH_RUSTC").into(),
        }
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            (
                "available_parallelism",
                Json::Num(self.available_parallelism as f64),
            ),
            ("pool_parallelism", Json::Num(self.pool_parallelism as f64)),
            ("client_threads", Json::Num(self.client_threads as f64)),
            ("profile", Json::str(&self.profile)),
            ("git_revision", Json::str(&self.git_revision)),
            ("rustc", Json::str(&self.rustc)),
        ])
    }
}

/// The result line: `correct`, `attempted`, `failed` and the metrics
/// `names` selects.
pub fn result_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &Metrics,
    names: &[&str],
) -> Result<Json, String> {
    Ok(Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", metrics.to_json(Some(names))?),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Metrics {
        let mut m = Metrics::default();
        m.set("resolve_p50_ms", 751.203_125_5, "ms");
        m.set("setup_s", 2.25, "s");
        m.set_opt("resolve_p90_ms", None, "ms");
        m
    }

    #[test]
    fn export_round_trips_through_json() {
        let m = sample();
        let export = Json::obj([
            ("machine", Machine::detect(2, 2, true).to_json()),
            ("metrics", m.to_json(None).unwrap()),
        ]);
        let parsed = Json::parse(&export.to_string()).unwrap();
        assert_eq!(parsed, export);
        let back = Metrics::from_json(parsed.get("metrics").unwrap()).unwrap();
        assert_eq!(back, m, "values keep every digit");
        let machine = parsed.get("machine").unwrap();
        assert_eq!(
            machine.get("client_threads").and_then(Json::as_f64),
            Some(2.0)
        );
        assert!(machine.get("rustc").and_then(Json::as_str).is_some());
    }

    #[test]
    fn a_missing_metric_is_absent_not_zero() {
        let m = sample();
        assert_eq!(m.get("resolve_p90_ms"), None);
        let json = m.to_json(None).unwrap();
        assert!(json.get("resolve_p90_ms").is_none());
        // Asking the result line for it is an error, never a 0.
        let err = result_line(true, 1, 0, &m, &["resolve_p90_ms"]).unwrap_err();
        assert!(err.contains("resolve_p90_ms"));
        let line = result_line(true, 3, 0, &m, &["setup_s"]).unwrap();
        let metrics = line.get("metrics").unwrap();
        assert_eq!(
            metrics
                .get("setup_s")
                .and_then(|e| e.get("value"))
                .and_then(Json::as_f64),
            Some(2.25)
        );
        assert!(
            metrics.get("resolve_p50_ms").is_none(),
            "only the requested names"
        );
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let spec = Json::parse(&text).unwrap();
        let names = |key: &str| -> Vec<String> {
            spec.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_string())
                .collect()
        };
        assert_eq!(names("end_to_end"), END_TO_END);
        assert_eq!(names("per_layer"), PER_LAYER);
        assert_eq!(names("workloads"), crate::workload::NAMES);
    }
}
