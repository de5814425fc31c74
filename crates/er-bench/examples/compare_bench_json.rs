//! Cross-PR perf-trail guard: diffs fresh `BENCH_*.json` exports
//! against the baselines stored in `crates/er-bench/benches/baselines/`.
//!
//! Two classes of metric, told apart by name
//! ([`er_bench::is_timing_metric`]):
//!
//! * **timing** (name contains `_ms` or `_ns`, or a ratio of simulated
//!   walls such as fig09's `basic_degradation_at_s1`) — noisy by
//!   nature; compared within a relative
//!   noise band (`--noise`, default ±50% of the baseline, generous
//!   because CI machines differ from the baseline machine);
//! * **everything else** (record counts, peak gauges, ratios) —
//!   deterministic for a given corpus, so any drift is a real
//!   behaviour change and is reported exactly.
//!
//! Exports without a stored baseline are listed as `NEW` (success —
//! check a baseline in to start tracking them); baselines without a
//! fresh export are listed as `STALE`. Exits non-zero on any metric
//! outside its band, so the CI step (wired non-blocking) surfaces
//! regressions without gating merges on machine noise.
//!
//! Usage: `cargo run -p er-bench --example compare_bench_json --
//! [--baseline-dir DIR] [--noise FRACTION] [EXPORT.json ...]`

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use er_bench::{bench_json_dir, is_timing_metric, Json};

/// Default relative band for `*_ms` metrics.
const DEFAULT_NOISE: f64 = 0.5;

fn numeric_metrics(value: &Json) -> Vec<(String, f64)> {
    match value {
        Json::Obj(members) => members
            .iter()
            .filter_map(|(k, v)| match v {
                Json::Num(n) if n.is_finite() => Some((k.clone(), *n)),
                _ => None,
            })
            .collect(),
        _ => Vec::new(),
    }
}

fn load(path: &Path) -> Result<Json, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("unreadable {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("invalid JSON in {}: {e}", path.display()))
}

/// Compares one export against its baseline; returns the per-metric
/// verdict lines and whether all metrics stayed in band.
fn compare(current: &Json, baseline: &Json, noise: f64) -> (Vec<String>, bool) {
    let mut lines = Vec::new();
    let mut ok = true;
    let base_metrics = numeric_metrics(baseline);
    let current_metrics = numeric_metrics(current);
    for (name, base) in &base_metrics {
        let Some((_, cur)) = current_metrics.iter().find(|(k, _)| k == name) else {
            lines.push(format!("  MISSING {name} (baseline {base})"));
            ok = false;
            continue;
        };
        if is_timing_metric(name) {
            let band = noise * base.abs().max(1e-9);
            let delta = cur - base;
            if delta.abs() <= band {
                lines.push(format!(
                    "  ok      {name}: {cur:.3} vs {base:.3} ({:+.1}%)",
                    100.0 * delta / base.abs().max(1e-9)
                ));
            } else {
                lines.push(format!(
                    "  DRIFT   {name}: {cur:.3} vs {base:.3} ({:+.1}%, band ±{:.0}%)",
                    100.0 * delta / base.abs().max(1e-9),
                    100.0 * noise
                ));
                ok = false;
            }
        } else if cur == base {
            lines.push(format!("  ok      {name}: {cur}"));
        } else {
            lines.push(format!(
                "  CHANGED {name}: {cur} vs baseline {base} (deterministic metric)"
            ));
            ok = false;
        }
    }
    for (name, cur) in &current_metrics {
        if !base_metrics.iter().any(|(k, _)| k == name) {
            lines.push(format!("  new     {name}: {cur} (not in baseline)"));
        }
    }
    (lines, ok)
}

fn default_baseline_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("benches")
        .join("baselines")
}

fn is_bench_export(path: &Path) -> bool {
    path.file_name()
        .and_then(|n| n.to_str())
        .is_some_and(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
}

fn main() -> ExitCode {
    let mut baseline_dir = default_baseline_dir();
    let mut noise = DEFAULT_NOISE;
    let mut paths: Vec<PathBuf> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--baseline-dir" => match args.next() {
                Some(dir) => baseline_dir = PathBuf::from(dir),
                None => {
                    eprintln!("--baseline-dir needs a directory");
                    return ExitCode::FAILURE;
                }
            },
            "--noise" => match args.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(v) if v >= 0.0 => noise = v,
                _ => {
                    eprintln!("--noise needs a non-negative fraction");
                    return ExitCode::FAILURE;
                }
            },
            _ => paths.push(PathBuf::from(arg)),
        }
    }
    if paths.is_empty() {
        if let Ok(entries) = std::fs::read_dir(bench_json_dir()) {
            paths = entries
                .filter_map(Result::ok)
                .map(|e| e.path())
                .filter(|p| is_bench_export(p))
                .collect();
            paths.sort();
        }
    }
    if paths.is_empty() {
        eprintln!("no BENCH_*.json exports to compare");
        return ExitCode::FAILURE;
    }

    let mut ok = true;
    let mut compared = Vec::new();
    for path in &paths {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("?");
        let baseline_path = baseline_dir.join(name);
        if !baseline_path.exists() {
            println!("NEW  {name} — no stored baseline");
            continue;
        }
        compared.push(name.to_string());
        match (load(path), load(&baseline_path)) {
            (Ok(current), Ok(baseline)) => {
                let (lines, in_band) = compare(&current, &baseline, noise);
                println!("{} {name}", if in_band { "OK  " } else { "FAIL" });
                for line in lines {
                    println!("{line}");
                }
                ok &= in_band;
            }
            (Err(e), _) | (_, Err(e)) => {
                println!("FAIL {name} — {e}");
                ok = false;
            }
        }
    }
    // Baselines whose bench no longer exported anything this run.
    if let Ok(entries) = std::fs::read_dir(&baseline_dir) {
        for entry in entries.filter_map(Result::ok) {
            let p = entry.path();
            if is_bench_export(&p) {
                let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("?");
                if !compared.iter().any(|c| c == name)
                    && !paths
                        .iter()
                        .any(|e| e.file_name().and_then(|n| n.to_str()) == Some(name))
                {
                    println!("STALE {name} — baseline stored but not exported this run");
                }
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
