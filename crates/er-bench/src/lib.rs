//! # er-bench — the experiment harness
//!
//! One bench target per table/figure of the paper's evaluation.
//! Targets print the same rows or series the paper reports.
//!
//! Methodology: workloads are *exactly* reproduced (comparison counts
//! per reduce task, emitted key-value pairs) via
//! `er_loadbalance::analysis`, then turned into wall-clock estimates
//! by `cluster-sim`'s calibrated cost model on a virtual n-node
//! cluster. Small configurations additionally run for real through
//! `mr-engine` (the test suite asserts analysis == execution).

pub mod json;
pub mod series;
pub mod setup;
pub mod table;

pub use json::{bench_json_dir, is_timing_metric, median_ms, write_bench_json, Json};
pub use series::Series;
pub use setup::{bdm_from_keys, simulate_strategy, sorted_keys, ExperimentCost, PAPER_SEED};
pub use table::TextTable;
