//! Regeneration harness for the `seta` reproduction.
//!
//! This crate hosts:
//!
//! * the `paper_tables` binary, which regenerates any table or figure of
//!   the paper (`cargo run --release -p seta-bench --bin paper_tables -- all`);
//! * the `trace_tool` binary, which generates, converts, inspects and
//!   simulates trace files;
//! * Criterion benches (`benches/tables.rs`, `benches/figures.rs`,
//!   `benches/ablations.rs`) that time each experiment end-to-end on a
//!   scaled trace;
//! * micro-benchmarks (`benches/micro.rs`) for the tag transforms, trace
//!   generator, cache hierarchy throughput and the alternative cache
//!   organizations.
//!
//! Per-lookup and end-to-end performance is measured by the standalone
//! benchmark in `perfbench/` (`python3 perfbench/run.py`); exact probe
//! counts are pinned by the root crate's `probe_golden` test. The library
//! portion holds the small helpers shared by the benches.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use seta_sim::experiments::ExperimentParams;

/// The trace scale benches run at (the full 8M-reference trace would make
/// `cargo bench` take minutes per experiment; 1/40 keeps each iteration in
/// the tens of milliseconds while preserving the multiprogrammed
/// structure).
pub const BENCH_SCALE: u64 = 40;

/// Bench parameters: the paper's structure at [`BENCH_SCALE`].
pub fn bench_params() -> ExperimentParams {
    ExperimentParams::scaled(BENCH_SCALE)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_params_are_scaled_down() {
        assert!(
            bench_params().trace.total_refs() < ExperimentParams::paper().trace.total_refs() / 10
        );
    }
}
