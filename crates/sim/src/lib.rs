//! Trace-driven experiment harness reproducing every table and figure of
//! *Kessler, Jooss, Lebeck and Hill, "Inexpensive Implementations of
//! Set-Associativity" (ISCA 1989)*.
//!
//! The harness glues the three substrates together: synthetic
//! multiprogrammed traces (`seta-trace`) drive the two-level write-back
//! hierarchy (`seta-cache`), and every level-two request is priced by each
//! lookup strategy (`seta-core`) against the identical pre-access set
//! state. One pass therefore scores all strategies at once, exactly like
//! the paper's single trace-driven simulation.
//!
//! * [`runner`] — the simulation loop ([`runner::simulate`]).
//! * [`metered`] — the same loop with metrics, manifests, JSONL snapshot
//!   streaming and a progress heartbeat
//!   ([`metered::simulate_instrumented`]).
//! * [`explain`](mod@explain) — the same loop with probe-level event
//!   tracing: attributes every probe to its micro-events and cross-checks
//!   the measured distributions against the closed-form model
//!   ([`explain()`](explain::explain)).
//! * [`config`] — the paper's level-one/level-two configuration presets
//!   (Table 3).
//! * [`experiments`] — one module per table/figure, each returning
//!   structured, serializable results and rendering a paper-style text
//!   table.
//! * [`report`] — plain-text table and CSV formatting.
//! * [`report_html`] — HTML report sections for the explain and sweep
//!   artifacts (`seta_obs::report` holds the renderer itself).
//! * [`sweep_report`] — utilization analysis of a traced sweep
//!   ([`runner::simulate_many_traced_with_threads`]): per-worker busy fractions,
//!   shard-size histograms, the critical-path shard and a load-balance
//!   score.
//! * [`advisor`] — the paper's §4 decision procedure as a measured
//!   recommendation.
//!
//! # Example
//!
//! Score the four schemes on a small multiprogrammed trace:
//!
//! ```
//! use seta_sim::config::paper_trace_scaled;
//! use seta_sim::runner::{simulate, standard_strategies};
//! use seta_cache::CacheConfig;
//! use seta_trace::gen::AtumLike;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let l1 = CacheConfig::direct_mapped(4 * 1024, 16)?;
//! let l2 = CacheConfig::new(64 * 1024, 32, 4)?;
//! let trace = AtumLike::new(paper_trace_scaled(100), 1);
//! let out = simulate(l1, l2, trace, &standard_strategies(4, 16));
//! assert!(out.hierarchy.read_ins > 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod advisor;
pub mod config;
pub mod experiments;
pub mod explain;
pub mod metered;
pub mod partition;
pub mod report;
pub mod report_html;
pub mod runner;
pub mod sweep_report;

pub use config::HierarchyPreset;
pub use explain::{explain, ExplainConfig, ExplainReport};
pub use metered::{simulate_instrumented, MeterConfig, MeteredRun};
pub use runner::{
    simulate, simulate_many_served_with_threads, simulate_many_traced_with_threads,
    simulate_traced, standard_strategies, RunOutcome, StrategyResult,
};
pub use sweep_report::{SweepReport, WorkerUtilization};
