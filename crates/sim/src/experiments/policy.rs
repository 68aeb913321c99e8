//! Extension study: replacement policy vs the MRU lookup.
//!
//! The paper's §2.1 makes a free-lunch argument: "information similar to a
//! MRU list per set is likely to be maintained anyway in a set-associative
//! cache implementing a true LRU replacement policy. In this case there is
//! no extra memory requirement to store the MRU information." This study
//! asks what the MRU lookup is worth when that assumption is dropped:
//!
//! * **LRU** — the paper's setting: the recency list is exact.
//! * **FIFO** — the list tracks fill order only (hits do not refresh it),
//!   which is what a cheaper replacement implementation would maintain.
//! * **Random** — no ordering information exists at all; the "MRU" scan
//!   degenerates to a fixed-order scan that still pays the list-read
//!   probe (one worse than naive).

use crate::experiments::ExperimentParams;
use crate::report::{f2, f4, TextTable};
use crate::runner::simulate_with_l2_policy;
use serde::{Deserialize, Serialize};
use seta_cache::Policy;
use seta_core::lookup::{Mru, Naive, PartialCompare, StrategyKind, TransformKind};
use seta_core::model;
use seta_trace::gen::AtumLike;

/// Measurements for one replacement policy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PolicyRow {
    /// The L2 replacement policy.
    pub policy: String,
    /// L2 local miss ratio (contents differ across policies).
    pub local_miss_ratio: f64,
    /// Mean probes per read-in hit for the naive scan.
    pub naive_hits: f64,
    /// Mean probes per read-in hit for the MRU scan.
    pub mru_hits: f64,
    /// Mean probes per read-in hit for the partial scheme.
    pub partial_hits: f64,
}

/// The computed study.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PolicyStudy {
    /// L2 associativity used.
    pub assoc: u32,
    /// One row per policy, in [`Policy::ALL`] order.
    pub rows: Vec<PolicyRow>,
}

/// Runs the study at 8-way (where the ordering information matters most).
pub fn run(params: &ExperimentParams) -> PolicyStudy {
    run_with_assoc(params, 8)
}

/// Runs the study at an explicit associativity.
pub fn run_with_assoc(params: &ExperimentParams, assoc: u32) -> PolicyStudy {
    let preset = params.preset;
    let subsets = model::subsets_for_four_bit_compares(params.tag_bits, assoc);
    let rows = Policy::ALL
        .iter()
        .map(|&policy| {
            let strategies = [
                StrategyKind::Naive(Naive),
                StrategyKind::Mru(Mru::full()),
                StrategyKind::Partial(PartialCompare::new(
                    params.tag_bits,
                    subsets,
                    TransformKind::XorFold,
                )),
            ];
            let out = simulate_with_l2_policy(
                preset.l1().expect("preset geometry is valid"),
                preset.l2(assoc).expect("preset geometry is valid"),
                policy,
                params.seed ^ 0x9E37,
                AtumLike::new(params.trace.clone(), params.seed),
                &strategies,
            );
            PolicyRow {
                policy: policy.to_string(),
                local_miss_ratio: out.hierarchy.local_miss_ratio(),
                naive_hits: out.strategies[0].probes.hit_mean(),
                mru_hits: out.strategies[1].probes.hit_mean(),
                partial_hits: out.strategies[2].probes.hit_mean(),
            }
        })
        .collect();
    PolicyStudy { assoc, rows }
}

impl PolicyStudy {
    /// The row for a policy name (`"LRU"`, `"FIFO"`, `"random"`).
    pub fn row(&self, policy: &str) -> Option<&PolicyRow> {
        self.rows.iter().find(|r| r.policy == policy)
    }

    /// Renders the study.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(
            [
                "Policy",
                "Local miss",
                "Naive hit",
                "MRU hit",
                "Partial hit",
            ]
            .map(String::from)
            .to_vec(),
        );
        for r in &self.rows {
            t.row(vec![
                r.policy.clone(),
                f4(r.local_miss_ratio),
                f2(r.naive_hits),
                f2(r.mru_hits),
                f2(r.partial_hits),
            ]);
        }
        format!(
            "Replacement policy vs the MRU lookup ({}-way L2; §2.1's free-LRU assumption)\n{}",
            self.assoc,
            t.render()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::tiny_params;

    fn study() -> PolicyStudy {
        run_with_assoc(&tiny_params(), 8)
    }

    #[test]
    fn covers_all_policies() {
        let s = study();
        assert_eq!(s.rows.len(), 3);
        for p in ["LRU", "FIFO", "random"] {
            assert!(s.row(p).is_some(), "{p} missing");
        }
    }

    #[test]
    fn lru_gives_the_mru_scan_its_edge() {
        // With true LRU the ordered scan is far better than under random
        // replacement, where no ordering information exists.
        let s = study();
        let lru = s.row("LRU").expect("row").mru_hits;
        let random = s.row("random").expect("row").mru_hits;
        assert!(lru < random, "LRU {lru} vs random {random}");
        // FIFO (fill order) sits between: stale but not useless.
        let fifo = s.row("FIFO").expect("row").mru_hits;
        assert!(lru <= fifo + 1e-9, "LRU {lru} vs FIFO {fifo}");
        assert!(fifo < random + 1e-9, "FIFO {fifo} vs random {random}");
    }

    #[test]
    fn under_random_replacement_mru_is_naive_plus_one() {
        // No ordering info: the MRU scan visits a fixed order and pays the
        // useless list read, exactly one probe over the naive scan.
        let s = study();
        let r = s.row("random").expect("row");
        assert!(
            (r.mru_hits - (r.naive_hits + 1.0)).abs() < 1e-9,
            "mru {} vs naive+1 {}",
            r.mru_hits,
            r.naive_hits + 1.0
        );
    }

    #[test]
    fn lru_has_the_best_miss_ratio() {
        let s = study();
        let lru = s.row("LRU").expect("row").local_miss_ratio;
        for r in &s.rows {
            assert!(
                lru <= r.local_miss_ratio + 0.01,
                "LRU {lru} vs {} {}",
                r.policy,
                r.local_miss_ratio
            );
        }
    }

    #[test]
    fn partial_is_policy_insensitive_on_hits() {
        // The partial scheme never consults the recency list, so its hit
        // cost moves only through second-order content differences.
        let s = study();
        let vals: Vec<f64> = s.rows.iter().map(|r| r.partial_hits).collect();
        let spread = vals.iter().cloned().fold(f64::MIN, f64::max)
            - vals.iter().cloned().fold(f64::MAX, f64::min);
        assert!(
            spread < 0.25,
            "partial hit spread {spread} too wide: {vals:?}"
        );
    }

    #[test]
    fn render_lists_policies() {
        let s = study().render();
        assert!(s.contains("LRU"), "{s}");
        assert!(s.contains("random"), "{s}");
    }
}
