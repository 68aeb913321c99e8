//! Extension study: banked `b×t` implementations — the cost/performance
//! middle ground between the naive scheme (`b = 1`) and the traditional
//! implementation (`b = a`) that the paper's §1 mentions but does not
//! evaluate.

use crate::experiments::ExperimentParams;
use crate::report::{f2, TextTable};
use crate::runner::simulate;
use serde::{Deserialize, Serialize};
use seta_core::lookup::{Banked, ScanOrder, StrategyKind};
use seta_core::model;
use seta_trace::gen::AtumLike;

/// Measured and predicted probes for one `(a, b, order)` point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BankedPoint {
    /// Associativity.
    pub assoc: u32,
    /// Banks (tags compared per probe). Tag memory is `b×t` bits wide.
    pub banks: u32,
    /// Frame or MRU scan order.
    pub mru_order: bool,
    /// Measured mean probes per read-in hit.
    pub hit: f64,
    /// Measured mean probes per read-in miss.
    pub miss: f64,
    /// Measured mean probes per L2 access (write-back optimization on).
    pub total: f64,
    /// Model prediction for the hit cost (uniform positions for frame
    /// order; the measured fᵢ distribution for MRU order).
    pub predicted_hit: f64,
    /// Model prediction for the miss cost.
    pub predicted_miss: f64,
}

/// The computed study.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BankedStudy {
    /// All measured points.
    pub points: Vec<BankedPoint>,
}

/// Runs the study at the paper's associativities.
pub fn run(params: &ExperimentParams) -> BankedStudy {
    run_with_assocs(params, &[4, 8, 16])
}

/// Runs the study over explicit associativities; banks sweep the powers
/// of two from 1 to `a`.
pub fn run_with_assocs(params: &ExperimentParams, assocs: &[u32]) -> BankedStudy {
    let preset = params.preset;
    let mut points = Vec::new();
    for &a in assocs {
        let banks: Vec<u32> = std::iter::successors(Some(1u32), |b| Some(b * 2))
            .take_while(|&b| b <= a)
            .collect();
        let mut strategies = Vec::new();
        for &b in &banks {
            strategies.push(StrategyKind::Banked(Banked::new(b, ScanOrder::Frame)));
            strategies.push(StrategyKind::Banked(Banked::new(b, ScanOrder::Mru)));
        }
        let out = simulate(
            preset.l1().expect("preset geometry is valid"),
            preset.l2(a).expect("preset geometry is valid"),
            AtumLike::new(params.trace.clone(), params.seed),
            &strategies,
        );
        let f = out.mru_hist.distribution();
        for (i, &b) in banks.iter().enumerate() {
            let frame = &out.strategies[2 * i].probes;
            let mru = &out.strategies[2 * i + 1].probes;
            points.push(BankedPoint {
                assoc: a,
                banks: b,
                mru_order: false,
                hit: frame.hit_mean(),
                miss: frame.miss_mean(),
                total: frame.total_mean(),
                predicted_hit: model::banked_hit(a, b),
                predicted_miss: model::banked_miss(a, b),
            });
            points.push(BankedPoint {
                assoc: a,
                banks: b,
                mru_order: true,
                hit: mru.hit_mean(),
                miss: mru.miss_mean(),
                total: mru.total_mean(),
                predicted_hit: if a == 1 {
                    1.0
                } else {
                    model::banked_mru_hit(&f, b)
                },
                predicted_miss: if a == 1 {
                    1.0
                } else {
                    model::banked_mru_miss(a, b)
                },
            });
        }
    }
    BankedStudy { points }
}

impl BankedStudy {
    /// The point for `(a, b, order)`.
    pub fn point(&self, assoc: u32, banks: u32, mru_order: bool) -> Option<&BankedPoint> {
        self.points
            .iter()
            .find(|p| p.assoc == assoc && p.banks == banks && p.mru_order == mru_order)
    }

    /// Renders the study.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(
            ["a", "b", "order", "hit", "pred", "miss", "pred", "total"]
                .map(String::from)
                .to_vec(),
        );
        for p in &self.points {
            t.row(vec![
                p.assoc.to_string(),
                p.banks.to_string(),
                if p.mru_order { "mru" } else { "frame" }.into(),
                f2(p.hit),
                f2(p.predicted_hit),
                f2(p.miss),
                f2(p.predicted_miss),
                f2(p.total),
            ]);
        }
        format!(
            "Banked b×t implementations (extension study; tag memory b×t bits wide)\n{}",
            t.render()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::tiny_params;

    fn study() -> BankedStudy {
        run_with_assocs(&tiny_params(), &[8])
    }

    #[test]
    fn covers_full_bank_sweep() {
        let s = study();
        assert_eq!(s.points.len(), 8); // 4 bank widths × 2 orders
        for b in [1u32, 2, 4, 8] {
            assert!(s.point(8, b, false).is_some());
            assert!(s.point(8, b, true).is_some());
        }
    }

    #[test]
    fn misses_match_the_model_exactly() {
        // Miss cost is deterministic: every group is probed.
        let s = study();
        for p in &s.points {
            assert_eq!(p.miss, p.predicted_miss, "{p:?}");
        }
    }

    #[test]
    fn mru_hits_match_distribution_prediction() {
        let s = study();
        for p in s.points.iter().filter(|p| p.mru_order) {
            assert!(
                (p.hit - p.predicted_hit).abs() < 1e-9,
                "b={}: measured {} vs predicted {}",
                p.banks,
                p.hit,
                p.predicted_hit
            );
        }
    }

    #[test]
    fn wider_banks_always_help() {
        let s = study();
        for order in [false, true] {
            let totals: Vec<f64> = [1u32, 2, 4, 8]
                .iter()
                .map(|&b| s.point(8, b, order).expect("swept").total)
                .collect();
            for w in totals.windows(2) {
                assert!(w[1] <= w[0] + 1e-9, "order={order}: {totals:?}");
            }
        }
    }

    #[test]
    fn banked_interpolates_between_schemes() {
        // b=2 frame order should land strictly between naive (b=1) and
        // traditional (b=8) totals.
        let s = study();
        let naive = s.point(8, 1, false).expect("swept").total;
        let mid = s.point(8, 2, false).expect("swept").total;
        let trad = s.point(8, 8, false).expect("swept").total;
        assert!(trad < mid && mid < naive, "{trad} < {mid} < {naive}");
    }

    #[test]
    fn render_lists_orders() {
        let s = study().render();
        assert!(s.contains("frame"), "{s}");
        assert!(s.contains("mru"), "{s}");
    }
}
