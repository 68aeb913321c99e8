//! Figure 5: reduced MRU lists (left) and the MRU-distance distribution
//! `fᵢ` (right).

use crate::experiments::ExperimentParams;
use crate::report::{f2, TextTable};
use crate::runner::simulate;
use serde::{Deserialize, Serialize};
use seta_core::lookup::{Mru, StrategyKind};
use seta_trace::gen::AtumLike;

/// Results for one associativity.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig5Assoc {
    /// The associativity `a`.
    pub assoc: u32,
    /// `(list length, mean probes per read-in hit)`, shortest list first,
    /// ending with the full list (`length == a`).
    pub hit_probes_by_list: Vec<(usize, f64)>,
    /// The measured `fᵢ` distribution (index 0 is `f₁`).
    pub f: Vec<f64>,
}

/// The computed figure.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig5 {
    /// One entry per associativity (the paper shows 4, 8, 16).
    pub per_assoc: Vec<Fig5Assoc>,
}

/// Runs the figure at the paper's associativities (4, 8, 16).
pub fn run(params: &ExperimentParams) -> Fig5 {
    run_with_assocs(params, &[4, 8, 16])
}

/// Runs the figure over explicit associativities.
pub fn run_with_assocs(params: &ExperimentParams, assocs: &[u32]) -> Fig5 {
    let preset = params.preset;
    let per_assoc = assocs
        .iter()
        .map(|&a| {
            // Reduced lists of every power of two below a, then the full list.
            let mut lengths: Vec<usize> = std::iter::successors(Some(1usize), |l| Some(l * 2))
                .take_while(|&l| (l as u32) < a)
                .collect();
            lengths.push(a as usize);
            let strategies: Vec<StrategyKind> = lengths
                .iter()
                .map(|&l| {
                    StrategyKind::Mru(if l == a as usize {
                        Mru::full()
                    } else {
                        Mru::truncated(l)
                    })
                })
                .collect();
            let out = simulate(
                preset.l1().expect("preset geometry is valid"),
                preset.l2(a).expect("preset geometry is valid"),
                AtumLike::new(params.trace.clone(), params.seed),
                &strategies,
            );
            Fig5Assoc {
                assoc: a,
                hit_probes_by_list: lengths
                    .iter()
                    .zip(&out.strategies)
                    .map(|(&l, s)| (l, s.probes.hit_mean()))
                    .collect(),
                f: out.mru_hist.distribution(),
            }
        })
        .collect();
    Fig5 { per_assoc }
}

impl Fig5 {
    /// The entry for an associativity.
    pub fn assoc(&self, a: u32) -> Option<&Fig5Assoc> {
        self.per_assoc.iter().find(|e| e.assoc == a)
    }

    fn left_table(&self) -> TextTable {
        let mut left = TextTable::new(
            ["Assoc", "List len", "Hit probes"]
                .map(String::from)
                .to_vec(),
        );
        for e in &self.per_assoc {
            for &(l, p) in &e.hit_probes_by_list {
                left.row(vec![e.assoc.to_string(), l.to_string(), f2(p)]);
            }
        }
        left
    }

    fn right_table(&self) -> TextTable {
        let mut right = TextTable::new(["Assoc", "i", "f_i"].map(String::from).to_vec());
        for e in &self.per_assoc {
            for (i, &fi) in e.f.iter().enumerate() {
                right.row(vec![
                    e.assoc.to_string(),
                    (i + 1).to_string(),
                    format!("{fi:.4}"),
                ]);
            }
        }
        right
    }

    /// Renders both panels.
    pub fn render(&self) -> String {
        format!(
            "Figure 5 left: reduced MRU lists (read-in hits)\n{}\nFigure 5 right: MRU distance distribution\n{}",
            self.left_table().render(),
            self.right_table().render()
        )
    }

    /// The left panel (reduced lists) as CSV, for re-plotting.
    pub fn left_csv(&self) -> String {
        self.left_table().render_csv()
    }

    /// The right panel (fᵢ distribution) as CSV, for re-plotting.
    pub fn right_csv(&self) -> String {
        self.right_table().render_csv()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::tiny_params;

    fn fig() -> Fig5 {
        run_with_assocs(&tiny_params(), &[4, 8])
    }

    #[test]
    fn longer_lists_never_hurt() {
        let f = fig();
        for e in &f.per_assoc {
            for pair in e.hit_probes_by_list.windows(2) {
                assert!(
                    pair[1].1 <= pair[0].1 + 1e-9,
                    "a={}: list {} ({}) worse than list {} ({})",
                    e.assoc,
                    pair[1].0,
                    pair[1].1,
                    pair[0].0,
                    pair[0].1
                );
            }
        }
    }

    #[test]
    fn f_distribution_is_normalized_and_front_loaded() {
        let f = fig();
        for e in &f.per_assoc {
            let total: f64 = e.f.iter().sum();
            assert!((total - 1.0).abs() < 1e-9, "a={}: sums to {total}", e.assoc);
            let max = e.f.iter().cloned().fold(0.0, f64::max);
            assert_eq!(e.f[0], max, "a={}: f1 should dominate", e.assoc);
        }
    }

    #[test]
    fn short_list_approaches_full_list() {
        // A list of a/4 entries should be within ~20% of full-list probes
        // (the paper's "not necessary to retain the entire list").
        let f = fig();
        let e = f.assoc(8).unwrap();
        let full = e.hit_probes_by_list.last().unwrap().1;
        let short = e
            .hit_probes_by_list
            .iter()
            .find(|&&(l, _)| l == 2)
            .unwrap()
            .1;
        assert!(
            short <= full * 1.35,
            "list of 2 at a=8: {short} vs full {full}"
        );
    }

    #[test]
    fn full_list_matches_histogram_expectation() {
        let f = fig();
        for e in &f.per_assoc {
            let full = e.hit_probes_by_list.last().unwrap().1;
            let implied = 1.0
                + e.f
                    .iter()
                    .enumerate()
                    .map(|(i, &fi)| (i as f64 + 1.0) * fi)
                    .sum::<f64>();
            assert!(
                (full - implied).abs() < 1e-9,
                "a={}: {full} vs {implied}",
                e.assoc
            );
        }
    }

    #[test]
    fn lower_associativity_has_higher_f1() {
        // "Lower associativities result in a higher probability that a hit
        // is to the first entry of the MRU list."
        let f = fig();
        let f1_4 = f.assoc(4).unwrap().f[0];
        let f1_8 = f.assoc(8).unwrap().f[0];
        assert!(f1_4 > f1_8, "f1(4)={f1_4} vs f1(8)={f1_8}");
    }

    #[test]
    fn render_shows_both_panels() {
        let s = fig().render();
        assert!(s.contains("reduced MRU lists"), "{s}");
        assert!(s.contains("distance distribution"), "{s}");
    }
}
