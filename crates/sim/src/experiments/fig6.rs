//! Figure 6: the partial scheme with larger tags and different
//! transformations, against the theoretical lower bound and the MRU
//! scheme.

use crate::experiments::ExperimentParams;
use crate::report::{f2, TextTable};
use crate::runner::simulate;
use serde::{Deserialize, Serialize};
use seta_core::lookup::{Mru, PartialCompare, StrategyKind, TransformKind};
use seta_core::model;
use seta_trace::gen::AtumLike;

/// Measured read-in hit probes for one `(tag width, associativity)` cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig6Cell {
    /// Tag width `t`.
    pub tag_bits: u32,
    /// Associativity `a`.
    pub assoc: u32,
    /// Subsets used (the 4-bit-compare rule).
    pub subsets: u32,
    /// Partial-compare width `k`.
    pub k: u32,
    /// Hit probes with no transform (Figure 6's "None" line).
    pub none: f64,
    /// Hit probes with the simple XOR-fold transform ("XOR").
    pub xor: f64,
    /// Hit probes with the improved transform ("New").
    pub improved: f64,
    /// Hit probes with the bit-swap slice policy (discussed in §3).
    pub swap: f64,
    /// The probabilistic lower bound of §2 ("Lower").
    pub theory: f64,
    /// MRU hit probes on the same runs (right graph).
    pub mru: f64,
}

/// The computed figure.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig6 {
    /// One cell per `(t, a)` combination.
    pub cells: Vec<Fig6Cell>,
}

/// Runs the figure at the paper's associativities (4, 8, 16) for 16- and
/// 32-bit tags.
pub fn run(params: &ExperimentParams) -> Fig6 {
    run_with(params, &[16, 32], &[4, 8, 16])
}

/// Runs the figure over explicit tag widths and associativities.
pub fn run_with(params: &ExperimentParams, tag_widths: &[u32], assocs: &[u32]) -> Fig6 {
    let preset = params.preset;
    let mut cells = Vec::new();
    for &t in tag_widths {
        for &a in assocs {
            let s = model::subsets_for_four_bit_compares(t, a);
            let k = model::partial_k(t, a, s);
            let strategies = [
                StrategyKind::Partial(PartialCompare::new(t, s, TransformKind::None)),
                StrategyKind::Partial(PartialCompare::new(t, s, TransformKind::XorFold)),
                StrategyKind::Partial(PartialCompare::new(t, s, TransformKind::Improved)),
                StrategyKind::Partial(PartialCompare::new(t, s, TransformKind::Swap)),
                StrategyKind::Mru(Mru::full()),
            ];
            let out = simulate(
                preset.l1().expect("preset geometry is valid"),
                preset.l2(a).expect("preset geometry is valid"),
                AtumLike::new(params.trace.clone(), params.seed),
                &strategies,
            );
            cells.push(Fig6Cell {
                tag_bits: t,
                assoc: a,
                subsets: s,
                k,
                none: out.strategies[0].probes.hit_mean(),
                xor: out.strategies[1].probes.hit_mean(),
                improved: out.strategies[2].probes.hit_mean(),
                swap: out.strategies[3].probes.hit_mean(),
                theory: model::partial_hit(a, k, s),
                mru: out.strategies[4].probes.hit_mean(),
            });
        }
    }
    Fig6 { cells }
}

impl Fig6 {
    /// The cell for a `(t, a)` pair.
    pub fn cell(&self, tag_bits: u32, assoc: u32) -> Option<&Fig6Cell> {
        self.cells
            .iter()
            .find(|c| c.tag_bits == tag_bits && c.assoc == assoc)
    }

    fn table(&self) -> TextTable {
        let mut t = TextTable::new(
            [
                "t", "a", "s", "k", "None", "XOR", "New", "Swap", "Lower", "MRU",
            ]
            .map(String::from)
            .to_vec(),
        );
        for c in &self.cells {
            t.row(vec![
                c.tag_bits.to_string(),
                c.assoc.to_string(),
                c.subsets.to_string(),
                c.k.to_string(),
                f2(c.none),
                f2(c.xor),
                f2(c.improved),
                f2(c.swap),
                f2(c.theory),
                f2(c.mru),
            ]);
        }
        t
    }

    /// Renders the figure as a table.
    pub fn render(&self) -> String {
        format!(
            "Figure 6: partial-compare read-in hit probes by transform\n{}",
            self.table().render()
        )
    }

    /// The same data as CSV, for re-plotting.
    pub fn csv(&self) -> String {
        self.table().render_csv()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::tiny_params;

    fn fig() -> Fig6 {
        run_with(&tiny_params(), &[16, 32], &[4, 8])
    }

    #[test]
    fn measurements_track_theory() {
        // The §2 formula is a lower bound for FULL sets with hits spread
        // uniformly across subsets; small test traces bias hits toward the
        // first-filled subset, so allow measured values somewhat below it.
        // No hit can cost less than 2 probes (one step-one probe + the
        // matching full compare).
        let f = fig();
        for c in &f.cells {
            for (name, v) in [("none", c.none), ("xor", c.xor), ("improved", c.improved)] {
                assert!(
                    v >= 2.0 - 1e-9,
                    "t={} a={}: {name} {v} below the structural floor",
                    c.tag_bits,
                    c.assoc
                );
                assert!(
                    v >= c.theory - 0.6,
                    "t={} a={}: {name} {v} far below theory {}",
                    c.tag_bits,
                    c.assoc,
                    c.theory
                );
            }
        }
    }

    #[test]
    fn transforms_improve_on_none() {
        let f = fig();
        for c in &f.cells {
            assert!(
                c.improved <= c.none + 1e-9,
                "t={} a={}: improved {} vs none {}",
                c.tag_bits,
                c.assoc,
                c.improved,
                c.none
            );
            assert!(
                c.xor <= c.none + 1e-9,
                "t={} a={}: xor {} vs none {}",
                c.tag_bits,
                c.assoc,
                c.xor,
                c.none
            );
        }
    }

    #[test]
    fn improved_beats_or_ties_simple_xor() {
        // The paper's headline for Figure 6's left graph.
        let f = fig();
        let better = f
            .cells
            .iter()
            .filter(|c| c.improved <= c.xor + 1e-9)
            .count();
        assert!(
            better >= f.cells.len() - 1,
            "improved should be at least as good as xor almost everywhere"
        );
    }

    #[test]
    fn swap_is_near_theory() {
        let f = fig();
        for c in &f.cells {
            assert!(
                c.swap <= c.theory + 0.35,
                "t={} a={}: swap {} too far above theory {}",
                c.tag_bits,
                c.assoc,
                c.swap,
                c.theory
            );
        }
    }

    #[test]
    fn subsets_match_four_bit_rule() {
        let f = fig();
        assert_eq!(f.cell(16, 4).unwrap().subsets, 1);
        assert_eq!(f.cell(16, 8).unwrap().subsets, 2);
        assert_eq!(f.cell(32, 8).unwrap().subsets, 1);
        for c in &f.cells {
            assert!(c.k >= 4);
        }
    }

    #[test]
    fn render_lists_all_lines() {
        let s = fig().render();
        for col in ["None", "XOR", "New", "Lower", "MRU"] {
            assert!(s.contains(col), "{s}");
        }
    }
}
