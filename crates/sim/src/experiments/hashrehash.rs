//! Extension study: the hash-rehash cache vs 2-way set-associativity.
//!
//! The paper's footnote 2: "While maintaining MRU order using swapping may
//! be feasible for a 2-way set-associative cache, Agarwal's hash-rehash
//! cache can be superior to MRU in this 2-way case." This study compares,
//! at equal capacity and block size:
//!
//! * a **direct-mapped** L2 (1 probe, worst miss ratio);
//! * a **2-way set-associative LRU** L2 priced under the traditional,
//!   naive, and MRU lookups (contents identical across the three);
//! * a **hash-rehash** L2 (direct-mapped hardware, two probe locations,
//!   swap-on-rehash-hit) — *different contents*, since its placement is
//!   not true 2-way LRU;
//! * a **swap-ordered 2-way** L2 (§2.1's swapping scheme, feasible at
//!   2-way per footnote 2): true 2-way LRU contents, MRU-first serial
//!   scan with no list memory.
//!
//! All organizations are fed exactly the same L2 request stream (it is
//! produced by the L1, which is identical in all cases).

use crate::experiments::ExperimentParams;
use crate::report::{f2, f4, TextTable};
use crate::runner::simulate;
use serde::{Deserialize, Serialize};
use seta_cache::{
    Cache, CacheConfig, HashRehashCache, L2Observer, L2RequestKind, L2RequestView, SwapTwoWay,
    TwoLevel,
};
use seta_core::lookup::{Mru, Naive, StrategyKind, Traditional};
use seta_core::ProbeStats;
use seta_trace::gen::AtumLike;

/// One organization's results.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HashRehashRow {
    /// Organization label.
    pub organization: String,
    /// Read-in miss ratio under this organization's contents (read-ins
    /// only, so every row shares the same basis).
    pub local_miss_ratio: f64,
    /// Mean probes per read-in hit.
    pub hit_probes: f64,
    /// Mean probes per read-in miss.
    pub miss_probes: f64,
    /// Mean probes per L2 access (write-backs cost zero, as everywhere).
    pub total_probes: f64,
}

/// The computed study.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HashRehashStudy {
    /// L2 capacity label.
    pub l2_label: String,
    /// One row per organization.
    pub rows: Vec<HashRehashRow>,
}

/// Shadow caches fed the same request stream as the 2-way reference.
struct Shadow {
    hr: HashRehashCache,
    hr_probes: ProbeStats,
    dm: Cache,
    dm_probes: ProbeStats,
    swap: SwapTwoWay,
    swap_probes: ProbeStats,
}

impl L2Observer for Shadow {
    fn on_l2_request(&mut self, req: &L2RequestView<'_>) {
        let is_write = req.kind == L2RequestKind::WriteBack;
        let hr = self.hr.access(req.addr, is_write);
        let dm = self.dm.access(req.addr, is_write);
        let sw = self.swap.access(req.addr, is_write);
        match req.kind {
            L2RequestKind::ReadIn => {
                if hr.hit {
                    self.hr_probes.record_hit(hr.probes);
                } else {
                    self.hr_probes.record_miss(hr.probes);
                }
                if dm.hit {
                    self.dm_probes.record_hit(1);
                } else {
                    self.dm_probes.record_miss(1);
                }
                if sw.hit {
                    self.swap_probes.record_hit(sw.probes);
                } else {
                    self.swap_probes.record_miss(sw.probes);
                }
            }
            L2RequestKind::WriteBack => {
                // The write-back optimization applies to every organization
                // (the L1 hint is a frame index for hash-rehash too).
                self.hr_probes.record_write_back(0);
                self.dm_probes.record_write_back(0);
                self.swap_probes.record_write_back(0);
            }
        }
    }
}

/// Runs the study on the figures preset.
pub fn run(params: &ExperimentParams) -> HashRehashStudy {
    let preset = params.preset;
    let l1 = preset.l1().expect("preset geometry is valid");
    let l2_two_way = preset.l2(2).expect("preset geometry is valid");
    let l2_direct =
        CacheConfig::direct_mapped(preset.l2_size, preset.l2_block).expect("valid direct L2");

    // Pass 1: price the 2-way organization under three lookups.
    let strategies = [
        StrategyKind::Traditional(Traditional),
        StrategyKind::Naive(Naive),
        StrategyKind::Mru(Mru::full()),
    ];
    let two_way = simulate(
        l1,
        l2_two_way,
        AtumLike::new(params.trace.clone(), params.seed),
        &strategies,
    );

    // Pass 2: identical request stream into the shadow organizations.
    let mut hierarchy = TwoLevel::new(l1, l2_two_way).expect("compatible levels");
    let mut shadow = Shadow {
        hr: HashRehashCache::new(l2_direct).expect("valid hash-rehash geometry"),
        hr_probes: ProbeStats::new(),
        dm: Cache::new(l2_direct),
        dm_probes: ProbeStats::new(),
        swap: SwapTwoWay::new(l2_two_way).expect("valid 2-way geometry"),
        swap_probes: ProbeStats::new(),
    };
    // Shadow caches must also go cold at segment boundaries; TwoLevel
    // flushes itself, so mirror the flush events.
    for event in AtumLike::new(params.trace.clone(), params.seed) {
        if event.is_flush() {
            shadow.hr.flush();
            shadow.dm.flush();
            shadow.swap.flush();
        }
        hierarchy.process(&event, &mut shadow);
    }

    let mut rows = Vec::new();
    let dm_total = shadow.dm_probes.hits.count + shadow.dm_probes.misses.count;
    rows.push(HashRehashRow {
        organization: "direct-mapped".into(),
        local_miss_ratio: if dm_total == 0 {
            0.0
        } else {
            shadow.dm_probes.misses.count as f64 / dm_total as f64
        },
        hit_probes: 1.0,
        miss_probes: 1.0,
        total_probes: shadow.dm_probes.total_mean(),
    });
    let two_way_read_in_miss = (two_way.hierarchy.read_ins - two_way.hierarchy.read_in_hits) as f64
        / two_way.hierarchy.read_ins.max(1) as f64;
    for s in &two_way.strategies {
        rows.push(HashRehashRow {
            organization: format!("2-way {}", s.name),
            local_miss_ratio: two_way_read_in_miss,
            hit_probes: s.probes.hit_mean(),
            miss_probes: s.probes.miss_mean(),
            total_probes: s.probes.total_mean(),
        });
    }
    let sw_total = shadow.swap_probes.hits.count + shadow.swap_probes.misses.count;
    rows.push(HashRehashRow {
        organization: "2-way swap-ordered".into(),
        local_miss_ratio: if sw_total == 0 {
            0.0
        } else {
            shadow.swap_probes.misses.count as f64 / sw_total as f64
        },
        hit_probes: shadow.swap_probes.hit_mean(),
        miss_probes: shadow.swap_probes.miss_mean(),
        total_probes: shadow.swap_probes.total_mean(),
    });
    let hr_total = shadow.hr_probes.hits.count + shadow.hr_probes.misses.count;
    rows.push(HashRehashRow {
        organization: "hash-rehash".into(),
        local_miss_ratio: if hr_total == 0 {
            0.0
        } else {
            shadow.hr_probes.misses.count as f64 / hr_total as f64
        },
        hit_probes: shadow.hr_probes.hit_mean(),
        miss_probes: shadow.hr_probes.miss_mean(),
        total_probes: shadow.hr_probes.total_mean(),
    });
    HashRehashStudy {
        l2_label: l2_two_way.label(),
        rows,
    }
}

impl HashRehashStudy {
    /// The row for an organization label.
    pub fn row(&self, organization: &str) -> Option<&HashRehashRow> {
        self.rows.iter().find(|r| r.organization == organization)
    }

    /// Renders the study.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(
            [
                "Organization",
                "Local miss",
                "Hit probes",
                "Miss probes",
                "Total",
            ]
            .map(String::from)
            .to_vec(),
        );
        for r in &self.rows {
            t.row(vec![
                r.organization.clone(),
                f4(r.local_miss_ratio),
                f2(r.hit_probes),
                f2(r.miss_probes),
                f2(r.total_probes),
            ]);
        }
        format!(
            "Hash-rehash vs 2-way set-associativity ({} L2; footnote 2 study)\n{}",
            self.l2_label,
            t.render()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::tiny_params;

    fn study() -> HashRehashStudy {
        run(&tiny_params())
    }

    #[test]
    fn covers_all_organizations() {
        let s = study();
        assert_eq!(s.rows.len(), 6);
        for org in [
            "direct-mapped",
            "2-way traditional",
            "2-way naive",
            "2-way mru",
            "2-way swap-ordered",
            "hash-rehash",
        ] {
            assert!(s.row(org).is_some(), "{org} missing");
        }
    }

    #[test]
    fn swap_ordered_has_true_two_way_miss_ratio_and_cheap_hits() {
        // §2.1's swapping scheme: exact 2-way LRU contents (same miss
        // ratio as the reference), hits cheaper than the MRU-list scheme.
        let s = study();
        let sw = s.row("2-way swap-ordered").expect("row");
        let two = s.row("2-way mru").expect("row");
        assert!(
            (sw.local_miss_ratio - two.local_miss_ratio).abs() < 1e-12,
            "swap {} vs lru {}",
            sw.local_miss_ratio,
            two.local_miss_ratio
        );
        assert!(sw.hit_probes < two.hit_probes);
        // And it dominates hash-rehash on miss ratio at equal probe costs.
        let hr = s.row("hash-rehash").expect("row");
        assert!(sw.local_miss_ratio <= hr.local_miss_ratio + 1e-12);
    }

    #[test]
    fn miss_ratio_orders_direct_hashrehash_two_way() {
        // Hash-rehash approximates 2-way placement on direct-mapped
        // hardware: its miss ratio lands between the two.
        let s = study();
        let dm = s.row("direct-mapped").expect("row").local_miss_ratio;
        let hr = s.row("hash-rehash").expect("row").local_miss_ratio;
        let two = s.row("2-way mru").expect("row").local_miss_ratio;
        assert!(hr < dm, "hash-rehash {hr} should beat direct-mapped {dm}");
        assert!(
            two <= hr + 0.02,
            "true 2-way LRU {two} should be best (hr {hr})"
        );
    }

    #[test]
    fn hash_rehash_hits_are_cheaper_than_mru() {
        // Footnote 2's claim: most hash-rehash hits cost one probe, while
        // every MRU hit pays the list read first.
        let s = study();
        let hr = s.row("hash-rehash").expect("row");
        let mru = s.row("2-way mru").expect("row");
        assert!(
            hr.hit_probes < mru.hit_probes,
            "hash-rehash {} vs mru {}",
            hr.hit_probes,
            mru.hit_probes
        );
        assert!(hr.hit_probes >= 1.0 && hr.hit_probes <= 2.0);
    }

    #[test]
    fn hash_rehash_misses_cost_two_probes() {
        let s = study();
        assert_eq!(s.row("hash-rehash").expect("row").miss_probes, 2.0);
        assert_eq!(s.row("2-way mru").expect("row").miss_probes, 3.0);
        assert_eq!(s.row("2-way naive").expect("row").miss_probes, 2.0);
    }

    #[test]
    fn render_lists_every_organization() {
        let s = study().render();
        assert!(s.contains("hash-rehash"), "{s}");
        assert!(s.contains("direct-mapped"), "{s}");
    }
}
