//! Tag-transformation quality: why the partial-compare scheme stores
//! *transformed* tags.
//!
//! ```text
//! cargo run --release --example transform_quality
//! ```
//!
//! Virtual-address tags share their high-order bits (same region of the
//! address space), so the tag slices the upper comparator slots see are
//! nearly constant — almost every lookup "partially matches" and the
//! scheme degrades toward the naive serial scan. The paper's fix is a
//! GF(2)-linear transform that folds low-order entropy into every slice.
//! This example measures false-match rates for each transform directly,
//! and shows the GF(2) machinery proving each transform invertible.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use seta::core::lookup::{PartialCompare, TransformKind};
use seta::core::transform::{Gf2Matrix, Identity, Improved, TagTransform, XorFold};
use seta::core::{model, SetView};

/// The tags of a full 4-way set of correlated tags: same high bits, low
/// bits drawn from a small pool (offsets 0–127) — the virtual-address
/// pathology.
fn correlated_tags(rng: &mut StdRng, high: u64) -> [u64; 4] {
    let base = high << 8;
    let mut tags = [0u64; 4];
    for (i, t) in tags.iter_mut().enumerate() {
        *t = base | (rng.gen_range(0u64..32) << 2) | i as u64;
    }
    tags
}

fn main() {
    let trials = 200_000;

    println!("Partial-compare MISS cost on correlated 16-bit tags (4-way, k=4)\n");
    println!(
        "{:<10} {:>14} {:>16}",
        "transform", "probes/miss", "theory (random)"
    );
    let theory = model::partial_miss(4, 4, 1);
    for kind in [
        TransformKind::None,
        TransformKind::XorFold,
        TransformKind::Improved,
        TransformKind::Swap,
    ] {
        let strategy = PartialCompare::new(16, 1, kind);
        let mut probes = 0u64;
        let mut r = StdRng::seed_from_u64(7);
        for _ in 0..trials {
            let high = r.gen_range(0u64..4); // few distinct high-bit patterns
            let tags = correlated_tags(&mut r, high);
            let view = SetView::from_parts(&tags, &[true; 4], &[0, 1, 2, 3]);
            // Probe with a tag from the same region that is NOT resident
            // (stored offsets stay below 128; incoming start at 128).
            let incoming = (high << 8) | (r.gen_range(32u64..64) << 2);
            let lookup = strategy.lookup(&view, incoming);
            assert!(lookup.hit_way.is_none());
            probes += lookup.probes as u64;
        }
        println!(
            "{:<10} {:>14.3} {:>16.3}",
            format!("{kind}"),
            probes as f64 / trials as f64,
            theory
        );
    }

    println!("\nEvery transform is a GF(2)-linear bijection (footnote 8):\n");
    let transforms: Vec<Box<dyn TagTransform>> = vec![
        Box::new(Identity::new(16)),
        Box::new(XorFold::new(16, 4)),
        Box::new(Improved::new(16, 4)),
    ];
    for t in &transforms {
        let m = Gf2Matrix::of_transform(t.as_ref());
        println!(
            "  {:<9} unit-lower-triangular: {:<5}  invertible: {}",
            t.name(),
            m.is_unit_lower_triangular(),
            m.is_invertible()
        );
        // Round-trip a tag through the inverse to recover the original
        // (what the cache does to write back a block's address).
        let tag = 0xBEEF & 0xFFFF;
        assert_eq!(t.inverse(t.forward(tag)), tag);
    }

    println!(
        "\nWith no transform, the constant high slices make nearly every tag a\n\
         partial match (miss cost ≈ naive's a probes). The XOR fold restores\n\
         most of the selectivity; the improved transform and the bit-swap\n\
         policy approach the independent-uniform theory bound."
    );
}
