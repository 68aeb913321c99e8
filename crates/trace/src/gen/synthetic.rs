//! Elementary reference models: IRM and strided streams.
//!
//! Besides the multiprogrammed [`AtumLike`](crate::gen::AtumLike) workload,
//! cache studies lean on two degenerate models with known closed-form
//! behaviour, useful for validating simulators against theory:
//!
//! * [`Irm`] — the *independent reference model*: every reference picks a
//!   block from a fixed pool, independently and uniformly. Under IRM an
//!   LRU cache's hit ratio has a known form, and stored tags are
//!   uniformly distributed — the assumption behind the paper's partial-
//!   compare analysis (`seta`'s model-vs-simulation tests are built on
//!   this stream).
//! * [`Strided`] — a pure strided sweep (vector traversal): the worst
//!   case for temporal locality and the best for spatial locality.

use crate::record::{AccessKind, TraceRecord};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Independent references over a pool of random block addresses.
///
/// # Example
///
/// ```
/// use seta_trace::gen::Irm;
///
/// let mut irm = Irm::new(64, 16, 0.3, 7).unwrap();
/// let r = irm.next_record();
/// assert_eq!(r.addr % 16, 0, "block aligned");
/// ```
#[derive(Debug)]
pub struct Irm {
    pool: Vec<u64>,
    write_fraction: f64,
    rng: StdRng,
}

impl Irm {
    /// Creates an IRM stream over `pool_blocks` random block addresses of
    /// the given block size, drawn from a 2^48-byte space so tags are
    /// uniform at every width the paper studies.
    ///
    /// # Errors
    ///
    /// Returns an error if `pool_blocks` is zero, `block_size` is not a
    /// power of two, or `write_fraction` is not a probability.
    pub fn new(
        pool_blocks: usize,
        block_size: u64,
        write_fraction: f64,
        seed: u64,
    ) -> Result<Self, String> {
        if pool_blocks == 0 {
            return Err("pool must hold at least one block".into());
        }
        if !block_size.is_power_of_two() {
            return Err(format!("block_size {block_size} is not a power of two"));
        }
        if !(0.0..=1.0).contains(&write_fraction) {
            return Err(format!(
                "write_fraction {write_fraction} is not a probability"
            ));
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let mask = !(block_size - 1);
        let pool = (0..pool_blocks)
            .map(|_| rng.gen_range(0u64..(1 << 48)) & mask)
            .collect();
        Ok(Irm {
            pool,
            write_fraction,
            rng,
        })
    }

    /// Produces the next reference.
    pub fn next_record(&mut self) -> TraceRecord {
        let addr = self.pool[self.rng.gen_range(0..self.pool.len())];
        let kind = if self.rng.gen_bool(self.write_fraction) {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        TraceRecord::new(addr, kind)
    }
}

impl Iterator for Irm {
    type Item = TraceRecord;

    fn next(&mut self) -> Option<Self::Item> {
        Some(self.next_record())
    }
}

/// A strided sweep: `base, base+stride, base+2·stride, …`, wrapping after
/// `length` references.
///
/// # Example
///
/// ```
/// use seta_trace::gen::Strided;
///
/// let mut s = Strided::new(0x1000, 16, 4, false).unwrap();
/// let addrs: Vec<u64> = (0..5).map(|_| s.next_record().addr).collect();
/// assert_eq!(addrs, vec![0x1000, 0x1010, 0x1020, 0x1030, 0x1000]);
/// ```
#[derive(Debug, Clone)]
pub struct Strided {
    base: u64,
    stride: u64,
    length: u64,
    writes: bool,
    position: u64,
}

impl Strided {
    /// Creates the sweep.
    ///
    /// # Errors
    ///
    /// Returns an error if `stride` or `length` is zero.
    pub fn new(base: u64, stride: u64, length: u64, writes: bool) -> Result<Self, String> {
        if stride == 0 {
            return Err("stride must be positive".into());
        }
        if length == 0 {
            return Err("length must be positive".into());
        }
        Ok(Strided {
            base,
            stride,
            length,
            writes,
            position: 0,
        })
    }

    /// Produces the next reference.
    pub fn next_record(&mut self) -> TraceRecord {
        let addr = self.base + self.position * self.stride;
        self.position = (self.position + 1) % self.length;
        if self.writes {
            TraceRecord::write(addr)
        } else {
            TraceRecord::read(addr)
        }
    }
}

impl Iterator for Strided {
    type Item = TraceRecord;

    fn next(&mut self) -> Option<Self::Item> {
        Some(self.next_record())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn irm_draws_only_from_its_pool() {
        let mut irm = Irm::new(16, 32, 0.0, 1).unwrap();
        let pool: HashSet<u64> = irm.pool.iter().copied().collect();
        for _ in 0..1000 {
            assert!(pool.contains(&irm.next_record().addr));
        }
    }

    #[test]
    fn irm_is_roughly_uniform() {
        let mut irm = Irm::new(8, 16, 0.0, 2).unwrap();
        let mut counts: std::collections::HashMap<u64, u64> = Default::default();
        let n = 80_000;
        for _ in 0..n {
            *counts.entry(irm.next_record().addr).or_default() += 1;
        }
        for (&addr, &c) in &counts {
            let frac = c as f64 / n as f64;
            assert!((frac - 0.125).abs() < 0.01, "{addr:#x}: {frac}");
        }
    }

    #[test]
    fn irm_write_fraction_holds() {
        let mut irm = Irm::new(32, 16, 0.25, 3).unwrap();
        let writes = (0..40_000)
            .filter(|_| irm.next_record().kind.is_write())
            .count();
        let frac = writes as f64 / 40_000.0;
        assert!((frac - 0.25).abs() < 0.02, "{frac}");
    }

    #[test]
    fn irm_rejects_bad_parameters() {
        assert!(Irm::new(0, 16, 0.0, 0).is_err());
        assert!(Irm::new(4, 24, 0.0, 0).is_err());
        assert!(Irm::new(4, 16, 1.5, 0).is_err());
    }

    #[test]
    fn irm_deterministic_given_seed() {
        let a: Vec<_> = Irm::new(16, 16, 0.3, 9).unwrap().take(200).collect();
        let b: Vec<_> = Irm::new(16, 16, 0.3, 9).unwrap().take(200).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn strided_wraps_at_length() {
        let s = Strided::new(0, 64, 3, true).unwrap();
        let addrs: Vec<u64> = s.take(7).map(|r| r.addr).collect();
        assert_eq!(addrs, vec![0, 64, 128, 0, 64, 128, 0]);
    }

    #[test]
    fn strided_kind_follows_flag() {
        let mut reads = Strided::new(0, 4, 2, false).unwrap();
        let mut writes = Strided::new(0, 4, 2, true).unwrap();
        assert_eq!(reads.next_record().kind, AccessKind::Read);
        assert_eq!(writes.next_record().kind, AccessKind::Write);
    }

    #[test]
    fn strided_rejects_zero_parameters() {
        assert!(Strided::new(0, 0, 4, false).is_err());
        assert!(Strided::new(0, 4, 0, false).is_err());
    }

    #[test]
    fn strided_longer_than_cache_always_misses() {
        // Classic check: a sweep longer than a fully-associative LRU cache
        // never hits (pathological anti-LRU pattern).
        use crate::record::TraceEvent;
        let s = Strided::new(0, 16, 32, false).unwrap();
        let events: Vec<TraceEvent> = s.take(320).map(TraceEvent::Ref).collect();
        // Emulate with a tiny stack: distance to previous touch is always
        // 31 (the other 31 blocks intervene).
        let mut last_seen: std::collections::HashMap<u64, usize> = Default::default();
        for (i, e) in events.iter().enumerate() {
            let b = e.as_ref_event().unwrap().addr / 16;
            if let Some(&prev) = last_seen.get(&b) {
                assert_eq!(i - prev, 32);
            }
            last_seen.insert(b, i);
        }
    }
}
