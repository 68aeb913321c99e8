//! Write-back cache simulation substrate for the `seta` studies.
//!
//! This crate implements the memory-system substrate of
//! *Kessler, Jooss, Lebeck and Hill, "Inexpensive Implementations of
//! Set-Associativity" (ISCA 1989)*: set-associative write-back caches with
//! pluggable replacement policies, and the two-level hierarchy (a
//! direct-mapped write-back level-one cache in front of a set-associative
//! write-back level-two cache) whose level-two request stream every
//! experiment in the paper measures.
//!
//! The crate deliberately separates *cache contents* from *lookup cost*:
//! a [`Cache`] tracks which blocks are resident and in what MRU order, and
//! exposes per-set views ([`Cache::set_frames`], [`Cache::set_order`]) so
//! the lookup strategies in `seta-core` can be priced against identical
//! contents. For a fixed configuration, hits, misses, and replacement are
//! the same no matter which lookup implementation a real machine would use
//! — only the probe count differs — which is what lets a single simulation
//! pass score every strategy at once.
//!
//! # Example
//!
//! ```
//! use seta_cache::{Cache, CacheConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let config = CacheConfig::new(64 * 1024, 32, 4)?; // 64 KiB, 32 B blocks, 4-way
//! let mut cache = Cache::new(config);
//! let first = cache.access(0x1234_5678, false);
//! assert!(!first.hit);
//! let second = cache.access(0x1234_5678, true);
//! assert!(second.hit);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod addr;
pub mod bank;
pub mod block;
pub mod cache;
pub mod config;
pub mod hash_rehash;
pub mod hierarchy;
pub mod mattson;
pub mod multilevel;
pub mod replacement;
pub mod stats;
pub mod swap_two_way;

pub use addr::AddressMapper;
pub use bank::{BankAccess, SetBank};
pub use block::{Frame, FramesIter, SetFrames};
pub use cache::{AccessResult, Cache, EvictedBlock};
pub use config::{CacheConfig, CacheConfigError};
pub use hash_rehash::{HashRehashCache, HrAccess};
pub use hierarchy::{
    filter_l1, step_l1, FilteredEvent, L1Miss, L2Half, L2Observer, L2RequestKind, L2RequestView,
    TwoLevel, TwoLevelStats,
};
pub use mattson::MattsonAnalyzer;
pub use multilevel::{LevelTraffic, MultiLevel, MultiLevelObserver};
pub use replacement::Policy;
pub use stats::CacheStats;
pub use swap_two_way::{SwapAccess, SwapTwoWay};
