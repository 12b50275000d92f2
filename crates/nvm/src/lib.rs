//! Byte-addressable non-volatile memory (NVM) model with a volatile
//! write-back cache in front of it.
//!
//! This crate is the persistence substrate for the Lazy Persistency (LP)
//! reproduction. Its job is to model the one property LP cares about:
//! **stores become durable only when their cache line is written back to the
//! NVM**, either by natural eviction or by an explicit flush. A crash discards
//! everything still sitting in the volatile cache.
//!
//! The model is deliberately architectural rather than cycle-accurate: it
//! tracks *which bytes are durable*, *how many NVM reads/writes happened*
//! (for the paper's write-amplification study, §VII-3), and charges latency
//! and bandwidth numbers that the GPU simulator folds into its timing model.
//!
//! # Quick example
//!
//! ```
//! use nvm::{NvmConfig, PersistMemory};
//!
//! let mut mem = PersistMemory::new(NvmConfig::default());
//! let a = mem.alloc(16, 8);
//! mem.write_u64(a, 42);
//! assert_eq!(mem.read_u64(a), 42);
//! // The write is still volatile: a crash loses it.
//! mem.crash();
//! assert_eq!(mem.read_u64(a), 0);
//! // After a flush it survives crashes.
//! mem.write_u64(a, 42);
//! mem.flush_all();
//! mem.crash();
//! assert_eq!(mem.read_u64(a), 42);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod alloc;
mod cache;
mod config;
mod fault;
mod memory;
mod stats;

pub use alloc::{Addr, BumpAllocator};
pub use cache::{CacheLine, WriteBackCache};
pub use config::NvmConfig;
pub use fault::{DeviceFaults, FaultConfig, FaultModel, FlushOutcome};
pub use memory::{CrashLoss, CrashPredicate, LostLine, PersistMemory};
pub use stats::NvmStats;

/// SplitMix64 (Vigna's finaliser): the workspace's one 64-bit mixer, a
/// cheap, well-avalanched permutation. It seeds the fault model's PRNG,
/// indexes the checksum tables, seals durable records and derives every
/// app and soak schedule, so its constants must never change — persisted
/// images and every digest depend on them.
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}
