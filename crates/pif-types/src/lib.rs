//! Core value types shared by every crate in the Proactive Instruction Fetch
//! (PIF) reproduction.
//!
//! This crate defines the vocabulary of the whole system:
//!
//! * [`Address`] — a byte address in the simulated instruction memory.
//! * [`BlockAddr`] — a cache-block (64 B by default) aligned address; the
//!   granularity at which caches and prefetchers operate.
//! * [`TrapLevel`] — SPARC-style processor trap level used to separate
//!   application references ([`TrapLevel::Tl0`]) from hardware interrupt
//!   handler references ([`TrapLevel::Tl1`]).
//! * [`RetiredInstr`] — one record of the retire-order instruction stream,
//!   the stream PIF learns from.
//! * [`FetchAccess`] — one front-end instruction-cache access, possibly on
//!   the wrong path, the stream the I-cache actually observes.
//! * [`SpatialRegionRecord`] — the compact trigger+bitvector representation
//!   of a group of spatially-close instruction blocks (paper §3, §4.1).
//! * [`InstrSource`] — a pull-based stream of retired instructions, the
//!   abstraction that lets the engine simulate traces larger than RAM.
//! * [`rng`] — the seeded [`rng::SmallRng`] behind every synthetic trace,
//!   plus the SplitMix64 step and the FNV-1a 64 hash.
//!
//! # Example
//!
//! ```
//! use pif_types::{Address, BlockAddr, BLOCK_SIZE};
//!
//! let pc = Address::new(0x4_0040);
//! let block = pc.block();
//! assert_eq!(block.base().raw(), 0x4_0040 & !(BLOCK_SIZE as u64 - 1));
//! assert_eq!(block.next(), BlockAddr::containing(Address::new(0x4_0080)));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod address;
mod error;
mod record;
mod region;
pub mod rng;
mod source;
mod trap;

pub use address::{Address, BlockAddr, BLOCK_SHIFT, BLOCK_SIZE};
pub use error::ConfigError;
pub use record::{BranchInfo, BranchKind, FetchAccess, FetchKind, RetiredInstr};
pub use region::{RegionBits, RegionGeometry, SpatialRegionRecord};
pub use source::{InstrFeed, InstrSource};
pub use trap::TrapLevel;
