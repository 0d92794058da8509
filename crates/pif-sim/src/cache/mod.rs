//! Cache models: a generic set-associative LRU cache, the L1 instruction
//! cache wrapper, and the L2 backing model.

mod icache;
mod l2;
mod replacement;
mod set_assoc;

pub use icache::{AccessOutcome, InstructionCache, LineProvenance};
pub use l2::L2Model;
pub use set_assoc::SetAssocCache;
