#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # `scramnet` — a model of the SCRAMNet replicated shared-memory network
//!
//! SCRAMNet (Shared Common RAM Network, SYSTRAN Corp.) is a *replicated,
//! non-coherent* shared-memory network: NICs carrying on-board memory
//! banks are joined by a register-insertion ring. A host store into its
//! NIC's memory is reflected — word by word, in source order — into the
//! same offset of every other NIC's bank as the write packet circulates
//! the ring. There is no coherence protocol: two nodes writing the same
//! word concurrently may be observed in different orders at different
//! nodes. The paper's BillBoard Protocol (crate `bbp`) is designed so that
//! every shared word has exactly one writer, which sidesteps the
//! non-coherence entirely.
//!
//! This crate reproduces the behaviour and the costs of the hardware:
//!
//! - [`CostModel`] — every timing constant (PIO word/burst costs, per-hop
//!   latency, fixed-/variable-mode serialization), calibrated against the
//!   paper's measured numbers (see `EXPERIMENTS.md`).
//! - [`Ring`] — the register-insertion ring: cut-through forwarding,
//!   per-link occupancy (aggregate throughput equals the link rate because
//!   every packet traverses the whole ring back to its originator),
//!   deterministic per-source FIFO delivery, node-bypass fault injection.
//! - [`Nic`] — the host-side port: programmed-I/O word and block
//!   reads/writes against the local bank, packet injection, and the
//!   interrupt-on-write facility used by the interrupt-driven receive
//!   extension.
//!
//! ## Example
//!
//! ```
//! use des::{Simulation, us};
//! use scramnet::{CostModel, Ring, TxMode};
//!
//! let mut sim = Simulation::new();
//! let ring = Ring::new(&sim.handle(), 4, 1024, CostModel::default());
//! let tx = ring.nic(0);
//! let rx = ring.nic(1);
//! sim.spawn("writer", move |ctx| {
//!     tx.write_word(ctx, 100, 0xDEAD_BEEF);
//! });
//! sim.spawn("reader", move |ctx| {
//!     ctx.wait_until(us(50)); // long after propagation
//!     assert_eq!(rx.read_word(ctx, 100), 0xDEAD_BEEF);
//! });
//! assert!(sim.run().is_clean());
//! ```

mod bank;
mod cost;
pub mod fault;
mod fifo;
mod hierarchy;
mod nic;
mod ring;
mod stats;

pub use bank::bank_storage_allocated;
pub use cost::{CostModel, TxMode, BYPASS_HOP_NS};
pub use fault::{FaultAt, FaultPlan};
pub use hierarchy::{HierarchyConfig, RingHierarchy};
pub use nic::Nic;
pub use ring::{Delivery, ReachabilitySet, Ring, RingConfig};
pub use stats::RingStats;

/// SCRAMNet's transfer unit: a 32-bit word. All shared-memory offsets in
/// this workspace are word addresses.
pub type Word = u32;

/// A word offset into the replicated memory.
pub type WordAddr = usize;
