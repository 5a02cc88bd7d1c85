#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # `shmem` — shared-memory programming on SCRAMNet
//!
//! Before the paper's BillBoard Protocol, SCRAMNet "has been almost
//! exclusively used for shared memory programming" (§2), with
//! synchronization mechanisms developed in Menke, Moir & Ramamurthy,
//! *Synchronization Mechanisms for SCRAMNet+ Systems* (PODC '97) —
//! the paper's reference \[10\]. This crate rebuilds that substrate so the
//! repository covers both programming models the paper discusses.
//!
//! ## Why these algorithms
//!
//! SCRAMNet replication gives each word the semantics of a
//! **single-writer regular register**: one node writes it, every node
//! reads its own replica, and a read concurrent with propagation returns
//! the old or the new value — never garbage, never a third value. There
//! is no compare-and-swap and no total write order across different
//! writers, so classical lock-free primitives don't apply. What *does*
//! work is exactly the classical literature on regular registers:
//!
//! - [`BakeryLock`] — Lamport's bakery algorithm, proven correct with
//!   single-writer regular (even safe) registers;
//! - [`SenseBarrier`] — an all-to-all barrier from per-process monotonic
//!   arrival counters;
//! - [`DistributedCounter`] — per-writer addend cells summed on read
//!   (the standard reflective-memory idiom for shared counters);
//! - [`EventFlag`] — one writer signalling many pollers/sleepers.
//!
//! All offsets follow the same single-writer discipline the BillBoard
//! Protocol uses, so the `scramnet` ring's owner check, made at every
//! inject, holds these primitives to it too (and the tests read its
//! conflict log).
//!
//! ## Example
//!
//! ```
//! use des::Simulation;
//! use scramnet::{CostModel, Ring};
//! use shmem::BakeryLock;
//!
//! let mut sim = Simulation::new();
//! let ring = Ring::new(&sim.handle(), 2, 256, CostModel::default());
//! let lock = BakeryLock::layout(0, 2); // at word offset 0, 2 processes
//! for node in 0..2 {
//!     let mut guard = lock.handle(ring.nic(node));
//!     sim.spawn(format!("p{node}"), move |ctx| {
//!         guard.lock(ctx);
//!         // ... critical section ...
//!         guard.unlock(ctx);
//!     });
//! }
//! assert!(sim.run().is_clean());
//! ```

mod bakery;
mod barrier;
mod counter;
mod event;

pub use bakery::{BakeryHandle, BakeryLock};
pub use barrier::{SenseBarrier, SenseBarrierHandle};
pub use counter::{CounterHandle, DistributedCounter};
pub use event::{EventFlag, EventFlagHandle, EventFlagOwner};
