#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # `smpi` — an MPI subset layered the way MPICH is
//!
//! The paper ports MPICH to SCRAMNet through MPICH's **Channel Interface**
//! — the narrowest, quickest-to-port device layer — and then modifies the
//! collectives to use the BillBoard Protocol's native multicast instead of
//! point-to-point trees. This crate reproduces that structure:
//!
//! ```text
//! MPI bindings           Comm::{send, recv, bcast, barrier, reduce, …}
//!   └─ ADI               posted/unexpected queues, eager + rendezvous
//!        └─ Channel Interface   packet framing (64-byte header)
//!             └─ Device         enum: Bbp (SCRAMNet) | Tcp (sockets: FastE/ATM/Myrinet,
//!                               or the Myrinet API) | Hybrid (SCRAMNet + bulk)
//! ```
//!
//! Every layer charges its calibrated software cost ([`SmpiCosts`]), which
//! is how the paper's ≈37 µs constant "MPI tax" over the raw BBP API
//! emerges (its breakdown is recorded in `EXPERIMENTS.md`).
//!
//! Collectives come in two implementations, selected per communicator
//! ([`CollectiveImpl`]):
//!
//! - **PointToPoint** — binomial-tree broadcast and gather+release
//!   barrier, exactly what stock MPICH runs on any device;
//! - **Native** — the paper's §4 algorithms: `MPI_Bcast` posts once and
//!   flags every receiver via `bbp_Mcast`; `MPI_Barrier` has rank 0
//!   collect null messages then release everyone with one multicast.
//!   Devices without hardware multicast (TCP) fall back to PointToPoint.
//!
//! ## Example
//!
//! ```
//! use des::Simulation;
//! use smpi::MpiWorld;
//!
//! let mut sim = Simulation::new();
//! let world = MpiWorld::scramnet(&sim.handle(), 4);
//! for rank in 0..4 {
//!     let mut mpi = world.proc(rank);
//!     sim.spawn(format!("rank{rank}"), move |ctx| {
//!         let comm = mpi.comm_world();
//!         let data = if mpi.rank() == 0 { Some(&b"hello"[..]) } else { None };
//!         let out = mpi.bcast(ctx, &comm, 0, data);
//!         assert_eq!(out, b"hello");
//!         mpi.barrier(ctx, &comm);
//!     });
//! }
//! assert!(sim.run().is_clean());
//! ```

mod adi;
mod collectives;
mod costs;
mod degraded;
mod device;
mod hybrid;
mod mpi;
#[cfg(test)]
pub(crate) mod testutil;
mod types;
mod world;

pub use adi::{Adi, Idle};
pub use collectives::CollectiveImpl;
pub use costs::SmpiCosts;
pub use device::{Device, DeviceError, PacketHeader, PacketKind, TcpDevice};
pub use hybrid::HybridDevice;
pub use mpi::{Comm, Mpi};
pub use types::{MpiError, RecvRequest, ReduceOp, SendRequest, Status, Tag, ANY_SOURCE, ANY_TAG};
pub use world::MpiWorld;
