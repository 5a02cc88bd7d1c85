#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # scramnet-cluster
//!
//! Umbrella crate for the reproduction of *Low-Latency Message Passing on
//! Workstation Clusters using SCRAMNet* (IPPS 1999). It re-exports the
//! member crates so examples and integration tests can `use
//! scramnet_cluster::...` uniformly:
//!
//! - [`des`] — deterministic discrete-event simulation kernel;
//! - [`scramnet`] — the SCRAMNet replicated shared-memory ring model;
//! - [`bbp`] — the BillBoard Protocol (the paper's contribution);
//! - [`netsim`] — Fast Ethernet / ATM / Myrinet baselines with a TCP-like
//!   stack;
//! - [`smpi`] — an MPI subset layered MPICH-style over pluggable devices;
//! - [`shmem`] — the shared-memory programming model SCRAMNet was
//!   originally used with (bakery locks, barriers, counters, events);
//! - [`rpc`] — zero-copy request/reply serving over BBP with
//!   ownership-transfer buffers and credit-based backpressure;
//! - [`workload`] — seed-deterministic workload campaigns (incast,
//!   hotspots, bursts, unexpected-queue floods, stragglers, mixed
//!   MPI+RPC) with SLO capacity reports.
//!
//! See `DESIGN.md` for the system inventory and `EXPERIMENTS.md` for the
//! paper-vs-measured record of every figure.

pub use bbp;
pub use des;
pub use netsim;
pub use obs;
pub use rpc;
pub use scramnet;
pub use shmem;
pub use smpi;
pub use workload;
