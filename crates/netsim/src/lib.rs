#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # `netsim` — the paper's comparator networks
//!
//! The evaluation (Figures 2, 3, 5, 6) compares SCRAMNet against the
//! commodity interconnects of the era, all on 4 dual-Pentium-II/300 Linux
//! 2.0.30 boxes:
//!
//! - **Fast Ethernet** (100 Mb/s, switched, store-and-forward) under
//!   TCP/IP,
//! - **ATM OC-3** (155 Mb/s, AAL5 segmentation with the 5-in-53 cell tax)
//!   under TCP/IP,
//! - **Myrinet** (1.28 Gb/s, cut-through) under both its native user-level
//!   API and TCP/IP.
//!
//! This crate models each as a star fabric (hosts → one switch) with
//! per-link occupancy, under one host-stack cost model, [`TcpCosts`]: base
//! latency, per-byte copy and per-segment cost on each side, with a
//! preset per stack. The native Myrinet API is the preset with no
//! per-segment cost (OS bypass, no kernel path). The constants are
//! calibrated to era-typical measurements and to the paper's own anchor
//! points (3-node MPI barrier: 554 µs on Fast Ethernet, 660 µs on ATM);
//! the calibration record lives in `EXPERIMENTS.md`.
//!
//! The endpoints are *message-framed* (each `send` delivers one `recv`),
//! which is how MPICH's channel device uses TCP; byte-stream reassembly
//! adds nothing to the latency model.
//!
//! ## Example
//!
//! ```
//! use des::Simulation;
//! use netsim::{NetSpec, TcpCosts, TcpNet};
//!
//! let mut sim = Simulation::new();
//! let net = TcpNet::new(&sim.handle(), NetSpec::fast_ethernet(4), TcpCosts::fast_ethernet());
//! let (a, b) = net.socket_pair(0, 1);
//! sim.spawn("a", move |ctx| a.send(ctx, b"over tcp"));
//! sim.spawn("b", move |ctx| {
//!     assert_eq!(b.recv(ctx), b"over tcp");
//! });
//! assert!(sim.run().is_clean());
//! ```

mod fabric;
mod spec;
mod tcp;

pub use fabric::{Fabric, FabricStats};
pub use spec::NetSpec;
pub use tcp::{TcpCosts, TcpNet, TcpSock};
