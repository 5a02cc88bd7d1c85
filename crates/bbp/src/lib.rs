#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # `bbp` — the BillBoard Protocol
//!
//! The primary contribution of *Low-Latency Message Passing on Workstation
//! Clusters using SCRAMNet* (IPPS 1999): a **zero-copy, lock-free,
//! user-level** message-passing protocol over SCRAMNet's replicated,
//! non-coherent shared memory.
//!
//! ## How it works (paper §3)
//!
//! The shared memory is divided equally among the participating processes;
//! each process's partition is split into a *control partition* and a
//! *data partition*. To send, a process "posts the message at one place,
//! where it can be read by one or more receivers" — like advertising on a
//! billboard:
//!
//! 1. the sender allocates a buffer in **its own** data partition
//!    (garbage-collecting acknowledged buffers if space is short),
//! 2. writes the payload there and a buffer descriptor (offset, length,
//!    sequence number) in its own control partition,
//! 3. toggles one `MESSAGE` flag bit in the **receiver's** control
//!    partition.
//!
//! The receiver polls its `MESSAGE` flag words, diffs them against shadow
//! copies, reads the descriptor and payload straight out of the (locally
//! replicated) sender partition, and toggles an `ACK` bit back in the
//! sender's control partition.
//!
//! Every shared word is written by **exactly one process**, so no locks are
//! needed and the network's lack of coherence is harmless. Because every
//! data partition is visible to everyone, **multicast is single-step**:
//! post once, then toggle one flag bit per receiver — each extra receiver
//! costs one extra word write (paper §3), unlike binomial-tree multicast
//! over point-to-point links.
//!
//! ## Reading the source
//!
//! Read `core.rs` first: it is the protocol above and nothing else — the
//! words each process writes, the shadows of the ones it reads, and the
//! steps `stage → publish → flag` (send), `gc` (reclaim), `poll →
//! deliver` (receive). The extensions sit beside it, each owning only
//! the state it adds:
//!
//! | file | what it adds | where it hooks into `core.rs` |
//! |---|---|---|
//! | `reliable.rs` | CRC, NACK repair, sequence filter, retry/backoff | fourth descriptor word, stall deadlines, the sweep inside `gc`, a pre-checked payload for `deliver` |
//! | `membership.rs` | heartbeat detector, views, quorum, rejoin | channel resets; otherwise only its own member block |
//! | `flow.rs` | credit ledger, deferred doorbells | the `on_free` callback of `gc`, the doorbell of `flag` |
//! | `endpoint.rs` | [`BbpEndpoint`]: the four composed | every public call is the ordered list of layer calls |
//!
//! `layout.rs` is the address map and the [`Writer`], the one way any of
//! the files above writes shared memory: it owns the endpoint's NIC,
//! takes the rank from the NIC's host id and writes only by role
//! (`msg_flag`, `ack_flag`, `nack_flag`, `descriptor`, `data`,
//! `member`), each naming a word whose writer is that rank — so the
//! single-writer discipline is a type, and no layer names an address to
//! write. `config.rs` holds the knobs, the rules for combining them, and
//! the software path's calibrated costs.
//!
//! ## Example
//!
//! ```
//! use des::Simulation;
//! use bbp::{BbpCluster, BbpConfig};
//!
//! let mut sim = Simulation::new();
//! let cluster = BbpCluster::new(&sim.handle(), BbpConfig::for_nodes(2));
//! let mut a = cluster.endpoint(0);
//! let mut b = cluster.endpoint(1);
//! sim.spawn("a", move |ctx| {
//!     a.send(ctx, 1, b"hello scramnet").unwrap();
//! });
//! sim.spawn("b", move |ctx| {
//!     let msg = b.recv(ctx, 0).unwrap();
//!     assert_eq!(msg, b"hello scramnet");
//! });
//! assert!(sim.run().is_clean());
//! ```
//!
//! ## The reliability extension
//!
//! The paper's protocol assumes SCRAMNet's hardware error detection and
//! never recovers from a lost or corrupted replication. Setting
//! [`BbpConfig::reliability`] (see [`ReliabilityConfig`]) layers CRC-32
//! message verification, NACK-driven repair, per-sender sequence
//! filtering, and bounded timeout/retry/backoff on top — every operation
//! then either delivers intact data or fails with a typed [`BbpError`]
//! within a closed-form time bound. `docs/RELIABILITY.md` describes the
//! fault model and the design.
//!
//! ## The credit extension
//!
//! Setting [`BbpConfig::credit`] (see [`CreditConfig`]) adds sender-side
//! credit-based flow control: a fixed grant of send credits per peer,
//! debited per posted message and returned on the side channel the
//! protocol already has — the per-(receiver, sender) `ACK` flag word. No
//! shared word or packet changes; out-of-credit senders block in the GC
//! loop or fail fast with [`BbpError::NoCredit`]. The `rpc` crate builds
//! its request/reply backpressure on this ledger (`docs/RPC.md`).

mod cluster;
mod config;
mod core;
mod crc;
mod endpoint;
mod error;
mod flow;
mod layout;
mod membership;
mod reliable;

pub use cluster::BbpCluster;
pub use config::{BbpConfig, CreditConfig, GcPolicy, Membership, RecvMode, ReliabilityConfig};
pub use core::Slept;
pub use endpoint::{BbpEndpoint, EndpointStats};
pub use error::BbpError;
pub use layout::{Layout, Writer, DESC_WORDS, MEMBER_WORDS, RELIABLE_DESC_WORDS};
pub use membership::{DetectionHists, MembershipView, PeerHealth};
