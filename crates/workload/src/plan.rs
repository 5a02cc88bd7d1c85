//! The workload DSL: a [`WorkloadPlan`] is pure data — scripted arrival
//! windows, a service model, a server/hot-spot topology, and an optional
//! MPI sidecar — mirroring the `FaultPlan` DSL one layer down. A plan
//! plus a load multiplier pins an entire cell: the same (plan, mult)
//! replays identically, which is what turns "a campaign cell violated an
//! invariant" into a one-command repro.
//!
//! ```
//! use des::ms;
//! use workload::{Shape, ServiceTime, Sidecar, WorkloadPlan};
//!
//! let plan = WorkloadPlan::new(42)
//!     .clients(4, 24)
//!     .servers(2)
//!     .hot_nodes(3)
//!     .body_bytes(64)
//!     .service(ServiceTime::Exp { mean_ns: 20_000 })
//!     .window(ms(4), Shape::Poisson { rate_hz: 400.0 })
//!     .window(ms(1), Shape::Off)
//!     .sidecar(Sidecar::PingPong { rounds: 40 });
//! assert!(plan.describe().starts_with("seed=42"));
//! ```

use des::rng::SimRng;
use des::Time;

use crate::arrivals::ServiceTime;

/// Arrival shape of one scripted window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Shape {
    /// No arrivals (quiesce/drain window).
    Off,
    /// Independent memoryless arrivals per channel at `rate_hz`.
    Poisson {
        /// Mean arrivals per second per channel.
        rate_hz: f64,
    },
    /// Synchronized storms: **every channel on every node** fires
    /// `burst` back-to-back requests at each period boundary, starting
    /// at the window's first instant. This is the flag/billboard-path
    /// stress the NIC-collectives line of work motivates: all sources
    /// arrive in the same service quantum.
    SyncBurst {
        /// Boundary spacing, nanoseconds.
        period: Time,
        /// Requests per channel per boundary.
        burst: u32,
    },
}

/// Optional MPI traffic riding the same ring on two dedicated ranks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sidecar {
    /// No sidecar ranks.
    None,
    /// An unexpected-queue flood: the flooder rank blasts `messages`
    /// eager sends at `at`, racing the floodee's posted receives — only
    /// `prepost` receives are posted in advance, so the rest park in
    /// the ADI unexpected queue until the floodee posts the remainder
    /// `post_delay` after the flood. The cell's invariant: residency
    /// peaks at exactly the un-preposted count and **fully drains**.
    UnexpectedFlood {
        /// Total eager messages in the flood.
        messages: u32,
        /// Receives posted before the flood (matched on arrival).
        prepost: u32,
        /// Virtual time the flood starts.
        at: Time,
        /// Delay from flood start to posting the remaining receives.
        post_delay: Time,
    },
    /// A ping-pong pair: `rounds` round trips of body-sized messages.
    /// The mixed-traffic invariant: MPI progresses to completion while
    /// the RPC side serves its open-loop load on the same ring.
    PingPong {
        /// Round trips to complete.
        rounds: u32,
    },
}

/// One scripted arrival window (consecutive; durations accumulate).
#[derive(Debug, Clone, Copy)]
pub struct Window {
    /// Window length, nanoseconds.
    pub dur: Time,
    /// Arrival shape inside the window.
    pub shape: Shape,
}

/// A seed-deterministic scripted workload. See the module docs.
#[derive(Debug, Clone)]
pub struct WorkloadPlan {
    seed: u64,
    /// Client nodes (each gets its own ring rank).
    pub client_nodes: usize,
    /// Channels (independent logical clients) per client node.
    pub channels_per_node: u32,
    /// Per-channel credit grant; arrivals beyond it shed.
    pub credits_per_channel: u32,
    /// Server ranks (ranks `0..servers`).
    pub servers: usize,
    /// Client nodes pinned to server 0 (the hotspot); the rest
    /// round-robin over all servers. 0 = no pinning.
    pub hot_nodes: usize,
    /// Request/reply body size, bytes.
    pub body_bytes: usize,
    /// Percentage of requests posted high-priority (0–100).
    pub high_share_pct: u32,
    /// Server-side service model.
    pub service: ServiceTime,
    /// Scripted arrival windows, in order.
    pub windows: Vec<Window>,
    /// Optional MPI sidecar on two extra ranks.
    pub sidecar: Sidecar,
    /// Server buffer pool (bounds queue residency).
    pub pool: usize,
    /// The scenario's SLO: the p999 service-latency target (µs) the
    /// capacity sweep finds the max sustainable load against.
    pub p999_target_us: f64,
}

impl WorkloadPlan {
    /// An empty plan under `seed`: 1 server, no clients, no windows.
    pub fn new(seed: u64) -> Self {
        WorkloadPlan {
            seed,
            client_nodes: 0,
            channels_per_node: 1,
            credits_per_channel: 4,
            servers: 1,
            hot_nodes: 0,
            body_bytes: 64,
            high_share_pct: 20,
            service: ServiceTime::Exp { mean_ns: 20_000 },
            windows: Vec::new(),
            sidecar: Sidecar::None,
            pool: 24,
            p999_target_us: 400.0,
        }
    }

    /// The seed labelling the scenario (drives every RNG stream).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// `nodes` client nodes hosting `channels` channels each.
    pub fn clients(mut self, nodes: usize, channels: u32) -> Self {
        assert!(channels >= 1, "a client node needs at least one channel");
        self.client_nodes = nodes;
        self.channels_per_node = channels;
        self
    }

    /// Per-channel credit grant.
    pub fn credits(mut self, per_channel: u32) -> Self {
        self.credits_per_channel = per_channel;
        self
    }

    /// Number of server ranks.
    pub fn servers(mut self, servers: usize) -> Self {
        assert!(servers >= 1, "a workload needs at least one server");
        self.servers = servers;
        self
    }

    /// Pin the first `hot` client nodes to server 0 (hotspot skew).
    pub fn hot_nodes(mut self, hot: usize) -> Self {
        self.hot_nodes = hot;
        self
    }

    /// Request/reply body size.
    pub fn body_bytes(mut self, bytes: usize) -> Self {
        self.body_bytes = bytes;
        self
    }

    /// Share of high-priority requests, percent.
    pub fn high_share(mut self, pct: u32) -> Self {
        assert!(pct <= 100, "high share is a percentage");
        self.high_share_pct = pct;
        self
    }

    /// Server-side service model.
    pub fn service(mut self, service: ServiceTime) -> Self {
        self.service = service;
        self
    }

    /// Append a scripted arrival window.
    pub fn window(mut self, dur: Time, shape: Shape) -> Self {
        assert!(dur > 0, "a window needs a positive duration");
        self.windows.push(Window { dur, shape });
        self
    }

    /// Attach the MPI sidecar.
    pub fn sidecar(mut self, sidecar: Sidecar) -> Self {
        self.sidecar = sidecar;
        self
    }

    /// Server buffer pool size.
    pub fn pool(mut self, pool: usize) -> Self {
        self.pool = pool;
        self
    }

    /// The scenario's p999 SLO target, µs.
    pub fn p999_target(mut self, us: f64) -> Self {
        self.p999_target_us = us;
        self
    }

    /// End of the scripted arrival span, nanoseconds.
    pub fn windows_end(&self) -> Time {
        self.windows.iter().map(|w| w.dur).sum()
    }

    /// The server rank `node_idx` (0-based client node index) sends to:
    /// the first [`WorkloadPlan::hot_nodes`] nodes are pinned to server
    /// 0, the rest round-robin over every server.
    pub fn server_of(&self, node_idx: usize) -> usize {
        if node_idx < self.hot_nodes {
            0
        } else {
            node_idx % self.servers
        }
    }

    /// Total ring ranks a cell of this plan occupies.
    pub fn nprocs(&self) -> usize {
        self.servers + self.client_nodes + if self.sidecar == Sidecar::None { 0 } else { 2 }
    }

    /// Precompute the arrival times of one channel at load multiplier
    /// `mult`. Deterministic in (seed, node, channel, mult) regardless
    /// of how other channels interleave; [`Shape::SyncBurst`] windows
    /// ignore the RNG entirely, so their storms land at the same
    /// instants on every channel of every node.
    pub fn channel_arrivals(&self, node_idx: usize, channel: u32, mult: f64) -> Vec<Time> {
        let mut rng = SimRng::seeded(
            self.seed
                ^ (node_idx as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ (channel as u64 + 1).wrapping_mul(0xD1B5_4A32_D192_ED03),
        );
        let mut out = Vec::new();
        let mut start: Time = 0;
        for w in &self.windows {
            let end = start + w.dur;
            match w.shape {
                Shape::Off => {}
                Shape::Poisson { rate_hz } => {
                    let rate = rate_hz * mult;
                    let mut t = start;
                    loop {
                        let u = rng.unit();
                        t += ((-(1.0 - u).ln() / rate) * 1e9) as Time;
                        if t >= end {
                            break;
                        }
                        out.push(t);
                    }
                }
                Shape::SyncBurst { period, burst } => {
                    let burst = scaled_burst(burst, mult);
                    let mut boundary = start;
                    while boundary < end {
                        for _ in 0..burst {
                            out.push(boundary);
                        }
                        boundary = boundary.saturating_add(period);
                    }
                }
            }
            start = end;
        }
        out
    }

    /// One-line rendering for reports and repro messages, e.g.
    /// `seed=7 clients=4x24 servers=2 hot=3 body=64 svc=exp(20000)
    /// w=[poisson(400)x4000000] sidecar=pingpong(40)`.
    pub fn describe(&self) -> String {
        use std::fmt::Write as _;
        let mut out = format!(
            "seed={} clients={}x{} servers={}",
            self.seed, self.client_nodes, self.channels_per_node, self.servers
        );
        if self.hot_nodes > 0 {
            write!(out, " hot={}", self.hot_nodes).unwrap();
        }
        write!(out, " body={}", self.body_bytes).unwrap();
        match self.service {
            ServiceTime::Fixed { ns } => write!(out, " svc=fixed({ns})").unwrap(),
            ServiceTime::Exp { mean_ns } => write!(out, " svc=exp({mean_ns})").unwrap(),
            ServiceTime::LongTail {
                ns,
                slow_ns,
                slow_every,
            } => write!(out, " svc=longtail({ns},{slow_ns},every{slow_every})").unwrap(),
        }
        out.push_str(" w=[");
        for (i, w) in self.windows.iter().enumerate() {
            if i > 0 {
                out.push(' ');
            }
            match w.shape {
                Shape::Off => write!(out, "off x{}", w.dur).unwrap(),
                Shape::Poisson { rate_hz } => {
                    write!(out, "poisson({rate_hz})x{}", w.dur).unwrap();
                }
                Shape::SyncBurst { period, burst } => {
                    write!(out, "syncburst({burst}@{period})x{}", w.dur).unwrap();
                }
            }
        }
        out.push(']');
        match self.sidecar {
            Sidecar::None => {}
            Sidecar::UnexpectedFlood {
                messages,
                prepost,
                at,
                post_delay,
            } => {
                write!(
                    out,
                    " sidecar=flood({messages},pre{prepost},@{at}+{post_delay})"
                )
                .unwrap();
            }
            Sidecar::PingPong { rounds } => write!(out, " sidecar=pingpong({rounds})").unwrap(),
        }
        out
    }
}

/// Burst size at a load multiplier: the storm grows, the boundaries
/// stay put — the sweep compares storms of different magnitude landing
/// at identical instants.
pub fn scaled_burst(burst: u32, mult: f64) -> u32 {
    ((burst as f64 * mult).round() as u32).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use des::{ms, us};

    fn base() -> WorkloadPlan {
        WorkloadPlan::new(7)
            .clients(2, 4)
            .window(ms(2), Shape::Poisson { rate_hz: 5_000.0 })
            .window(ms(1), Shape::Off)
    }

    #[test]
    fn arrivals_are_deterministic_and_confined_to_windows() {
        let plan = base();
        let a = plan.channel_arrivals(0, 0, 1.0);
        let b = plan.channel_arrivals(0, 0, 1.0);
        assert_eq!(a, b);
        assert!(!a.is_empty(), "5 kHz over 2 ms should arrive");
        assert!(
            a.iter().all(|&t| t < ms(2)),
            "no arrivals in the Off window"
        );
        // A different channel gets a de-phased stream.
        assert_ne!(a, plan.channel_arrivals(0, 1, 1.0));
    }

    #[test]
    fn load_multiplier_scales_poisson_counts() {
        let plan = base();
        let n1: usize = (0..4).map(|c| plan.channel_arrivals(0, c, 1.0).len()).sum();
        let n4: usize = (0..4).map(|c| plan.channel_arrivals(0, c, 4.0).len()).sum();
        assert!(
            n4 as f64 > 2.5 * n1 as f64,
            "x4 should offer ~4x the arrivals ({n1} -> {n4})"
        );
    }

    #[test]
    fn sync_bursts_align_across_nodes_and_channels() {
        let plan = WorkloadPlan::new(3).clients(3, 4).window(
            ms(4),
            Shape::SyncBurst {
                period: ms(1),
                burst: 2,
            },
        );
        let reference = plan.channel_arrivals(0, 0, 1.0);
        assert_eq!(
            reference,
            vec![0, 0, ms(1), ms(1), ms(2), ms(2), ms(3), ms(3)]
        );
        for node in 0..3 {
            for ch in 0..4 {
                assert_eq!(plan.channel_arrivals(node, ch, 1.0), reference);
            }
        }
        // The multiplier grows the storm, not the schedule.
        let x2 = plan.channel_arrivals(1, 2, 2.0);
        assert_eq!(x2.len(), 16);
        assert_eq!(x2[3], 0);
        assert_eq!(x2[4], ms(1));
    }

    #[test]
    fn scaled_burst_rounds_and_floors_at_one() {
        assert_eq!(scaled_burst(2, 0.5), 1);
        assert_eq!(scaled_burst(2, 1.0), 2);
        assert_eq!(scaled_burst(2, 2.0), 4);
        assert_eq!(scaled_burst(1, 0.25), 1);
    }

    #[test]
    fn hotspot_assignment_pins_then_round_robins() {
        let plan = WorkloadPlan::new(1).clients(4, 1).servers(2).hot_nodes(3);
        assert_eq!(plan.server_of(0), 0);
        assert_eq!(plan.server_of(1), 0);
        assert_eq!(plan.server_of(2), 0);
        assert_eq!(plan.server_of(3), 1);
        assert_eq!(plan.nprocs(), 6);
    }

    #[test]
    fn describe_renders_the_whole_scenario() {
        let plan = WorkloadPlan::new(7)
            .clients(2, 8)
            .servers(2)
            .hot_nodes(1)
            .body_bytes(512)
            .service(ServiceTime::Fixed { ns: 10_000 })
            .window(
                us(500),
                Shape::SyncBurst {
                    period: us(100),
                    burst: 3,
                },
            )
            .sidecar(Sidecar::PingPong { rounds: 5 });
        assert_eq!(
            plan.describe(),
            "seed=7 clients=2x8 servers=2 hot=1 body=512 svc=fixed(10000) \
             w=[syncburst(3@100000)x500000] sidecar=pingpong(5)"
        );
    }

    #[test]
    fn sidecar_ranks_extend_nprocs() {
        let plan = WorkloadPlan::new(1)
            .clients(2, 1)
            .sidecar(Sidecar::UnexpectedFlood {
                messages: 8,
                prepost: 2,
                at: us(10),
                post_delay: us(50),
            });
        assert_eq!(plan.nprocs(), 5);
        assert!(plan.describe().contains("flood(8,pre2"));
    }
}
