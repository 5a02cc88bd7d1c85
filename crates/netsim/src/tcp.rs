//! A TCP/IP-like host stack over the fabric: syscall, copy, segmentation
//! and interrupt costs calibrated to Linux 2.0-era measurements.

use std::sync::Arc;

use des::queue::SimQueue;
use des::{ProcCtx, SimHandle, Time};
use parking_lot::Mutex;

use crate::fabric::Fabric;
use crate::spec::NetSpec;

/// Host-side protocol stack costs, nanoseconds.
#[derive(Debug, Clone, PartialEq)]
pub struct TcpCosts {
    /// Send-path fixed cost: syscall, TCP/IP header build, routing.
    pub(crate) tx_base_ns: Time,
    /// Receive-path fixed cost: interrupt, protocol processing, wakeup,
    /// syscall return.
    pub(crate) rx_base_ns: Time,
    /// Extra send cost per segment beyond the first.
    pub(crate) per_seg_tx_ns: Time,
    /// Extra receive cost per segment beyond the first.
    pub(crate) per_seg_rx_ns: Time,
    /// User→kernel copy plus checksum on the send side, per byte.
    pub(crate) tx_copy_ns_per_byte: f64,
    /// Kernel→user copy plus checksum on the receive side, per byte.
    pub(crate) rx_copy_ns_per_byte: f64,
    /// Sliding-window limit in bytes. `None` models the well-tuned large
    /// window the calibration assumes; `Some(w)` gates each segment on
    /// acknowledgements, exposing the bandwidth-delay product (the
    /// `tcp_window` ablation sweeps this).
    pub window_bytes: Option<usize>,
}

impl TcpCosts {
    /// Linux 2.0 + 100 Mb/s NIC (tulip-class) era constants.
    pub fn fast_ethernet() -> Self {
        TcpCosts {
            tx_base_ns: 55_000,
            rx_base_ns: 66_000,
            per_seg_tx_ns: 4_000,
            per_seg_rx_ns: 7_000,
            tx_copy_ns_per_byte: 15.0,
            rx_copy_ns_per_byte: 15.0,
            window_bytes: None,
        }
    }

    /// ATM adds SAR/reassembly driver overhead on both sides.
    pub fn atm() -> Self {
        TcpCosts {
            tx_base_ns: 68_000,
            rx_base_ns: 88_000,
            per_seg_tx_ns: 6_000,
            per_seg_rx_ns: 9_000,
            tx_copy_ns_per_byte: 15.0,
            rx_copy_ns_per_byte: 15.0,
            window_bytes: None,
        }
    }

    /// TCP/IP over Myrinet: the fast link does not fix the kernel path,
    /// and the mid-90s driver was heavier than Ethernet's.
    pub fn myrinet_tcp() -> Self {
        TcpCosts {
            tx_base_ns: 55_000,
            rx_base_ns: 68_000,
            per_seg_tx_ns: 5_000,
            per_seg_rx_ns: 8_000,
            tx_copy_ns_per_byte: 16.0,
            rx_copy_ns_per_byte: 16.0,
            window_bytes: None,
        }
    }
}

struct Delivery {
    bytes: Vec<u8>,
    segments: usize,
}

struct Peer {
    inbox: SimQueue<Delivery>,
    /// Windowed mode: bytes in flight toward this peer, and the wake-up
    /// senders park on while the window is full.
    inflight: Mutex<usize>,
    window_free: des::Signal,
}

struct TcpNetShared {
    fabric: Fabric,
    costs: TcpCosts,
    /// inboxes[dst][src]: per-ordered-pair delivery queues.
    inboxes: Mutex<Vec<Vec<Option<Arc<Peer>>>>>,
    handle: SimHandle,
}

/// A TCP/IP network: the fabric plus host stacks. Mint connected socket
/// pairs with [`TcpNet::socket_pair`].
#[derive(Clone)]
pub struct TcpNet {
    shared: Arc<TcpNetShared>,
}

impl TcpNet {
    /// A TCP network over `spec` with the given host-stack costs.
    pub fn new(handle: &SimHandle, spec: NetSpec, costs: TcpCosts) -> Self {
        let hosts = spec.hosts;
        let fabric = Fabric::new(spec);
        TcpNet {
            shared: Arc::new(TcpNetShared {
                fabric,
                costs,
                inboxes: Mutex::new(vec![(0..hosts).map(|_| None).collect(); hosts]),
                handle: handle.clone(),
            }),
        }
    }

    /// The underlying fabric (stats, spec).
    pub fn fabric(&self) -> &Fabric {
        &self.shared.fabric
    }

    /// A connected socket pair between hosts `a` and `b`. At most one
    /// connection per ordered host pair (all the paper's workloads need),
    /// re-requesting the pair returns sockets on the same connection.
    pub fn socket_pair(&self, a: usize, b: usize) -> (TcpSock, TcpSock) {
        assert_ne!(a, b, "no loopback sockets");
        (self.socket(a, b), self.socket(b, a))
    }

    /// One end of the `me`↔`peer` connection (the other side calls
    /// `connect(peer, me)`; both resolve to the same connection).
    pub fn connect(&self, me: usize, peer: usize) -> TcpSock {
        assert_ne!(me, peer, "no loopback sockets");
        self.socket(me, peer)
    }

    fn socket(&self, me: usize, peer: usize) -> TcpSock {
        let mut inboxes = self.shared.inboxes.lock();
        // The socket at `me` talking to `peer` drains inboxes[me][peer].
        for (a, b) in [(me, peer), (peer, me)] {
            if inboxes[a][b].is_none() {
                inboxes[a][b] = Some(Arc::new(Peer {
                    inbox: SimQueue::new(&self.shared.handle),
                    inflight: Mutex::new(0),
                    window_free: self.shared.handle.new_signal(),
                }));
            }
        }
        TcpSock {
            net: Arc::clone(&self.shared),
            node: me,
            peer,
            rx: Arc::clone(inboxes[me][peer].as_ref().unwrap()),
            tx: Arc::clone(inboxes[peer][me].as_ref().unwrap()),
        }
    }
}

/// One end of a connection. Message-framed: each [`TcpSock::send`]
/// matches one [`TcpSock::recv`] on the peer, in order.
pub struct TcpSock {
    net: Arc<TcpNetShared>,
    node: usize,
    peer: usize,
    rx: Arc<Peer>,
    tx: Arc<Peer>,
}

impl TcpSock {
    /// The host this socket lives on.
    pub fn node(&self) -> usize {
        self.node
    }

    /// The peer host.
    pub fn peer(&self) -> usize {
        self.peer
    }

    /// Send one message. Charges the send-side stack cost to the caller
    /// and schedules delivery at the fabric arrival time. In windowed
    /// mode ([`TcpCosts::window_bytes`]) each segment waits for window
    /// space freed by returning acknowledgements.
    pub fn send(&self, ctx: &mut ProcCtx, bytes: &[u8]) {
        let costs = &self.net.costs;
        let segments = self.net.fabric.spec().segments(bytes.len());
        let nseg = segments.len();
        let cpu = costs.tx_base_ns
            + costs.per_seg_tx_ns * (nseg as Time - 1)
            + (bytes.len() as f64 * costs.tx_copy_ns_per_byte).round() as Time;
        ctx.advance(cpu);
        match costs.window_bytes {
            None => {
                let (arrival, segments) =
                    self.net
                        .fabric
                        .transmit(self.node, self.peer, bytes.len(), ctx.now());
                self.tx.inbox.push_at(
                    arrival,
                    Delivery {
                        bytes: bytes.to_vec(),
                        segments,
                    },
                );
            }
            Some(window) => {
                let mut last_arrival = ctx.now();
                for &seg in &segments {
                    let wire = self.net.fabric.spec().wire_bytes(seg);
                    assert!(wire <= window, "window smaller than one segment");
                    // Park until the window admits this segment.
                    loop {
                        let mut infl = self.tx.inflight.lock();
                        if *infl + wire <= window {
                            *infl += wire;
                            break;
                        }
                        drop(infl);
                        ctx.wait(&self.tx.window_free.clone());
                    }
                    let (arrival, _) =
                        self.net
                            .fabric
                            .transmit_segment(self.node, self.peer, seg, ctx.now());
                    last_arrival = arrival;
                    // The ACK rides the reverse path (occupying its links)
                    // and frees the window when it lands back here.
                    let (ack_at, _) = self
                        .net
                        .fabric
                        .transmit_segment(self.peer, self.node, 0, arrival);
                    let peer_state = Arc::clone(&self.tx);
                    self.net.handle.schedule_at(ack_at, move |t| {
                        *peer_state.inflight.lock() -= wire;
                        peer_state.window_free.notify_at(t);
                    });
                }
                self.tx.inbox.push_at(
                    last_arrival,
                    Delivery {
                        bytes: bytes.to_vec(),
                        segments: nseg,
                    },
                );
            }
        }
    }

    /// Blocking receive of the next message from the peer. Charges the
    /// receive-side stack cost (interrupt + protocol processing + copy).
    pub fn recv(&self, ctx: &mut ProcCtx) -> Vec<u8> {
        let d = self.rx.inbox.pop(ctx);
        self.charge_rx(ctx, &d);
        d.bytes
    }

    /// Non-blocking receive: the next message if its last byte has
    /// already arrived.
    pub fn try_recv(&self, ctx: &mut ProcCtx) -> Option<Vec<u8>> {
        // What has arrived depends on who has run: a caller still owing
        // software time (a progress loop between frames) settles first.
        ctx.settle();
        let d = self.rx.inbox.try_pop(ctx.now())?;
        self.charge_rx(ctx, &d);
        Some(d.bytes)
    }

    fn charge_rx(&self, ctx: &mut ProcCtx, d: &Delivery) {
        let costs = &self.net.costs;
        let cpu = costs.rx_base_ns
            + costs.per_seg_rx_ns * (d.segments as Time - 1)
            + (d.bytes.len() as f64 * costs.rx_copy_ns_per_byte).round() as Time;
        ctx.advance(cpu);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use des::{Simulation, TimeExt};

    fn one_way_us(spec: NetSpec, costs: TcpCosts, len: usize) -> f64 {
        let mut sim = Simulation::new();
        let net = TcpNet::new(&sim.handle(), spec, costs);
        let (a, b) = net.socket_pair(0, 1);
        let done = Arc::new(Mutex::new(0u64));
        let done2 = Arc::clone(&done);
        let payload = vec![7u8; len];
        sim.spawn("a", move |ctx| a.send(ctx, &payload));
        sim.spawn("b", move |ctx| {
            let m = b.recv(ctx);
            assert_eq!(m.len(), len);
            *done2.lock() = ctx.now();
        });
        assert!(sim.run().is_clean());
        let t = *done.lock();
        t.as_us()
    }

    #[test]
    fn fast_ethernet_small_message_latency_is_era_typical() {
        let us = one_way_us(NetSpec::fast_ethernet(4), TcpCosts::fast_ethernet(), 4);
        assert!((100.0..160.0).contains(&us), "got {us:.1} µs");
    }

    #[test]
    fn atm_small_message_latency_exceeds_ethernet() {
        let e = one_way_us(NetSpec::fast_ethernet(4), TcpCosts::fast_ethernet(), 4);
        let a = one_way_us(NetSpec::atm_oc3(4), TcpCosts::atm(), 4);
        assert!(a > e, "ATM {a:.1} vs FastE {e:.1}");
    }

    #[test]
    fn atm_overtakes_ethernet_for_large_messages() {
        let e = one_way_us(NetSpec::fast_ethernet(4), TcpCosts::fast_ethernet(), 8192);
        let a = one_way_us(NetSpec::atm_oc3(4), TcpCosts::atm(), 8192);
        assert!(a < e, "ATM {a:.1} should beat FastE {e:.1} at 8 KB");
    }

    #[test]
    fn messages_arrive_in_order() {
        let mut sim = Simulation::new();
        let net = TcpNet::new(
            &sim.handle(),
            NetSpec::fast_ethernet(2),
            TcpCosts::fast_ethernet(),
        );
        let (a, b) = net.socket_pair(0, 1);
        sim.spawn("a", move |ctx| {
            for i in 0..20u8 {
                a.send(ctx, &[i]);
            }
        });
        sim.spawn("b", move |ctx| {
            for i in 0..20u8 {
                assert_eq!(b.recv(ctx), vec![i]);
            }
        });
        assert!(sim.run().is_clean());
    }

    #[test]
    fn duplex_traffic_works() {
        let mut sim = Simulation::new();
        let net = TcpNet::new(
            &sim.handle(),
            NetSpec::fast_ethernet(2),
            TcpCosts::fast_ethernet(),
        );
        let (a, b) = net.socket_pair(0, 1);
        sim.spawn("a", move |ctx| {
            a.send(ctx, b"to b");
            assert_eq!(a.recv(ctx), b"to a");
        });
        sim.spawn("b", move |ctx| {
            b.send(ctx, b"to a");
            assert_eq!(b.recv(ctx), b"to b");
        });
        assert!(sim.run().is_clean());
    }

    #[test]
    fn try_recv_is_nonblocking() {
        let mut sim = Simulation::new();
        let net = TcpNet::new(
            &sim.handle(),
            NetSpec::fast_ethernet(2),
            TcpCosts::fast_ethernet(),
        );
        let (a, b) = net.socket_pair(0, 1);
        sim.spawn("b", move |ctx| {
            assert!(b.try_recv(ctx).is_none());
            ctx.wait_until(des::ms(2));
            assert_eq!(b.try_recv(ctx).unwrap(), b"late");
        });
        sim.spawn("a", move |ctx| {
            ctx.wait_until(des::us(100));
            a.send(ctx, b"late");
        });
        assert!(sim.run().is_clean());
    }

    #[test]
    fn distinct_pairs_are_independent_connections() {
        let mut sim = Simulation::new();
        let net = TcpNet::new(
            &sim.handle(),
            NetSpec::fast_ethernet(4),
            TcpCosts::fast_ethernet(),
        );
        let (a_to_b, b_from_a) = net.socket_pair(0, 1);
        let (c_to_b, b_from_c) = net.socket_pair(2, 1);
        sim.spawn("a", move |ctx| a_to_b.send(ctx, b"from a"));
        sim.spawn("c", move |ctx| c_to_b.send(ctx, b"from c"));
        sim.spawn("b", move |ctx| {
            assert_eq!(b_from_a.recv(ctx), b"from a");
            assert_eq!(b_from_c.recv(ctx), b"from c");
        });
        assert!(sim.run().is_clean());
    }
    #[test]
    fn windowed_mode_limits_throughput_by_bandwidth_delay_product() {
        let stream = |window: Option<usize>| {
            let mut sim = Simulation::new();
            let mut costs = TcpCosts::fast_ethernet();
            costs.window_bytes = window;
            let net = TcpNet::new(&sim.handle(), NetSpec::fast_ethernet(2), costs);
            let (a, b) = net.socket_pair(0, 1);
            let total = 256 * 1024usize;
            sim.spawn("a", move |ctx| {
                let payload = vec![1u8; 32 * 1024];
                for _ in 0..total / (32 * 1024) {
                    a.send(ctx, &payload);
                }
            });
            let done = Arc::new(Mutex::new(0u64));
            let done2 = Arc::clone(&done);
            sim.spawn("b", move |ctx| {
                let mut got = 0;
                while got < total {
                    got += b.recv(ctx).len();
                }
                *done2.lock() = ctx.now();
            });
            let report = sim.run();
            assert!(report.is_clean(), "deadlocked: {:?}", report.deadlocked);
            let t = *done.lock();
            total as f64 / (t as f64 / 1e9) / 1e6
        };
        let unlimited = stream(None);
        let wide = stream(Some(64 * 1024));
        let narrow = stream(Some(2 * 1024)); // ~1.3 segments in flight
        assert!(
            (unlimited - wide).abs() / unlimited < 0.25,
            "a wide window ({wide:.2}) should approach the unlimited rate ({unlimited:.2})"
        );
        assert!(
            narrow < unlimited / 2.0,
            "a 2 KB window ({narrow:.2} MB/s) must collapse throughput vs {unlimited:.2} MB/s"
        );
    }

    #[test]
    fn windowed_mode_preserves_delivery_order_and_content() {
        let mut sim = Simulation::new();
        let mut costs = TcpCosts::fast_ethernet();
        costs.window_bytes = Some(4 * 1024);
        let net = TcpNet::new(&sim.handle(), NetSpec::fast_ethernet(2), costs);
        let (a, b) = net.socket_pair(0, 1);
        sim.spawn("a", move |ctx| {
            for i in 0..10u8 {
                a.send(ctx, &vec![i; 3000]);
            }
        });
        sim.spawn("b", move |ctx| {
            for i in 0..10u8 {
                let m = b.recv(ctx);
                assert_eq!(m, vec![i; 3000]);
            }
        });
        assert!(sim.run().is_clean());
    }

    #[test]
    #[should_panic(expected = "window smaller than one segment")]
    fn window_below_one_segment_is_a_config_error() {
        let mut sim = Simulation::new();
        let mut costs = TcpCosts::fast_ethernet();
        costs.window_bytes = Some(512);
        let net = TcpNet::new(&sim.handle(), NetSpec::fast_ethernet(2), costs);
        let (a, _b) = net.socket_pair(0, 1);
        sim.spawn("a", move |ctx| a.send(ctx, &[0u8; 1460]));
        sim.run();
    }
}
