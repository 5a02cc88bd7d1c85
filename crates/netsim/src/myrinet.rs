//! The native (user-level) Myrinet API model: OS-bypass messaging with
//! host-PIO copies into NIC SRAM — the "Myrinet API" line of Figure 2.

use std::sync::Arc;

use des::queue::SimQueue;
use des::{ProcCtx, SimHandle, Time};

use crate::fabric::Fabric;
use crate::spec::NetSpec;

/// User-level API costs (mid-90s MyriAPI-class, pre-FM/GM).
#[derive(Debug, Clone, PartialEq)]
pub struct MyrinetApiCosts {
    /// Send-path fixed cost: descriptor build, doorbell, LANai handshake.
    pub tx_base_ns: Time,
    /// Receive-path fixed cost: poll hit, descriptor parse, completion.
    pub rx_base_ns: Time,
    /// Host copy into NIC SRAM per byte (PIO over PCI).
    pub tx_copy_ns_per_byte: f64,
    /// NIC-to-host delivery copy per byte (DMA + cache effects).
    pub rx_copy_ns_per_byte: f64,
}

impl Default for MyrinetApiCosts {
    fn default() -> Self {
        MyrinetApiCosts {
            tx_base_ns: 34_000,
            rx_base_ns: 42_000,
            tx_copy_ns_per_byte: 28.0,
            rx_copy_ns_per_byte: 12.0,
        }
    }
}

struct Delivery {
    bytes: Vec<u8>,
}

struct NetShared {
    fabric: Fabric,
    costs: MyrinetApiCosts,
    inboxes: Vec<SimQueue<(usize, Delivery)>>,
}

/// A Myrinet with user-level ports, one per host.
#[derive(Clone)]
pub struct MyrinetApiNet {
    shared: Arc<NetShared>,
}

impl MyrinetApiNet {
    /// A Myrinet of `hosts` ports with era-default API costs.
    pub fn new(handle: &SimHandle, hosts: usize) -> Self {
        Self::with_costs(handle, hosts, MyrinetApiCosts::default())
    }

    /// A Myrinet with explicit API costs.
    pub fn with_costs(handle: &SimHandle, hosts: usize, costs: MyrinetApiCosts) -> Self {
        let spec = NetSpec::myrinet(hosts);
        MyrinetApiNet {
            shared: Arc::new(NetShared {
                fabric: Fabric::new(handle, spec),
                costs,
                inboxes: (0..hosts).map(|_| SimQueue::new(handle)).collect(),
            }),
        }
    }

    /// The port for `host`.
    pub fn port(&self, host: usize) -> MyrinetApiPort {
        MyrinetApiPort {
            shared: Arc::clone(&self.shared),
            host,
        }
    }

    /// The underlying fabric.
    pub fn fabric(&self) -> &Fabric {
        &self.shared.fabric
    }
}

/// One host's user-level Myrinet port.
pub struct MyrinetApiPort {
    shared: Arc<NetShared>,
    host: usize,
}

impl MyrinetApiPort {
    /// This port's host id.
    pub fn host(&self) -> usize {
        self.host
    }

    /// Send one message to `dst`.
    pub fn send(&self, ctx: &mut ProcCtx, dst: usize, bytes: &[u8]) {
        let costs = &self.shared.costs;
        let cpu =
            costs.tx_base_ns + (bytes.len() as f64 * costs.tx_copy_ns_per_byte).round() as Time;
        ctx.advance(cpu);
        let (arrival, _) = self
            .shared
            .fabric
            .transmit(self.host, dst, bytes.len(), ctx.now());
        self.shared.inboxes[dst].push_at(
            arrival,
            (
                self.host,
                Delivery {
                    bytes: bytes.to_vec(),
                },
            ),
        );
    }

    /// Blocking receive of the next message from any source.
    pub fn recv(&self, ctx: &mut ProcCtx) -> (usize, Vec<u8>) {
        let (src, d) = self.shared.inboxes[self.host].pop(ctx);
        self.charge_rx(ctx, &d);
        (src, d.bytes)
    }

    /// Non-blocking receive: the next fully arrived message, if any.
    pub fn try_recv(&self, ctx: &mut ProcCtx) -> Option<(usize, Vec<u8>)> {
        ctx.settle(); // as `TcpSock::try_recv`: the inbox is shared
        let (src, d) = self.shared.inboxes[self.host].try_pop(ctx.now())?;
        self.charge_rx(ctx, &d);
        Some((src, d.bytes))
    }

    fn charge_rx(&self, ctx: &mut ProcCtx, d: &Delivery) {
        let costs = &self.shared.costs;
        let cpu =
            costs.rx_base_ns + (d.bytes.len() as f64 * costs.rx_copy_ns_per_byte).round() as Time;
        ctx.advance(cpu);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use des::{Simulation, TimeExt};
    use parking_lot::Mutex;

    fn one_way_us(len: usize) -> f64 {
        let mut sim = Simulation::new();
        let net = MyrinetApiNet::new(&sim.handle(), 4);
        let tx = net.port(0);
        let rx = net.port(1);
        let done = Arc::new(Mutex::new(0u64));
        let done2 = Arc::clone(&done);
        let payload = vec![0u8; len];
        sim.spawn("tx", move |ctx| tx.send(ctx, 1, &payload));
        sim.spawn("rx", move |ctx| {
            let (src, m) = rx.recv(ctx);
            assert_eq!(src, 0);
            assert_eq!(m.len(), len);
            *done2.lock() = ctx.now();
        });
        assert!(sim.run().is_clean());
        let t = *done.lock();
        t.as_us()
    }

    #[test]
    fn small_message_latency_is_api_class() {
        let us = one_way_us(4);
        assert!((60.0..100.0).contains(&us), "got {us:.1} µs");
    }

    #[test]
    fn api_beats_tcp_over_the_same_wire() {
        use crate::tcp::{TcpCosts, TcpNet};
        let api = one_way_us(1024);
        // TCP over Myrinet for the same payload.
        let mut sim = Simulation::new();
        let net = TcpNet::new(&sim.handle(), NetSpec::myrinet(4), TcpCosts::myrinet_tcp());
        let (a, b) = net.socket_pair(0, 1);
        let done = Arc::new(Mutex::new(0u64));
        let done2 = Arc::clone(&done);
        sim.spawn("a", move |ctx| a.send(ctx, &[0u8; 1024]));
        sim.spawn("b", move |ctx| {
            let _ = b.recv(ctx);
            *done2.lock() = ctx.now();
        });
        sim.run();
        let tcp = (*done.lock()).as_us();
        assert!(api < tcp, "API {api:.1} vs TCP {tcp:.1}");
    }

    #[test]
    fn large_transfers_scale_with_copy_cost() {
        let small = one_way_us(64);
        let large = one_way_us(8192);
        // Slope dominated by the ~40 ns/B combined copies, not the
        // 6.25 ns/B wire.
        let slope_ns_per_byte = (large - small) * 1000.0 / (8192.0 - 64.0);
        assert!(
            (25.0..60.0).contains(&slope_ns_per_byte),
            "slope {slope_ns_per_byte:.1} ns/B"
        );
    }

    #[test]
    fn interleaved_senders_are_both_delivered() {
        let mut sim = Simulation::new();
        let net = MyrinetApiNet::new(&sim.handle(), 3);
        let p0 = net.port(0);
        let p2 = net.port(2);
        let rx = net.port(1);
        sim.spawn("p0", move |ctx| p0.send(ctx, 1, b"zero"));
        sim.spawn("p2", move |ctx| p2.send(ctx, 1, b"two"));
        sim.spawn("rx", move |ctx| {
            let mut seen = Vec::new();
            for _ in 0..2 {
                let (src, _) = rx.recv(ctx);
                seen.push(src);
            }
            seen.sort_unstable();
            assert_eq!(seen, vec![0, 2]);
        });
        assert!(sim.run().is_clean());
    }
}
