//! Hierarchical rings — paper §2: "For systems larger than 256 nodes, a
//! hierarchy of rings can be used."
//!
//! Topology: `k` leaf rings of `m` host nodes each, joined by a backbone
//! ring of `k` bridge devices. Each bridge sits on two rings (the last
//! slot of its leaf, and its slot on the backbone) and re-injects every
//! packet that must cross:
//!
//! - **leaf → backbone**: a write applied at a leaf's bridge slot whose
//!   originating writer lives in that leaf is re-injected onto the
//!   backbone;
//! - **backbone → leaf**: a write applied at a backbone slot whose
//!   writer lives in a *different* leaf is re-injected into this
//!   bridge's leaf.
//!
//! The writer-identity filters terminate forwarding (a write never
//!   re-enters the ring family it came from), and per-source FIFO is
//! preserved end-to-end because every segment of the path is itself a
//! FIFO ring and the bridge forwards in apply order. The whole global
//! word space is replicated into every bank of every ring, so the
//! BillBoard Protocol runs across the hierarchy unchanged.

use des::{SimHandle, Time};

use crate::cost::CostModel;
use crate::nic::Nic;
use crate::ring::{Ring, RingConfig};
use crate::{Word, WordAddr};

/// Configuration of a two-level ring hierarchy.
#[derive(Debug, Clone)]
pub struct HierarchyConfig {
    /// Leaf rings.
    pub leaves: usize,
    /// Host nodes per leaf (the bridge is an extra, k*m global hosts in
    /// total).
    pub hosts_per_leaf: usize,
    /// Words of replicated memory (the full global space, in every bank).
    pub words: usize,
    /// Store-and-forward latency through a bridge.
    pub bridge_ns: Time,
    /// Hardware cost model for every ring.
    pub cost: CostModel,
    /// Enable the single-writer provenance audit on every ring.
    pub track_provenance: bool,
}

/// A two-level SCRAMNet hierarchy. Host NICs come from
/// [`RingHierarchy::nic`]; bridges are internal.
pub struct RingHierarchy {
    leaves: Vec<Ring>,
    backbone: Ring,
    hosts_per_leaf: usize,
    nleaves: usize,
}

impl RingHierarchy {
    /// Build the hierarchy and wire the bridge taps.
    pub fn new(handle: &SimHandle, config: HierarchyConfig) -> Self {
        let k = config.leaves;
        let m = config.hosts_per_leaf;
        assert!(k >= 2, "a hierarchy needs at least two leaf rings");
        assert!(m >= 1, "leaves need hosts");
        let total_hosts = k * m;
        // Global ids: hosts are 0..k*m (leaf-major); bridge devices are
        // k*m + leaf.
        let leaves: Vec<Ring> = (0..k)
            .map(|leaf| {
                let mut ids: Vec<usize> = (leaf * m..(leaf + 1) * m).collect();
                ids.push(total_hosts + leaf);
                let cfg = RingConfig {
                    track_provenance: config.track_provenance,
                    ..Default::default()
                };
                Ring::with_ids(handle, ids, config.words, config.cost.clone(), cfg)
            })
            .collect();
        let backbone = {
            let ids: Vec<usize> = (0..k).map(|leaf| total_hosts + leaf).collect();
            let cfg = RingConfig {
                track_provenance: config.track_provenance,
                ..Default::default()
            };
            Ring::with_ids(handle, ids, config.words, config.cost.clone(), cfg)
        };

        // Wire the taps.
        #[allow(clippy::needless_range_loop)] // `leaf` is also an id, not just an index
        for leaf in 0..k {
            let host_lo = leaf * m;
            let host_hi = (leaf + 1) * m;
            // Leaf bridge slot (local index m) → backbone (local index leaf).
            let backbone_shared = backbone.shared_handle();
            let bridge_ns = config.bridge_ns;
            leaves[leaf].shared_handle().set_tap(
                m,
                Box::new(
                    move |writer: usize, addr: WordAddr, data: &[Word], t: Time| {
                        if (host_lo..host_hi).contains(&writer) {
                            backbone_shared.inject_as(leaf, writer, t + bridge_ns, addr, data);
                        }
                    },
                ),
            );
            // Backbone slot `leaf` → this leaf's ring (via its bridge slot).
            let leaf_shared = leaves[leaf].shared_handle();
            backbone.shared_handle().set_tap(
                leaf,
                Box::new(
                    move |writer: usize, addr: WordAddr, data: &[Word], t: Time| {
                        if !(host_lo..host_hi).contains(&writer) && writer < total_hosts {
                            leaf_shared.inject_as(m, writer, t + bridge_ns, addr, data);
                        }
                    },
                ),
            );
        }
        RingHierarchy {
            leaves,
            backbone,
            hosts_per_leaf: m,
            nleaves: k,
        }
    }

    /// Total host nodes (bridges excluded).
    pub fn hosts(&self) -> usize {
        self.nleaves * self.hosts_per_leaf
    }

    /// The NIC of global host `id` (on its leaf ring).
    pub fn nic(&self, id: usize) -> Nic {
        assert!(id < self.hosts(), "host {id} out of range");
        let leaf = id / self.hosts_per_leaf;
        let local = id % self.hosts_per_leaf;
        self.leaves[leaf].nic(local)
    }

    /// The leaf ring holding global host `id` (stats, snapshots).
    pub fn leaf_of(&self, id: usize) -> &Ring {
        &self.leaves[id / self.hosts_per_leaf]
    }

    /// The backbone ring.
    pub fn backbone(&self) -> &Ring {
        &self.backbone
    }

    /// Snapshot of host `id`'s bank.
    pub fn snapshot(&self, id: usize) -> Vec<Word> {
        let leaf = id / self.hosts_per_leaf;
        let local = id % self.hosts_per_leaf;
        self.leaves[leaf].snapshot(local)
    }

    /// Single-writer conflicts across every ring in the hierarchy.
    pub fn conflicts(&self) -> Vec<(WordAddr, usize, usize)> {
        let mut all = Vec::new();
        for r in &self.leaves {
            all.extend(r.conflicts());
        }
        all.extend(self.backbone.conflicts());
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use des::{ms, Simulation};

    fn hierarchy(sim: &Simulation, leaves: usize, hosts: usize) -> RingHierarchy {
        RingHierarchy::new(
            &sim.handle(),
            HierarchyConfig {
                leaves,
                hosts_per_leaf: hosts,
                words: 2048,
                bridge_ns: 2_000,
                cost: CostModel::default(),
                track_provenance: true,
            },
        )
    }

    #[test]
    fn writes_replicate_across_the_whole_hierarchy() {
        let mut sim = Simulation::new();
        let h = hierarchy(&sim, 3, 4); // 12 hosts on 3 leaves
        let nic = h.nic(0);
        sim.spawn("w", move |ctx| nic.write_word(ctx, 77, 0xFEED));
        sim.run();
        for host in 0..12 {
            assert_eq!(h.snapshot(host)[77], 0xFEED, "host {host}");
        }
        // And the backbone's banks converged too.
        assert_eq!(h.backbone().snapshot(2)[77], 0xFEED);
    }

    #[test]
    #[should_panic(expected = "node 4 already has an apply tap")]
    fn recording_a_bridge_slot_is_refused_not_swapped_in() {
        let sim = Simulation::new();
        let h = hierarchy(&sim, 3, 4);
        // Local slot 4 of a 4-host leaf is its bridge: its tap is the
        // leaf's only way onto the backbone.
        h.leaf_of(0).record_deliveries(4);
    }

    #[test]
    fn recording_a_host_slot_leaves_forwarding_alone() {
        let mut sim = Simulation::new();
        let h = hierarchy(&sim, 3, 4);
        let heard = h.leaf_of(5).record_deliveries(1); // host 5, on leaf 1
        let nic = h.nic(0);
        sim.spawn("w", move |ctx| nic.write_word(ctx, 77, 0xFEED));
        sim.run();
        for host in 0..12 {
            assert_eq!(h.snapshot(host)[77], 0xFEED, "host {host}");
        }
        let heard = heard.lock();
        assert_eq!(heard.len(), 1);
        assert_eq!((heard[0].writer, heard[0].addr), (0, 77));
    }

    #[test]
    fn forwarding_terminates_no_echo_storms() {
        let mut sim = Simulation::new();
        let h = hierarchy(&sim, 2, 2);
        let nic = h.nic(3); // leaf 1
        sim.spawn("w", move |ctx| {
            for i in 0..10 {
                nic.write_word(ctx, i, i as Word + 1);
            }
        });
        let report = sim.run();
        assert!(report.is_clean());
        // Each write crosses each ring exactly once: leaf1 + backbone +
        // leaf0 = 3 injections per write.
        let total: u64 = h.leaves.iter().map(|r| r.stats().injections).sum::<u64>()
            + h.backbone().stats().injections;
        assert_eq!(total, 30, "10 writes x 3 rings");
    }

    #[test]
    fn intra_leaf_latency_beats_inter_leaf() {
        let mut sim = Simulation::new();
        let cfg = HierarchyConfig {
            leaves: 2,
            hosts_per_leaf: 3,
            words: 2048,
            bridge_ns: 2_000,
            cost: CostModel::default(),
            track_provenance: true,
        };
        let h = RingHierarchy::new(&sim.handle(), cfg);
        let nic = h.nic(0);
        sim.spawn("w", move |ctx| nic.write_word(ctx, 9, 5));
        sim.run();
        let near = h.leaf_of(1).provenance(1, 9).unwrap().applied_at;
        let far = h.leaf_of(3).provenance(0, 9).unwrap().applied_at;
        assert!(
            far > near + 2 * 2_000,
            "cross-leaf ({far}) must pay two bridge hops over intra-leaf ({near})"
        );
        assert_eq!(h.snapshot(3)[9], 5);
    }

    #[test]
    fn bbp_runs_unchanged_across_the_hierarchy() {
        use crate::Word;
        // A miniature flag protocol across leaves: host 0 writes a flag
        // word that host 5 (other leaf) polls — the primitive the BBP
        // builds on works across rings.
        let mut sim = Simulation::new();
        let h = hierarchy(&sim, 2, 3);
        let tx = h.nic(0);
        let rx = h.nic(5);
        sim.spawn("tx", move |ctx| {
            tx.write_word(ctx, 100, 1); // payload
            tx.write_word(ctx, 101, 0xF1A6); // flag, after payload
        });
        sim.spawn("rx", move |ctx| {
            while rx.read_word(ctx, 101) != 0xF1A6 {
                ctx.advance(500);
            }
            // FIFO across the bridge: flag implies payload.
            assert_eq!(rx.read_word(ctx, 100), 1 as Word);
            assert!(ctx.now() < ms(1));
        });
        let report = sim.run();
        assert!(report.is_clean(), "deadlocked: {:?}", report.deadlocked);
    }

    #[test]
    fn concurrent_cross_leaf_writers_converge() {
        let mut sim = Simulation::new();
        let h = hierarchy(&sim, 3, 2);
        for host in 0..6usize {
            let nic = h.nic(host);
            sim.spawn(format!("w{host}"), move |ctx| {
                for i in 0..8usize {
                    nic.write_word(ctx, host * 16 + i, (host * 100 + i) as Word);
                    ctx.advance(3_000);
                }
            });
        }
        sim.run();
        let reference = h.snapshot(0);
        for host in 1..6 {
            assert_eq!(h.snapshot(host), reference, "host {host} diverged");
        }
        assert!(h.conflicts().is_empty());
    }
}
