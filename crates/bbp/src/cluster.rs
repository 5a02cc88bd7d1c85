//! Cluster construction: sizes the replicated memory from the protocol
//! layout, builds the ring, and mints endpoints.

use des::SimHandle;
use scramnet::{CostModel, Ring, RingConfig, TxMode};

use crate::config::BbpConfig;
use crate::endpoint::BbpEndpoint;
use crate::layout::{Layout, Writer};

/// A SCRAMNet ring plus the BillBoard Protocol layout on top of it.
///
/// Build one per simulation, then hand each process its
/// [`BbpEndpoint`] via [`BbpCluster::endpoint`]. Dropping one whose ring
/// saw a word written by two nodes ([`Ring::conflicts`]) panics.
pub struct BbpCluster {
    ring: Ring,
    config: BbpConfig,
}

impl BbpCluster {
    /// A cluster with the default hardware cost model and fixed-4-byte
    /// packets (the paper's measured configuration).
    pub fn new(handle: &SimHandle, config: BbpConfig) -> Self {
        Self::with_hardware(handle, config, CostModel::default(), RingConfig::default())
    }

    /// A cluster with an explicit hardware model — used by the ablation
    /// benches (variable packet mode, slower PIO, bit errors…).
    pub fn with_hardware(
        handle: &SimHandle,
        config: BbpConfig,
        cost: CostModel,
        ring_config: RingConfig,
    ) -> Self {
        config.validate();
        let layout = Layout::new(&config);
        let ring = Ring::with_config(
            handle,
            config.nprocs,
            layout.total_words(),
            cost,
            ring_config,
        );
        BbpCluster { ring, config }
    }

    /// The endpoint for `rank`. In [`crate::RecvMode::Interrupt`] its
    /// `Core` arms the NIC interrupt-on-write watches over the rank's flag
    /// blocks.
    pub fn endpoint(&self, rank: usize) -> BbpEndpoint {
        Self::endpoint_over(self.ring.nic(rank), self.config.clone())
    }

    /// Build an endpoint over an arbitrary NIC — the path for running
    /// the protocol across a [`scramnet::RingHierarchy`], whose NICs do
    /// not come from a single ring. The process's rank in the BBP layout
    /// is the NIC's host id ([`scramnet::Nic::gid`]); a NIC whose host id
    /// is not a rank of `config` is refused here, by rank.
    ///
    /// ```
    /// use bbp::{BbpCluster, BbpConfig};
    /// use scramnet::{HierarchyConfig, RingHierarchy};
    ///
    /// let sim = des::Simulation::new();
    /// let config = BbpConfig::for_nodes(4);
    /// let words = bbp::Layout::new(&config).total_words();
    /// let h = RingHierarchy::new(&sim.handle(), HierarchyConfig {
    ///     leaves: 2,
    ///     hosts_per_leaf: 2,
    ///     words,
    /// });
    /// let ep = BbpCluster::endpoint_over(h.nic(3), config);
    /// assert_eq!(ep.rank(), 3);
    /// ```
    ///
    /// The rank is the NIC's: there is no other to give.
    ///
    /// ```compile_fail,E0061
    /// use bbp::{BbpCluster, BbpConfig};
    /// use scramnet::{CostModel, Ring};
    ///
    /// let sim = des::Simulation::new();
    /// let config = BbpConfig::for_nodes(2);
    /// let words = bbp::Layout::new(&config).total_words();
    /// let ring = Ring::new(&sim.handle(), 2, words, CostModel::default());
    /// let ep = BbpCluster::endpoint_over(ring.nic(0), 1, config);
    /// ```
    pub fn endpoint_over(nic: scramnet::Nic, config: BbpConfig) -> BbpEndpoint {
        BbpEndpoint::new(Writer::new(nic, Layout::new(&config)), config)
    }

    /// The underlying ring (stats, fault injection, snapshots).
    pub fn ring(&self) -> &Ring {
        &self.ring
    }

    /// The protocol configuration.
    pub fn config(&self) -> &BbpConfig {
        &self.config
    }

    /// Switch the ring's transmission mode (fixed vs variable packets).
    pub fn set_tx_mode(&self, mode: TxMode) {
        self.ring.set_mode(mode);
    }
}

/// The BBP's safety argument is that every shared word has one writer, so
/// a world that broke it fails where its cluster goes, whichever test,
/// harness or benchmark built it; a thread already panicking says why it
/// stopped first.
impl Drop for BbpCluster {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            let words = self.ring.conflicts();
            assert!(words.is_empty(), "words written by two nodes: {words:?}");
        }
    }
}
