//! World builders: wire an MPI job onto a SCRAMNet cluster or one of the
//! TCP baselines.

use bbp::{BbpCluster, BbpConfig};
use des::SimHandle;
use netsim::{MyrinetApiNet, NetSpec, TcpCosts, TcpNet};
use scramnet::{CostModel, RingConfig};

use crate::collectives::CollectiveImpl;
use crate::costs::SmpiCosts;
use crate::device::{Device, TcpDevice};
use crate::hybrid::HybridDevice;
use crate::mpi::Mpi;

enum Transport {
    Scramnet(BbpCluster),
    Tcp(TcpNet),
    /// SCRAMNet for latency + Myrinet for bandwidth (paper §7's hybrid
    /// cluster direction). Frames below the threshold ride the BBP.
    Hybrid {
        cluster: BbpCluster,
        myrinet: MyrinetApiNet,
        threshold: usize,
    },
}

/// A configured MPI world. Mint one [`Mpi`] per rank with
/// [`MpiWorld::proc`] and move it into that rank's simulated process.
pub struct MpiWorld {
    transport: Transport,
    nprocs: usize,
    costs: SmpiCosts,
    coll: CollectiveImpl,
    minted: parking_lot::Mutex<Vec<bool>>,
}

impl MpiWorld {
    /// MPI over the BillBoard Protocol on SCRAMNet, with the paper's
    /// defaults: Channel Interface costs, native collectives.
    pub fn scramnet(handle: &SimHandle, nprocs: usize) -> Self {
        Self::scramnet_with(
            handle,
            BbpConfig::for_nodes(nprocs),
            CostModel::default(),
            SmpiCosts::channel_interface(),
            CollectiveImpl::Native,
        )
    }

    /// [`MpiWorld::scramnet`] with the BBP's membership-and-failure-
    /// detection extension enabled: point-to-point operations to dead
    /// ranks and the `try_*` collectives report typed ULFM-style
    /// failures ([`crate::MpiError::PeerFailed`] /
    /// [`crate::MpiError::Revoked`]), and [`crate::Mpi::shrink`]
    /// rebuilds a survivor communicator after a failure.
    pub fn scramnet_membership(handle: &SimHandle, nprocs: usize) -> Self {
        Self::scramnet_with(
            handle,
            BbpConfig::membership_for_nodes(nprocs),
            CostModel::default(),
            SmpiCosts::channel_interface(),
            CollectiveImpl::Native,
        )
    }

    /// Fully parameterized SCRAMNet world (ablations).
    pub fn scramnet_with(
        handle: &SimHandle,
        config: BbpConfig,
        hw: CostModel,
        costs: SmpiCosts,
        coll: CollectiveImpl,
    ) -> Self {
        let nprocs = config.nprocs;
        let cluster = BbpCluster::with_hardware(handle, config, hw, RingConfig::default());
        MpiWorld {
            transport: Transport::Scramnet(cluster),
            nprocs,
            costs,
            coll,
            minted: parking_lot::Mutex::new(vec![false; nprocs]),
        }
    }

    /// MPICH-over-TCP on switched Fast Ethernet.
    pub fn fast_ethernet(handle: &SimHandle, nprocs: usize) -> Self {
        Self::tcp_with(
            handle,
            nprocs,
            NetSpec::fast_ethernet,
            TcpCosts::fast_ethernet(),
        )
    }

    /// MPICH-over-TCP on ATM OC-3.
    pub fn atm(handle: &SimHandle, nprocs: usize) -> Self {
        Self::tcp_with(handle, nprocs, NetSpec::atm_oc3, TcpCosts::atm())
    }

    /// MPICH-over-TCP on Myrinet.
    pub fn myrinet_tcp(handle: &SimHandle, nprocs: usize) -> Self {
        Self::tcp_with(handle, nprocs, NetSpec::myrinet, TcpCosts::myrinet_tcp())
    }

    /// The hybrid cluster of the paper's conclusion: SCRAMNet carries
    /// frames below `threshold` bytes (and all collectives), Myrinet
    /// carries the bulk. Per-pair ordering is restored by the device's
    /// resequencing sub-layer.
    pub fn hybrid(handle: &SimHandle, nprocs: usize, threshold: usize) -> Self {
        let mut cfg = BbpConfig::for_nodes(nprocs);
        cfg.data_words = 16 * 1024;
        let cluster =
            BbpCluster::with_hardware(handle, cfg, CostModel::default(), RingConfig::default());
        let myrinet = MyrinetApiNet::new(handle, nprocs);
        MpiWorld {
            transport: Transport::Hybrid {
                cluster,
                myrinet,
                threshold,
            },
            nprocs,
            costs: SmpiCosts::channel_interface(),
            coll: CollectiveImpl::Native,
            minted: parking_lot::Mutex::new(vec![false; nprocs]),
        }
    }

    /// The MPICH-over-TCP world of `nprocs` hosts on one fabric preset
    /// and its host stack. Collectives are point-to-point (no hardware
    /// multicast on these fabrics).
    fn tcp_with(
        handle: &SimHandle,
        nprocs: usize,
        spec: fn(usize) -> NetSpec,
        tcp: TcpCosts,
    ) -> Self {
        let net = TcpNet::new(handle, spec(nprocs), tcp);
        MpiWorld {
            transport: Transport::Tcp(net),
            nprocs,
            costs: SmpiCosts::tcp_channel(),
            coll: CollectiveImpl::PointToPoint,
            minted: parking_lot::Mutex::new(vec![false; nprocs]),
        }
    }

    /// World size.
    pub fn nprocs(&self) -> usize {
        self.nprocs
    }

    /// Override the default collective implementation for newly minted
    /// processes (per-communicator override: [`crate::Comm::with_collectives`]).
    pub fn set_collectives(&mut self, coll: CollectiveImpl) {
        self.coll = coll;
    }

    /// The SCRAMNet cluster underneath, if any (ring stats, fault
    /// injection).
    pub fn bbp_cluster(&self) -> Option<&BbpCluster> {
        match &self.transport {
            Transport::Scramnet(c) | Transport::Hybrid { cluster: c, .. } => Some(c),
            Transport::Tcp(_) => None,
        }
    }

    /// The TCP network underneath, if any (fabric stats).
    pub fn tcp_net(&self) -> Option<&TcpNet> {
        match &self.transport {
            Transport::Tcp(n) => Some(n),
            Transport::Scramnet(_) | Transport::Hybrid { .. } => None,
        }
    }

    /// The MPI library instance for `rank`.
    pub fn proc(&self, rank: usize) -> Mpi {
        assert!(rank < self.nprocs, "rank {rank} out of range");
        {
            let mut minted = self.minted.lock();
            assert!(
                !minted[rank],
                "rank {rank} was already minted: two endpoints on one BBP \
                 rank would corrupt its flag shadows"
            );
            minted[rank] = true;
        }
        let dev = match &self.transport {
            Transport::Scramnet(cluster) => Device::Bbp(Box::new(cluster.endpoint(rank))),
            Transport::Tcp(net) => {
                let socks = (0..self.nprocs)
                    .map(|p| (p != rank).then(|| net.connect(rank, p)))
                    .collect();
                Device::Tcp(TcpDevice::new(rank, socks))
            }
            Transport::Hybrid {
                cluster,
                myrinet,
                threshold,
            } => {
                let fast = Device::Bbp(Box::new(cluster.endpoint(rank)));
                let bulk = Device::Myrinet(myrinet.port(rank), self.nprocs);
                Device::Hybrid(Box::new(HybridDevice::new(fast, bulk, *threshold)))
            }
        };
        Mpi::new(dev, self.costs.clone(), self.coll)
    }
}
