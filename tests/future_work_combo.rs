//! The paper's §7 names two directions to cut MPI latency further:
//! remove the Channel Interface (ADI-direct) and add interrupt-driven
//! receives. This test runs them TOGETHER — the stack the authors said
//! they were building next — and checks it is both correct and ordered
//! sensibly against the shipped configuration.

use scramnet_cluster::bbp::{BbpConfig, RecvMode};
use scramnet_cluster::des::{SimHandle, Simulation, TimeExt};
use scramnet_cluster::scramnet::CostModel;
use scramnet_cluster::smpi::{CollectiveImpl, MpiWorld, ReduceOp, SmpiCosts};

fn future_world(h: &SimHandle, n: usize) -> MpiWorld {
    let mut cfg = BbpConfig::for_nodes(n);
    cfg.recv_mode = RecvMode::Interrupt;
    MpiWorld::scramnet_with(
        h,
        cfg,
        CostModel::default(),
        SmpiCosts::adi_direct(),
        CollectiveImpl::Native,
    )
}

#[test]
fn combined_future_stack_is_correct() {
    let mut sim = Simulation::new();
    let world = future_world(&sim.handle(), 4);
    for rank in 0..4 {
        let mut mpi = world.proc(rank);
        sim.spawn(format!("rank{rank}"), move |ctx| {
            let comm = mpi.comm_world();
            // Point-to-point ring + collectives, all on interrupts.
            let right = (mpi.rank() + 1) % 4;
            let left = (mpi.rank() + 3) % 4;
            let (_, m) = mpi
                .sendrecv(
                    ctx,
                    &comm,
                    right,
                    1,
                    &[mpi.rank() as u8],
                    Some(left),
                    Some(1),
                )
                .unwrap();
            assert_eq!(m, vec![left as u8]);
            let s = mpi.allreduce(ctx, &comm, ReduceOp::Sum, &[1.0]);
            assert_eq!(s, vec![4.0]);
            mpi.barrier(ctx, &comm);
        });
    }
    let report = sim.run();
    assert!(report.is_clean(), "deadlocked: {:?}", report.deadlocked);
}

#[test]
fn interrupts_eliminate_idle_polling_in_the_mpi_stack() {
    // A receiver that waits 2 ms for a message: under polling it spins
    // PIO reads the whole time; under interrupts the ring sees almost no
    // read traffic while idle.
    let idle_reads = |interrupt: bool| {
        let mut sim = Simulation::new();
        let mut cfg = BbpConfig::for_nodes(2);
        cfg.recv_mode = if interrupt {
            RecvMode::Interrupt
        } else {
            RecvMode::Polling
        };
        let world = MpiWorld::scramnet_with(
            &sim.handle(),
            cfg,
            CostModel::default(),
            SmpiCosts::adi_direct(),
            CollectiveImpl::Native,
        );
        let reads = {
            let mut tx = world.proc(0);
            let mut rx = world.proc(1);
            sim.spawn("tx", move |ctx| {
                let comm = tx.comm_world();
                ctx.wait_until(des::ms(2));
                tx.send(ctx, &comm, 1, 0, b"late").unwrap();
            });
            sim.spawn("rx", move |ctx| {
                let comm = rx.comm_world();
                let _ = rx.recv(ctx, &comm, Some(0), Some(0)).unwrap();
            });
            let report = sim.run();
            assert!(report.is_clean(), "deadlocked: {:?}", report.deadlocked);
            world.bbp_cluster().unwrap().ring().stats().pio_reads
        };
        reads
    };
    let polled = idle_reads(false);
    let interrupted = idle_reads(true);
    assert!(
        interrupted * 20 < polled,
        "interrupt-mode reads ({interrupted}) should be a tiny fraction of polling's ({polled})"
    );
}

#[test]
fn future_stack_beats_the_shipped_stack_on_latency_when_streaming() {
    // For a lone blocking receive the shipped polling stack wins (no
    // interrupt dispatch); but the channel-interface tax dominates, so
    // ADI-direct + interrupts still beats the paper's shipped
    // configuration end-to-end.
    let one_way = |build: &dyn Fn(&SimHandle) -> MpiWorld| {
        let mut sim = Simulation::new();
        let world = build(&sim.handle());
        let mut tx = world.proc(0);
        let mut rx = world.proc(1);
        sim.spawn("tx", move |ctx| {
            let comm = tx.comm_world();
            tx.send(ctx, &comm, 1, 0, b"ping").unwrap();
        });
        let mut rx = sim.spawn("rx", move |ctx| {
            let comm = rx.comm_world();
            let _ = rx.recv(ctx, &comm, Some(0), Some(0)).unwrap();
            ctx.now()
        });
        assert!(sim.run().is_clean());
        rx.take().unwrap()
    };
    let shipped = one_way(&|h| MpiWorld::scramnet(h, 2));
    let future = one_way(&|h| future_world(h, 2));
    assert!(
        future < shipped,
        "future stack {} should beat the shipped stack {}",
        future.pretty(),
        shipped.pretty()
    );
}
