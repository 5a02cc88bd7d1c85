//! Property-based check of MPI message matching: for arbitrary send
//! plans and receive orders (selective by tag), the delivered payloads
//! match a reference model of MPI semantics — per-(source, tag) FIFO
//! with selective matching.

use std::collections::VecDeque;

use proptest::prelude::*;
use scramnet_cluster::des::Simulation;
use scramnet_cluster::smpi::MpiWorld;

/// A plan: rank 1 and rank 2 each send a sequence of (tag, payload) to
/// rank 0; rank 0 issues a sequence of receives, each selecting a
/// specific (source, tag). The plan is constructed so every receive has
/// a matching send (counts balance per (source, tag) pair).
#[derive(Debug, Clone)]
struct Plan {
    sends: Vec<Vec<(u32, u8)>>, // sends[s] = list of (tag, fill) from source s+1
    recv_order: Vec<(usize, u32)>, // (source index 0/1, tag)
}

fn plan_strategy() -> impl Strategy<Value = Plan> {
    let send_list = prop::collection::vec((0u32..3, any::<u8>()), 1..10);
    (send_list.clone(), send_list, any::<u64>()).prop_map(|(s1, s2, shuffle_seed)| {
        // Receive order: all (source, tag) demands, deterministically
        // shuffled by the seed.
        let mut order: Vec<(usize, u32)> = s1
            .iter()
            .map(|&(t, _)| (0usize, t))
            .chain(s2.iter().map(|&(t, _)| (1usize, t)))
            .collect();
        // Fisher-Yates with a tiny LCG so the order is plan-dependent.
        let mut state = shuffle_seed | 1;
        for i in (1..order.len()).rev() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let j = (state >> 33) as usize % (i + 1);
            order.swap(i, j);
        }
        Plan {
            sends: vec![s1, s2],
            recv_order: order,
        }
    })
}

/// Reference model: per-(source, tag) FIFO queues.
fn reference(plan: &Plan) -> Vec<Vec<u8>> {
    let mut queues: Vec<Vec<VecDeque<Vec<u8>>>> = vec![vec![VecDeque::new(); 3]; 2];
    for (s, sends) in plan.sends.iter().enumerate() {
        for (i, &(tag, fill)) in sends.iter().enumerate() {
            queues[s][tag as usize].push_back(vec![fill, i as u8, tag as u8]);
        }
    }
    plan.recv_order
        .iter()
        .map(|&(s, tag)| queues[s][tag as usize].pop_front().expect("balanced plan"))
        .collect()
}

fn run_on_mpi(plan: &Plan) -> Vec<Vec<u8>> {
    let mut sim = Simulation::new();
    let world = MpiWorld::scramnet(&sim.handle(), 3);
    for src in 0..2usize {
        let sends = plan.sends[src].clone();
        let mut mpi = world.proc(src + 1);
        sim.spawn(format!("s{src}"), move |ctx| {
            let comm = mpi.comm_world();
            for (i, (tag, fill)) in sends.into_iter().enumerate() {
                mpi.send(ctx, &comm, 0, tag, &[fill, i as u8, tag as u8])
                    .unwrap();
            }
        });
    }
    let order = plan.recv_order.clone();
    let mut root = world.proc(0);
    let mut root = sim.spawn("root", move |ctx| {
        let comm = root.comm_world();
        let mut out = Vec::new();
        for (s, tag) in order {
            let (status, bytes) = root.recv(ctx, &comm, Some(s + 1), Some(tag)).unwrap();
            assert_eq!(status.source, s + 1);
            assert_eq!(status.tag, tag);
            out.push(bytes);
        }
        out
    });
    let report = sim.run();
    assert!(report.is_clean(), "deadlocked: {:?}", report.deadlocked);
    root.take().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 20, .. ProptestConfig::default() })]

    #[test]
    fn selective_matching_agrees_with_reference_model(plan in plan_strategy()) {
        let want = reference(&plan);
        let got = run_on_mpi(&plan);
        prop_assert_eq!(got, want);
    }
}

#[test]
fn wildcard_receives_drain_in_arrival_order_per_source() {
    // With ANY_SOURCE/ANY_TAG, per-source FIFO must still hold even
    // though cross-source interleaving is schedule-dependent.
    let mut sim = Simulation::new();
    let world = MpiWorld::scramnet(&sim.handle(), 3);
    for src in 1..3usize {
        let mut mpi = world.proc(src);
        sim.spawn(format!("s{src}"), move |ctx| {
            let comm = mpi.comm_world();
            for i in 0..10u8 {
                mpi.send(ctx, &comm, 0, (src * 7) as u32, &[src as u8, i])
                    .unwrap();
            }
        });
    }
    let mut root = world.proc(0);
    sim.spawn("root", move |ctx| {
        let comm = root.comm_world();
        let mut next = [0u8; 3];
        for _ in 0..20 {
            let (st, m) = root.recv(ctx, &comm, None, None).unwrap();
            assert_eq!(m[0] as usize, st.source);
            assert_eq!(m[1], next[st.source], "per-source FIFO broken");
            next[st.source] += 1;
        }
    });
    let report = sim.run();
    assert!(report.is_clean());
}
