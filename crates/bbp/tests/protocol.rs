//! Behavioural tests of the BillBoard Protocol: delivery, ordering,
//! multicast, flow control, garbage collection, and the single-writer
//! discipline on the wire.

use bbp::{BbpCluster, BbpConfig, BbpError, RecvMode, Slept};
use des::{us, Simulation, TimeExt};
use scramnet::{CostModel, RingConfig};

fn cluster(sim: &Simulation, n: usize) -> BbpCluster {
    BbpCluster::new(&sim.handle(), BbpConfig::for_nodes(n))
}

#[test]
fn two_node_round_trip() {
    let mut sim = Simulation::new();
    let c = cluster(&sim, 2);
    let mut a = c.endpoint(0);
    let mut b = c.endpoint(1);
    sim.spawn("a", move |ctx| {
        a.send(ctx, 1, b"ping").unwrap();
        let back = a.recv(ctx, 1).unwrap();
        assert_eq!(back, b"pong");
    });
    sim.spawn("b", move |ctx| {
        let m = b.recv(ctx, 0).unwrap();
        assert_eq!(m, b"ping");
        b.send(ctx, 0, b"pong").unwrap();
    });
    let report = sim.run();
    assert!(report.is_clean(), "deadlocked: {:?}", report.deadlocked);
}

#[test]
fn zero_byte_messages_are_valid() {
    let mut sim = Simulation::new();
    let c = cluster(&sim, 2);
    let mut a = c.endpoint(0);
    let mut b = c.endpoint(1);
    sim.spawn("a", move |ctx| a.send(ctx, 1, &[]).unwrap());
    sim.spawn("b", move |ctx| {
        let m = b.recv(ctx, 0).unwrap();
        assert!(m.is_empty());
    });
    assert!(sim.run().is_clean());
}

#[test]
fn per_pair_fifo_order_holds() {
    let mut sim = Simulation::new();
    let c = cluster(&sim, 2);
    let mut a = c.endpoint(0);
    let mut b = c.endpoint(1);
    sim.spawn("a", move |ctx| {
        for i in 0..50u32 {
            a.send(ctx, 1, &i.to_le_bytes()).unwrap();
        }
    });
    sim.spawn("b", move |ctx| {
        for i in 0..50u32 {
            let m = b.recv(ctx, 0).unwrap();
            assert_eq!(u32::from_le_bytes(m.try_into().unwrap()), i);
        }
    });
    assert!(sim.run().is_clean());
}

#[test]
fn payload_bytes_survive_odd_lengths() {
    let mut sim = Simulation::new();
    let c = cluster(&sim, 2);
    let mut a = c.endpoint(0);
    let mut b = c.endpoint(1);
    sim.spawn("a", move |ctx| {
        for len in [1usize, 2, 3, 5, 7, 63, 64, 65, 1021] {
            let payload: Vec<u8> = (0..len).map(|i| (i * 31 % 251) as u8).collect();
            a.send(ctx, 1, &payload).unwrap();
        }
    });
    sim.spawn("b", move |ctx| {
        for len in [1usize, 2, 3, 5, 7, 63, 64, 65, 1021] {
            let m = b.recv(ctx, 0).unwrap();
            assert_eq!(m.len(), len);
            for (i, &byte) in m.iter().enumerate() {
                assert_eq!(byte, (i * 31 % 251) as u8, "byte {i} of len {len}");
            }
        }
    });
    assert!(sim.run().is_clean());
}

#[test]
fn multicast_reaches_all_targets() {
    let mut sim = Simulation::new();
    let c = cluster(&sim, 4);
    let mut root = c.endpoint(0);
    sim.spawn("root", move |ctx| {
        root.mcast(ctx, &[1, 2, 3], b"broadcast!").unwrap();
    });
    for r in 1..4 {
        let mut ep = c.endpoint(r);
        sim.spawn(format!("r{r}"), move |ctx| {
            let m = ep.recv(ctx, 0).unwrap();
            assert_eq!(m, b"broadcast!");
        });
    }
    assert!(sim.run().is_clean());
}

#[test]
fn multicast_to_subset_skips_others() {
    let mut sim = Simulation::new();
    let c = cluster(&sim, 4);
    let mut root = c.endpoint(0);
    let mut r1 = c.endpoint(1);
    let mut r3 = c.endpoint(3);
    let mut bystander = c.endpoint(2);
    sim.spawn("root", move |ctx| {
        root.mcast(ctx, &[1, 3], b"subset").unwrap();
        // A later direct message to 2 must be 2's *first* message.
        root.send(ctx, 2, b"direct").unwrap();
    });
    sim.spawn("r1", move |ctx| {
        assert_eq!(r1.recv(ctx, 0).unwrap(), b"subset")
    });
    sim.spawn("r3", move |ctx| {
        assert_eq!(r3.recv(ctx, 0).unwrap(), b"subset")
    });
    sim.spawn("r2", move |ctx| {
        assert_eq!(bystander.recv(ctx, 0).unwrap(), b"direct")
    });
    assert!(sim.run().is_clean());
}

#[test]
fn recv_any_collects_from_multiple_senders() {
    let mut sim = Simulation::new();
    let c = cluster(&sim, 4);
    for s in 1..4usize {
        let mut ep = c.endpoint(s);
        sim.spawn(format!("s{s}"), move |ctx| {
            ep.send(ctx, 0, &[s as u8]).unwrap();
        });
    }
    let mut sink = c.endpoint(0);
    sim.spawn("sink", move |ctx| {
        let mut seen = [false; 4];
        for _ in 0..3 {
            let (src, m) = sink.recv_any(ctx).unwrap();
            assert_eq!(m, vec![src as u8]);
            assert!(!seen[src], "duplicate delivery from {src}");
            seen[src] = true;
        }
    });
    assert!(sim.run().is_clean());
}

#[test]
fn try_recv_returns_none_when_quiet() {
    let mut sim = Simulation::new();
    let c = cluster(&sim, 2);
    let mut a = c.endpoint(0);
    sim.spawn("a", move |ctx| {
        assert!(a.try_recv(ctx, 1).is_none());
        assert!(!a.msg_avail(ctx));
        assert!(a.try_recv_any(ctx).is_none());
    });
    assert!(sim.run().is_clean());
}

#[test]
fn msg_avail_sees_posted_message() {
    let mut sim = Simulation::new();
    let c = cluster(&sim, 2);
    let mut a = c.endpoint(0);
    let mut b = c.endpoint(1);
    sim.spawn("a", move |ctx| a.send(ctx, 1, b"x").unwrap());
    sim.spawn("b", move |ctx| {
        ctx.wait_until(des::us(100));
        assert!(b.msg_avail(ctx));
        assert_eq!(b.try_recv(ctx, 0).unwrap(), b"x");
        assert!(!b.msg_avail(ctx));
    });
    assert!(sim.run().is_clean());
}

#[test]
fn flow_control_blocks_sender_until_receiver_drains() {
    // More messages than descriptor slots: the sender must stall on GC and
    // recover once the receiver acks.
    let mut sim = Simulation::new();
    let mut cfg = BbpConfig::for_nodes(2);
    cfg.bufs_per_proc = 4;
    let c = BbpCluster::new(&sim.handle(), cfg);
    let mut a = c.endpoint(0);
    let mut b = c.endpoint(1);
    sim.spawn("a", move |ctx| {
        for i in 0..32u32 {
            a.send(ctx, 1, &i.to_le_bytes()).unwrap();
        }
        assert!(a.stats().send_stalls > 0, "expected stalls with 4 slots");
    });
    sim.spawn("b", move |ctx| {
        for i in 0..32u32 {
            let m = b.recv(ctx, 0).unwrap();
            assert_eq!(u32::from_le_bytes(m.try_into().unwrap()), i);
        }
    });
    assert!(sim.run().is_clean());
}

#[test]
fn data_partition_wraps_and_reuses_space() {
    // Payloads sized so the circular allocator must wrap repeatedly.
    let mut sim = Simulation::new();
    let mut cfg = BbpConfig::for_nodes(2);
    cfg.data_words = 64; // 256-byte data partition
    let c = BbpCluster::new(&sim.handle(), cfg);
    let mut a = c.endpoint(0);
    let mut b = c.endpoint(1);
    sim.spawn("a", move |ctx| {
        for i in 0..40u32 {
            let payload = vec![i as u8; 100]; // 25 words each
            a.send(ctx, 1, &payload).unwrap();
        }
    });
    sim.spawn("b", move |ctx| {
        for i in 0..40u32 {
            let m = b.recv(ctx, 0).unwrap();
            assert_eq!(m, vec![i as u8; 100]);
        }
    });
    assert!(sim.run().is_clean());
}

#[test]
fn oversized_message_is_rejected() {
    let mut sim = Simulation::new();
    let c = cluster(&sim, 2);
    let max = c.config().max_payload_bytes();
    let mut a = c.endpoint(0);
    sim.spawn("a", move |ctx| {
        let err = a.send(ctx, 1, &vec![0u8; max + 1]).unwrap_err();
        assert!(matches!(err, BbpError::MessageTooLarge { .. }));
    });
    assert!(sim.run().is_clean());
}

#[test]
fn bad_destinations_are_rejected() {
    let mut sim = Simulation::new();
    let c = cluster(&sim, 2);
    let mut a = c.endpoint(0);
    sim.spawn("a", move |ctx| {
        assert!(matches!(
            a.send(ctx, 0, b"self"),
            Err(BbpError::BadDestination { dst: 0 })
        ));
        assert!(matches!(
            a.send(ctx, 7, b"oob"),
            Err(BbpError::BadDestination { dst: 7 })
        ));
        assert!(matches!(
            a.mcast(ctx, &[], b"none"),
            Err(BbpError::NoTargets)
        ));
    });
    assert!(sim.run().is_clean());
}

#[test]
fn repeated_multicast_target_is_rejected_before_any_write() {
    // Naming a receiver twice used to return `Ok`, toggle its expectation
    // bit twice and leak the buffer: the one ACK could never match.
    let mut sim = Simulation::new();
    let c = cluster(&sim, 3);
    let ring = c.ring().clone();
    let mut a = c.endpoint(0);
    sim.spawn("a", move |ctx| {
        assert_eq!(
            a.mcast(ctx, &[1, 1], b"twice"),
            Err(BbpError::BadDestination { dst: 1 })
        );
        assert_eq!(
            a.mcast(ctx, &[2, 1, 2], b"twice"),
            Err(BbpError::BadDestination { dst: 2 })
        );
        assert_eq!(a.stats().mcasts, 0);
        assert!(a.all_acked(ctx), "nothing was left in flight");
    });
    assert!(sim.run().is_clean());
    let traffic = ring.stats();
    assert_eq!((traffic.pio_writes, traffic.injections), (0, 0));
}

/// An endpoint's rank is its NIC's host id, so a NIC whose host id is
/// not a rank of the configuration is refused where the endpoint is
/// built, by rank — not at its first send, by bank address.
#[test]
#[should_panic(expected = "rank 5 out of range for 2 processes")]
fn an_endpoint_over_a_nic_past_the_last_rank_is_refused_where_it_is_built() {
    let sim = Simulation::new();
    let config = BbpConfig::for_nodes(2);
    let words = bbp::Layout::new(&config).total_words();
    let ring = scramnet::Ring::new(&sim.handle(), 6, words, CostModel::default());
    BbpCluster::endpoint_over(ring.nic(5), config);
}

#[test]
fn wire_traffic_respects_single_writer_discipline() {
    // Run a busy all-to-all workload; the protocol must never produce a
    // cross-writer conflict.
    let mut sim = Simulation::new();
    let c = BbpCluster::new(&sim.handle(), BbpConfig::for_nodes(4));
    for r in 0..4usize {
        let mut ep = c.endpoint(r);
        sim.spawn(format!("p{r}"), move |ctx| {
            let peers: Vec<usize> = (0..4).filter(|&p| p != r).collect();
            for round in 0..10u32 {
                for &p in &peers {
                    ep.send(ctx, p, &round.to_le_bytes()).unwrap();
                }
                for _ in &peers {
                    let (_, m) = ep.recv_any(ctx).unwrap();
                    assert!(u32::from_le_bytes(m.try_into().unwrap()) <= round);
                }
            }
        });
    }
    let report = sim.run();
    assert!(report.is_clean(), "deadlocked: {:?}", report.deadlocked);
    assert!(
        c.ring().conflicts().is_empty(),
        "single-writer violations: {:?}",
        c.ring().conflicts()
    );
}

/// A world whose ring saw one word written by two nodes fails where its
/// cluster is dropped, whether or not anything read the conflict log.
#[test]
#[should_panic(expected = "words written by two nodes: [(0, 0, 1)]")]
fn a_cluster_whose_ring_saw_two_writers_of_a_word_panics_when_dropped() {
    let mut sim = Simulation::new();
    let c = BbpCluster::new(&sim.handle(), BbpConfig::for_nodes(2));
    for node in 0..2 {
        let nic = c.ring().nic(node);
        sim.spawn(format!("raw{node}"), move |ctx| {
            ctx.advance(node as u64 * 10_000);
            nic.write_word(ctx, 0, 1);
        });
    }
    assert!(sim.run().is_clean());
    drop(c);
}

#[test]
fn interrupt_mode_delivers_without_polling_spin() {
    let mut sim = Simulation::new();
    let mut cfg = BbpConfig::for_nodes(2);
    cfg.recv_mode = RecvMode::Interrupt;
    let c = BbpCluster::new(&sim.handle(), cfg);
    let mut a = c.endpoint(0);
    let mut b = c.endpoint(1);
    sim.spawn("a", move |ctx| {
        ctx.wait_until(des::us(500)); // receiver blocks long before data
        a.send(ctx, 1, b"wake up").unwrap();
    });
    sim.spawn("b", move |ctx| {
        let m = b.recv(ctx, 0).unwrap();
        assert_eq!(m, b"wake up");
        assert!(ctx.now() >= des::us(500));
        // Interrupt mode: only a handful of flag reads, not hundreds of
        // spin iterations across 500 µs.
        assert!(b.stats().polls < 10, "polled {} times", b.stats().polls);
    });
    let report = sim.run();
    assert!(report.is_clean(), "deadlocked: {:?}", report.deadlocked);
}

#[test]
fn interrupt_mode_latency_pays_dispatch_cost() {
    let one_way = |mode: RecvMode| {
        let mut sim = Simulation::new();
        let mut cfg = BbpConfig::for_nodes(2);
        cfg.recv_mode = mode;
        let c = BbpCluster::new(&sim.handle(), cfg);
        let mut a = c.endpoint(0);
        let mut b = c.endpoint(1);
        sim.spawn("a", move |ctx| a.send(ctx, 1, b"racecar").unwrap());
        sim.spawn("b", move |ctx| {
            let _ = b.recv(ctx, 0).unwrap();
        });
        sim.run().end_time
    };
    let polled = one_way(RecvMode::Polling);
    let interrupted = one_way(RecvMode::Interrupt);
    assert!(
        interrupted > polled,
        "interrupt ({}) should cost more than polling ({})",
        interrupted.pretty(),
        polled.pretty()
    );
}

#[test]
fn all_acked_drains_after_receives() {
    let mut sim = Simulation::new();
    let c = cluster(&sim, 2);
    let mut a = c.endpoint(0);
    let mut b = c.endpoint(1);
    sim.spawn("a", move |ctx| {
        a.send(ctx, 1, b"one").unwrap();
        a.send(ctx, 1, b"two").unwrap();
        // Wait long enough for acks to replicate back, then check.
        ctx.wait_until(des::ms(5));
        assert!(a.all_acked(ctx));
    });
    sim.spawn("b", move |ctx| {
        let _ = b.recv(ctx, 0).unwrap();
        let _ = b.recv(ctx, 0).unwrap();
    });
    assert!(sim.run().is_clean());
}

#[test]
fn headline_zero_byte_latency_is_calibrated() {
    // Paper §5: a 0-byte message crosses the BBP API in ~6.5 µs and a
    // 4-byte one in ~7.8 µs. Allow ±15% — EXPERIMENTS.md records exacts.
    // One-way latency is send-call to recv-return (the trailing ACK
    // replication back to the sender is not on the critical path).
    let one_way = |len: usize| {
        let mut sim = Simulation::new();
        let c = cluster(&sim, 2);
        let mut a = c.endpoint(0);
        let mut b = c.endpoint(1);
        let payload = vec![0u8; len];
        sim.spawn("a", move |ctx| a.send(ctx, 1, &payload).unwrap());
        let mut b = sim.spawn("b", move |ctx| {
            let _ = b.recv(ctx, 0).unwrap();
            ctx.now()
        });
        sim.run();
        b.take().unwrap().as_us()
    };
    let zero = one_way(0);
    let four = one_way(4);
    assert!(
        (zero - 6.5).abs() < 1.0,
        "0-byte one-way {zero:.2} µs, want ≈6.5"
    );
    assert!(
        (four - 7.8).abs() < 1.2,
        "4-byte one-way {four:.2} µs, want ≈7.8"
    );
    assert!(four > zero);
}

#[test]
fn recv_into_fills_caller_buffer() {
    let mut sim = Simulation::new();
    let c = cluster(&sim, 2);
    let mut a = c.endpoint(0);
    let mut b = c.endpoint(1);
    sim.spawn("a", move |ctx| {
        a.send(ctx, 1, b"into the buffer").unwrap();
        a.send(ctx, 1, &[]).unwrap();
    });
    sim.spawn("b", move |ctx| {
        let mut buf = [0u8; 64];
        let n = b.recv_into(ctx, 0, &mut buf).unwrap();
        assert_eq!(&buf[..n], b"into the buffer");
        let n2 = b.recv_into(ctx, 0, &mut buf).unwrap();
        assert_eq!(n2, 0);
    });
    assert!(sim.run().is_clean());
}

#[test]
fn endpoint_stats_count_operations() {
    let mut sim = Simulation::new();
    let c = cluster(&sim, 3);
    let mut a = c.endpoint(0);
    let mut b = c.endpoint(1);
    sim.spawn("a", move |ctx| {
        a.send(ctx, 1, b"one").unwrap();
        a.mcast(ctx, &[1, 2], b"two").unwrap();
        assert_eq!(a.stats().sends, 1);
        assert_eq!(a.stats().mcasts, 1);
    });
    let mut c2 = c.endpoint(2);
    sim.spawn("b", move |ctx| {
        let _ = b.recv(ctx, 0).unwrap();
        let _ = b.recv(ctx, 0).unwrap();
        assert_eq!(b.stats().recvs, 2);
        assert_eq!(b.stats().bytes_recved, 6);
        assert!(b.stats().polls > 0);
    });
    sim.spawn("c", move |ctx| {
        let _ = c2.recv(ctx, 0).unwrap();
        assert_eq!(c2.stats().recvs, 1);
    });
    assert!(sim.run().is_clean());
}

#[test]
fn slotted_gc_delivers_correctly_under_pressure() {
    use bbp::GcPolicy;
    let mut sim = Simulation::new();
    let mut cfg = BbpConfig::for_nodes(2);
    cfg.gc_policy = GcPolicy::Slotted;
    cfg.bufs_per_proc = 4;
    cfg.data_words = 64; // 16-word (64-byte) slots
    let max = cfg.max_payload_bytes();
    assert_eq!(max, 64);
    let c = BbpCluster::new(&sim.handle(), cfg);
    let mut a = c.endpoint(0);
    let mut b = c.endpoint(1);
    sim.spawn("a", move |ctx| {
        for i in 0..40u32 {
            let len = (i as usize * 7) % 65; // 0..=64 bytes
            let payload: Vec<u8> = (0..len).map(|j| (i as u8).wrapping_add(j as u8)).collect();
            a.send(ctx, 1, &payload).unwrap();
        }
    });
    sim.spawn("b", move |ctx| {
        for i in 0..40u32 {
            let m = b.recv(ctx, 0).unwrap();
            let len = (i as usize * 7) % 65;
            assert_eq!(m.len(), len);
            for (j, &byte) in m.iter().enumerate() {
                assert_eq!(byte, (i as u8).wrapping_add(j as u8));
            }
        }
    });
    assert!(sim.run().is_clean());
}

#[test]
fn slotted_gc_rejects_messages_beyond_one_slot() {
    use bbp::GcPolicy;
    let mut sim = Simulation::new();
    let mut cfg = BbpConfig::for_nodes(2);
    cfg.gc_policy = GcPolicy::Slotted;
    cfg.bufs_per_proc = 4;
    cfg.data_words = 64;
    let c = BbpCluster::new(&sim.handle(), cfg);
    let mut a = c.endpoint(0);
    sim.spawn("a", move |ctx| {
        let err = a.send(ctx, 1, &[0u8; 65]).unwrap_err();
        assert!(matches!(err, BbpError::MessageTooLarge { max: 64, .. }));
    });
    assert!(sim.run().is_clean());
}

#[test]
fn slotted_gc_avoids_head_of_line_blocking() {
    // A multicast to a receiver that never drains pins its buffer. Under
    // the FIFO ring, that pinned front buffer blocks every later free;
    // under the slotted policy, later acknowledged buffers recycle and
    // traffic to the live receiver keeps flowing.
    use bbp::GcPolicy;
    let run = |policy: GcPolicy| {
        let mut sim = Simulation::new();
        let mut cfg = BbpConfig::for_nodes(3);
        cfg.gc_policy = policy;
        cfg.bufs_per_proc = 4;
        cfg.data_words = 64;
        let c = BbpCluster::new(&sim.handle(), cfg);
        let mut tx = c.endpoint(0);
        let mut live = c.endpoint(1);
        let _dead = c.endpoint(2); // never polls: its ack never comes
        let streamed = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let streamed2 = std::sync::Arc::clone(&streamed);
        sim.spawn("tx", move |ctx| {
            // First message pins a buffer on the dead receiver...
            tx.send(ctx, 2, b"stuck forever").unwrap();
            // ...then a stream to the live one.
            for i in 0..12u32 {
                tx.send(ctx, 1, &i.to_le_bytes()).unwrap();
            }
            streamed2.store(true, std::sync::atomic::Ordering::SeqCst);
        });
        sim.spawn("live", move |ctx| {
            for i in 0..12u32 {
                let m = live.recv(ctx, 0).unwrap();
                assert_eq!(u32::from_le_bytes(m.try_into().unwrap()), i);
            }
        });
        // A wedged sender polls forever: it is never deadlocked, only
        // still at it when the horizon stops the run.
        sim.run_until(des::ms(10));
        streamed.load(std::sync::atomic::Ordering::SeqCst)
    };
    assert!(
        run(GcPolicy::Slotted),
        "slotted must complete despite the pinned buffer"
    );
    // The FIFO ring run wedges: with 4 slots and the front pinned, the
    // 5th send can never allocate. (run_until keeps the test finite.)
    assert!(
        !run(GcPolicy::FifoRing),
        "the ring policy should exhibit head-of-line blocking"
    );
}

#[test]
fn corruption_is_detected_and_never_delivered_mangled() {
    // Paper §2: "there is no overhead of protocol information to be
    // added on messages" — the unprotected BBP trusts SCRAMNet's
    // hardware error handling completely, and under this exact fault
    // schedule (1% BER, seed 7) a flip once landed on a descriptor
    // length word, handing the application a mangled 768-byte message
    // for a 256-byte send. With the reliability extension the same
    // schedule must surface as *detected* corruption: every receive
    // returns either the exact bytes sent or a typed error, and the
    // mangled framing is never observable.
    let mut sim = Simulation::new();
    let cfg = BbpConfig::reliable_for_nodes(2);
    let ring_cfg = RingConfig {
        bit_error_rate: 0.01,
        error_seed: 7,
        ..Default::default()
    };
    let c = BbpCluster::with_hardware(&sim.handle(), cfg, CostModel::default(), ring_cfg);
    let mut a = c.endpoint(0);
    let mut b = c.endpoint(1);
    let mut sender = sim.spawn("a", move |ctx| {
        for i in 0..30u32 {
            let payload = vec![i as u8; 256];
            // A send may itself fail with a typed error once its retry
            // budget is spent; silent mis-delivery is what must never
            // happen.
            let _ = a.send(ctx, 1, &payload);
        }
        a.stats().retries + a.stats().send_failures
    });
    let mut receiver = sim.spawn("b", move |ctx| {
        for _ in 0..30u32 {
            match b.recv(ctx, 0) {
                Ok(m) => {
                    assert_eq!(m.len(), 256, "mangled length reached the application");
                    let v = m[0];
                    assert!(
                        m.iter().all(|&x| x == v) && u32::from(v) < 30,
                        "delivered payload matches no sent message"
                    );
                }
                Err(e) => assert!(
                    matches!(e, BbpError::Corrupt { .. } | BbpError::Timeout { .. }),
                    "unexpected error class: {e}"
                ),
            }
        }
        b.stats().corrupt_detected + b.stats().dup_drops
    });
    let report = sim.run();
    assert!(report.is_clean(), "deadlocked: {:?}", report.deadlocked);
    assert!(
        c.ring().stats().bit_errors > 0,
        "the fault schedule must actually inject flips"
    );
    let (sender_repairs, receiver_detections) = (sender.take().unwrap(), receiver.take().unwrap());
    assert!(
        sender_repairs + receiver_detections > 0,
        "1% BER across 30 sends must trip the reliability layer at least once"
    );
}

#[test]
fn recv_deadline_returns_none_when_quiet_and_some_when_not() {
    let mut sim = Simulation::new();
    let c = cluster(&sim, 2);
    let mut a = c.endpoint(0);
    let mut b = c.endpoint(1);
    sim.spawn("b", move |ctx| {
        // Nothing arrives before 200 µs.
        let miss = b.recv_deadline(ctx, 0, des::us(200));
        assert!(miss.is_none());
        assert!(ctx.now() >= des::us(200));
        // The message sent at 300 µs arrives well before the 1 ms limit.
        let hit = b.recv_deadline(ctx, 0, des::ms(1));
        assert_eq!(hit.unwrap(), b"on time");
        assert!(ctx.now() < des::us(400));
    });
    sim.spawn("a", move |ctx| {
        ctx.wait_until(des::us(300));
        a.send(ctx, 1, b"on time").unwrap();
    });
    assert!(sim.run().is_clean());
}

/// The trace-id side channel that tags ring packets with the message their
/// writer is sending has a slot per node a ring can hold. Two senders 64
/// ranks apart once shared one, and the second send was logged as more of
/// the first: one waterfall injected at both sources, delivered at both
/// destinations.
#[test]
fn senders_64_ranks_apart_trace_two_messages() {
    use des::obs::{message_waterfalls, MessageWaterfall, Stage};

    let pairs = [(0usize, 1usize), (64, 65)];
    let mut sim = Simulation::new();
    sim.enable_trace();
    let c = cluster(&sim, 66);
    for (src, dst) in pairs {
        let mut tx = c.endpoint(src);
        sim.spawn(format!("tx{src}"), move |ctx| {
            tx.send(ctx, dst, b"at once").unwrap()
        });
        let mut rx = c.endpoint(dst);
        sim.spawn(format!("rx{dst}"), move |ctx| {
            assert_eq!(rx.recv(ctx, src).unwrap(), b"at once");
        });
    }
    assert!(sim.run().is_clean());
    let waterfalls = message_waterfalls(&sim.recorder().take_events());
    let nodes_of = |w: &MessageWaterfall, stage: Stage| -> Vec<usize> {
        let at_stage = w.steps.iter().filter(|s| s.stage == stage);
        at_stage.map(|s| s.node as usize).collect()
    };
    assert_eq!(waterfalls.len(), 2, "{waterfalls:?}");
    for (w, (src, dst)) in waterfalls.iter().zip(pairs) {
        assert_eq!(w.src as usize, src);
        // Payload, descriptor, flag word.
        assert_eq!(nodes_of(w, Stage::RingInject), [src; 3]);
        assert_eq!(nodes_of(w, Stage::Deliver), [dst]);
    }
}

/// What [`blocked_server`] reports: when each message arrived, the run's
/// dispatches, queue depth and hand-offs, the server's counters, the
/// ring's, and the event log track by track.
type Blocked = (
    Vec<(des::Time, usize, Vec<u8>)>,
    (u64, usize, u64),
    bbp::EndpointStats,
    scramnet::RingStats,
    std::collections::BTreeMap<des::obs::Track, Vec<des::obs::Event>>,
);

/// A server that takes three messages from its `n - 1` peers, which send
/// them milliseconds apart, blocked the way a progress engine blocks: try;
/// nothing; 900 ns of its own; try again — written out (`asleep` false),
/// or asking the endpoint to sleep through the tries that find nothing.
/// With a `deadline`, it stops at the first try that finds nothing at or
/// past it: the check its loop makes between tries, or the sleep's guard.
fn blocked_server(config: BbpConfig, asleep: bool, deadline: Option<des::Time>) -> (Blocked, bool) {
    const LEAD: des::Time = 900;
    let n = config.nprocs;
    let mut sim = Simulation::new();
    sim.enable_trace();
    let c = BbpCluster::new(&sim.handle(), config);
    // Message `i` leaves at 700 (i + 1) us: the first and the last from the
    // highest rank, the one between from rank 1.
    let senders = [n - 1, 1, n - 1];
    for rank in (1..n).filter(|rank| senders.contains(rank)) {
        let mut ep = c.endpoint(rank);
        sim.spawn(format!("client{rank}"), move |ctx| {
            for (i, _) in senders.iter().enumerate().filter(|(_, &s)| s == rank) {
                ctx.wait_until(des::us(700) * (i as u64 + 1));
                ep.send(ctx, 0, &[i as u8; 24]).unwrap();
            }
        });
    }
    let mut server = c.endpoint(0);
    let mut server = sim.spawn("server", move |ctx| {
        let (mut got_all, mut slept) = (Vec::new(), false);
        let passed = move |t| deadline.is_some_and(|d| t >= d);
        let guard: des::RoundGuard = std::sync::Arc::new(passed);
        for _ in 0..3 {
            let got = loop {
                if let Some(got) = server.try_recv_any(ctx) {
                    break Some(got);
                }
                if passed(ctx.now()) {
                    break None;
                }
                let guard = deadline.is_some().then_some(&guard);
                match asleep.then(|| server.sleep_until_flagged(ctx, LEAD, guard)) {
                    Some(Some(Slept::Guarded)) => break None,
                    Some(Some(Slept::Flagged)) => slept = true,
                    _ => ctx.charge(LEAD),
                }
            };
            let Some((src, msg)) = got else { break };
            got_all.push((ctx.now(), src, msg));
        }
        (got_all, server.stats().clone(), slept)
    });
    let report = sim.run();
    assert!(report.is_clean(), "deadlocked: {:?}", report.deadlocked);
    let mut tracks = std::collections::BTreeMap::<_, Vec<_>>::new();
    for event in sim.recorder().take_events() {
        tracks.entry(event.track()).or_default().push(event);
    }
    let (got, stats, slept) = server.take().unwrap();
    let run = (report.dispatches, report.peak_queue_depth, report.handoffs);
    let blocked = (got, run, stats, c.ring().stats(), tracks);
    (blocked, slept)
}

#[test]
fn sleeping_until_flagged_is_the_polling_loop_it_stands_for() {
    // Sixteen ranks are fifteen flag words: the longest sweep one sleeping
    // cycle holds. Hundreds of idle sweeps pass between messages.
    for n in [2, 4, 16] {
        let (mut paced, _) = blocked_server(BbpConfig::for_nodes(n), false, None);
        let (mut asleep, slept) = blocked_server(BbpConfig::for_nodes(n), true, None);
        assert!(slept, "{n} ranks");
        assert!(asleep.2.polls > 1_000, "{n} ranks: {:?}", asleep.2);
        // Everything but how often the host moved the baton to get there.
        assert!(asleep.1 .2 <= paced.1 .2, "{n} ranks: {:?}", asleep.1);
        (asleep.1 .2, paced.1 .2) = (0, 0);
        assert_eq!(asleep, paced, "{n} ranks");
    }
}

#[test]
fn sleeping_until_flagged_or_a_deadline_is_the_loop_that_checks_it() {
    // The first message arrives at 700 us, the second at 1 400: a deadline
    // between them ends the second wait after sweeps that found nothing,
    // where the written-out loop's check ends it; one past the last
    // changes nothing.
    for n in [2, 4, 16] {
        for (deadline, taken) in [(us(1_000), 1), (us(1_400), 1), (us(9_000), 3)] {
            let config = BbpConfig::for_nodes(n);
            let (mut paced, _) = blocked_server(config.clone(), false, Some(deadline));
            let (mut asleep, slept) = blocked_server(config, true, Some(deadline));
            assert!(slept || taken == 1, "{n} ranks");
            assert_eq!(asleep.0.len(), taken, "{n} ranks, deadline {deadline}");
            assert!(asleep.1 .2 <= paced.1 .2, "{n} ranks: {:?}", asleep.1);
            (asleep.1 .2, paced.1 .2) = (0, 0);
            assert_eq!(asleep, paced, "{n} ranks, deadline {deadline}");
        }
    }
}

#[test]
fn an_endpoint_with_more_to_do_than_sweep_paces_itself() {
    // The sleeping wait is on offer where the endpoint does nothing else
    // between sweeps and one cycle holds the sweep: a property of the
    // endpoint and of the world's size, nothing the caller chooses.
    let interrupts = BbpConfig {
        recv_mode: RecvMode::Interrupt,
        ..BbpConfig::for_nodes(4)
    };
    for (what, config) in [
        ("seventeen ranks", BbpConfig::for_nodes(17)),
        ("reliability", BbpConfig::reliable_for_nodes(4)),
        ("membership", BbpConfig::membership_for_nodes(4)),
        ("interrupts", interrupts),
    ] {
        let (paced, _) = blocked_server(config.clone(), false, None);
        let (offered, slept) = blocked_server(config, true, None);
        assert!(!slept, "{what}");
        assert_eq!(offered, paced, "{what}");
    }
    // Nor with a message detected and not yet taken: there is something
    // to do before the next sweep.
    let mut sim = Simulation::new();
    let c = cluster(&sim, 3);
    let (mut tx, mut rx) = (c.endpoint(1), c.endpoint(0));
    sim.spawn("tx", move |ctx| tx.send(ctx, 0, b"waiting").unwrap());
    sim.spawn("rx", move |ctx| {
        ctx.advance(des::us(100));
        assert!(rx.msg_avail(ctx));
        let t0 = ctx.now();
        assert_eq!(rx.sleep_until_flagged(ctx, 900, None), None);
        assert_eq!(ctx.now(), t0, "refused without a step");
        assert_eq!(rx.try_recv_any(ctx), Some((1, b"waiting".to_vec())));
    });
    assert!(sim.run().is_clean());
}

/// An interrupt-mode sender that waits for its ACKs the only way a caller
/// can — `all_acked`, else `wait_for_traffic` — is woken by the ACK: the
/// receiver takes the message at 50 us and nothing else is ever written.
/// While `wait_for_traffic` slept on the MESSAGE watch alone, which an ACK
/// never raises, the run ended at 55 265 ns with the sender deadlocked.
#[test]
fn an_interrupt_mode_sender_sleeps_until_its_acks_land() {
    let mut sim = Simulation::new();
    let c = BbpCluster::new(
        &sim.handle(),
        BbpConfig {
            recv_mode: RecvMode::Interrupt,
            ..BbpConfig::for_nodes(2)
        },
    );
    let (mut tx, mut rx) = (c.endpoint(0), c.endpoint(1));
    let mut sender = sim.spawn("tx", move |ctx| {
        tx.send(ctx, 1, b"ack me").unwrap();
        while !tx.all_acked(ctx) {
            assert!(tx.wait_for_traffic(ctx), "interrupt mode blocks");
        }
        ctx.now()
    });
    sim.spawn("rx", move |ctx| {
        ctx.wait_until(us(50));
        assert_eq!(rx.recv(ctx, 0).unwrap(), b"ack me");
    });
    let report = sim.run();
    assert!(report.is_clean(), "deadlocked: {:?}", report.deadlocked);
    let acked_at = sender.take().expect("the sender saw its ACK");
    assert_eq!((acked_at, report.end_time), (60_965, 60_965));
}
