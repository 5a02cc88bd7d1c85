//! Deterministic fault campaigns: a small builder DSL that scripts
//! packet drops, node stalls, and link breaks against virtual time, on
//! top of the seeded word-corruption stream the ring already carries.
//!
//! A [`FaultPlan`] is pure data until [`FaultPlan::arm`] schedules its
//! actions on a ring's simulation handle, so the same plan replays
//! identically across runs — the property the CI fault matrix relies on
//! to turn "a campaign cell failed" into a one-command repro.
//!
//! ```
//! use des::{us, ms, Simulation};
//! use scramnet::{CostModel, FaultPlan, Ring};
//!
//! let plan = FaultPlan::new(42)
//!     .corrupt_word(0.001)
//!     .at(us(10)).drop_next(2)
//!     .at(us(50)).stall_node(1, us(100))
//!     .at(ms(1)).break_link(0, scramnet::fault::FOREVER);
//!
//! let mut sim = Simulation::new();
//! let ring = Ring::with_config(
//!     &sim.handle(), 4, 1024, CostModel::default(), plan.ring_config());
//! plan.arm(&ring);
//! ```

use des::Time;

use crate::ring::{Ring, RingConfig};

/// A duration that never elapses: stalls and breaks scheduled with it
/// are permanent for the run.
pub const FOREVER: Time = Time::MAX;

/// One scheduled fault action.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Action {
    /// Lose the next `n` injected packets on the wire (source banks keep
    /// their local writes; nothing replicates).
    DropNext(u64),
    /// Switch a node's insertion register out of the ring for `dur`
    /// (its bank misses all traffic in between), then re-insert it.
    StallNode { node: usize, dur: Time },
    /// Sever egress link `link → link+1` for `dur`; in-flight packets
    /// are truncated at the break.
    BreakLink { link: usize, dur: Time },
    /// Crash a node's host for `dur`: its NIC stays inserted (full hop
    /// latency, bank keeps receiving) but it injects nothing and looks
    /// alive to the hardware — the silent failure only a heartbeat
    /// detector can expose. After `dur` the host reboots (un-silenced);
    /// protocol-level rejoin is up to the layers above.
    KillNode { node: usize, dur: Time },
    /// Segment the ring: sever the *pair* of links the dual-ring wrap
    /// cannot route around, isolating the arc between them. Both cuts
    /// land at the same instant and (unless `dur` is [`FOREVER`]) heal
    /// together at `t + dur`. A plan carrying a partition enables
    /// [`RingConfig::segment_wrap`] in [`FaultPlan::ring_config`], since
    /// segmentation is only meaningful under the wrap model.
    Partition {
        cut_a: usize,
        cut_b: usize,
        dur: Time,
    },
}

impl Action {
    fn describe(&self, out: &mut String) {
        use std::fmt::Write as _;
        let time = |dur: Time| match dur {
            FOREVER => "forever".to_string(),
            dur => dur.to_string(),
        };
        match *self {
            Action::DropNext(n) => write!(out, "drop_next({n})"),
            Action::StallNode { node, dur } => write!(out, "stall_node({node},{})", time(dur)),
            Action::BreakLink { link, dur } => write!(out, "break_link({link},{})", time(dur)),
            Action::KillNode { node, dur } => write!(out, "kill_node({node},{})", time(dur)),
            Action::Partition { cut_a, cut_b, dur } => {
                write!(out, "partition({cut_a},{cut_b},{})", time(dur))
            }
        }
        .unwrap();
    }
}

/// A deterministic, seed-driven fault schedule.
///
/// Built with the chainable constructors ([`FaultPlan::corrupt_word`],
/// [`FaultPlan::at`] followed by a [`FaultAt`] action), then applied in
/// two steps: [`FaultPlan::ring_config`] bakes the corruption stream
/// into the ring's construction, and [`FaultPlan::arm`] schedules the
/// timed actions. The seed drives the corruption RNG and labels the
/// whole scenario in campaign reports.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    seed: u64,
    corrupt_rate: f64,
    actions: Vec<(Time, Action)>,
}

/// A [`FaultPlan`] waiting for the action to schedule at a chosen time —
/// the intermediate state of the `plan.at(t).drop_next(n)` chain.
#[derive(Debug, Clone)]
pub struct FaultAt {
    plan: FaultPlan,
    t: Time,
}

impl FaultPlan {
    /// An empty plan under `seed` (no corruption, no scheduled actions).
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            corrupt_rate: 0.0,
            actions: Vec::new(),
        }
    }

    /// The seed that labels this scenario (also drives corruption).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Enable the seeded per-word bit-flip stream at `rate`.
    pub fn corrupt_word(mut self, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "rate must be in [0, 1]");
        self.corrupt_rate = rate;
        self
    }

    /// The configured corruption rate (0.0 when disabled).
    pub fn corrupt_rate(&self) -> f64 {
        self.corrupt_rate
    }

    /// Start scheduling an action at virtual time `t`.
    pub fn at(self, t: Time) -> FaultAt {
        FaultAt { plan: self, t }
    }

    /// True when the plan injects nothing at all.
    pub fn is_empty(&self) -> bool {
        self.corrupt_rate == 0.0 && self.actions.is_empty()
    }

    /// A default [`RingConfig`] carrying this plan's corruption stream.
    /// A plan that scripts a partition also switches the ring to the
    /// dual-ring wrap model (see [`RingConfig::segment_wrap`]).
    pub fn ring_config(&self) -> RingConfig {
        let mut config = RingConfig {
            segment_wrap: self.has_partition(),
            ..RingConfig::default()
        };
        if self.corrupt_rate > 0.0 {
            config.bit_error_rate = self.corrupt_rate;
            config.error_seed = self.seed;
        }
        config
    }

    /// True when the plan scripts at least one [`FaultAt::partition`].
    fn has_partition(&self) -> bool {
        self.actions
            .iter()
            .any(|(_, a)| matches!(a, Action::Partition { .. }))
    }

    /// Schedule every timed action on `ring`'s simulation handle. Call
    /// before `Simulation::run`; arming is idempotent only in the sense
    /// that a second call schedules the faults again.
    pub fn arm(&self, ring: &Ring) {
        let handle = ring.handle();
        for &(t, action) in &self.actions {
            match action {
                Action::DropNext(n) => {
                    let r = ring.clone();
                    handle.schedule_at(t, move |_| r.arm_drop(n));
                }
                Action::StallNode { node, dur } => {
                    let r = ring.clone();
                    handle.schedule_at(t, move |_| r.bypass_node(node));
                    if dur != FOREVER {
                        let r = ring.clone();
                        handle.schedule_at(t.saturating_add(dur), move |_| r.rejoin_node(node));
                    }
                }
                Action::BreakLink { link, dur } => {
                    let r = ring.clone();
                    handle.schedule_at(t, move |_| r.break_link(link));
                    if dur != FOREVER {
                        let r = ring.clone();
                        handle.schedule_at(t.saturating_add(dur), move |_| r.heal_link(link));
                    }
                }
                Action::Partition { cut_a, cut_b, dur } => {
                    let r = ring.clone();
                    let h = handle.clone();
                    handle.schedule_at(t, move |t| {
                        // Segmentation is the canonical postmortem
                        // moment: keep the lifecycle ring from just
                        // before the detectors start reacting.
                        let label = format!("partition_{cut_a}_{cut_b}_t{t}");
                        h.recorder()
                            .postmortem(t, cut_a as u32, 0, cut_b as u64, &label);
                        r.break_link(cut_a);
                        r.break_link(cut_b);
                    });
                    if dur != FOREVER {
                        let r = ring.clone();
                        handle.schedule_at(t.saturating_add(dur), move |_| {
                            r.heal_link(cut_a);
                            r.heal_link(cut_b);
                        });
                    }
                }
                Action::KillNode { node, dur } => {
                    let r = ring.clone();
                    let h = handle.clone();
                    handle.schedule_at(t, move |t| {
                        // A kill is exactly the moment a postmortem is
                        // worth keeping: snapshot the recent lifecycle
                        // ring before the detector reacts to the silence.
                        let label = format!("kill_node{node}_t{t}");
                        h.recorder()
                            .postmortem(t, node as u32, 0, node as u64, &label);
                        r.silence_node(node);
                    });
                    if dur != FOREVER {
                        let r = ring.clone();
                        handle.schedule_at(t.saturating_add(dur), move |_| r.unsilence_node(node));
                    }
                }
            }
        }
    }

    /// Human- and report-readable one-line rendering of the scenario,
    /// e.g. `seed=7 corrupt=0.003 @1000:drop_next(2)`.
    pub fn describe(&self) -> String {
        use std::fmt::Write as _;
        let mut out = format!("seed={}", self.seed);
        if self.corrupt_rate > 0.0 {
            write!(out, " corrupt={}", self.corrupt_rate).unwrap();
        }
        for (t, action) in &self.actions {
            write!(out, " @{t}:").unwrap();
            action.describe(&mut out);
        }
        out
    }
}

impl FaultAt {
    fn push(mut self, action: Action) -> FaultPlan {
        self.plan.actions.push((self.t, action));
        self.plan
    }

    /// Lose the next `n` injected packets on the wire from this time on.
    pub fn drop_next(self, n: u64) -> FaultPlan {
        self.push(Action::DropNext(n))
    }

    /// Bypass `node` for `dur` ([`FOREVER`] = never re-inserted).
    pub fn stall_node(self, node: usize, dur: Time) -> FaultPlan {
        self.push(Action::StallNode { node, dur })
    }

    /// Sever egress link `link → link+1` for `dur` ([`FOREVER`] = never
    /// healed).
    pub fn break_link(self, link: usize, dur: Time) -> FaultPlan {
        self.push(Action::BreakLink { link, dur })
    }

    /// Crash `node`'s host for `dur` ([`FOREVER`] = never reboots). The
    /// NIC stays inserted — only a failure detector can tell.
    pub fn kill_node(self, node: usize, dur: Time) -> FaultPlan {
        self.push(Action::KillNode { node, dur })
    }

    /// Segment the ring for `dur` ([`FOREVER`] = never heals): sever
    /// links `cut_a → cut_a+1` and `cut_b → cut_b+1` together,
    /// isolating the arc between the two cuts. Reads as intent in
    /// campaign cells and repro lines — `partition(1,4,…)` instead of
    /// two raw `break_link`s.
    pub fn partition(self, cut_a: usize, cut_b: usize, dur: Time) -> FaultPlan {
        assert!(cut_a != cut_b, "a partition needs two distinct cuts");
        self.push(Action::Partition { cut_a, cut_b, dur })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CostModel;
    use des::{us, Simulation};

    #[test]
    fn armed_plan_drops_packets_after_the_scheduled_time() {
        let plan = FaultPlan::new(1).at(us(5)).drop_next(1);
        let mut sim = Simulation::new();
        let ring = Ring::with_config(
            &sim.handle(),
            3,
            64,
            CostModel::default(),
            plan.ring_config(),
        );
        plan.arm(&ring);
        let nic = ring.nic(0);
        sim.spawn("w", move |ctx| {
            nic.write_word(ctx, 0, 1); // before the arm: delivered
            ctx.wait_until(us(10));
            nic.write_word(ctx, 1, 2); // armed: dropped
            nic.write_word(ctx, 2, 3); // arm consumed: delivered
        });
        sim.run();
        assert_eq!(&ring.snapshot(1)[0..3], &[1, 0, 3]);
        assert_eq!(ring.stats().packets_dropped, 1);
    }

    #[test]
    fn stall_window_bypasses_then_rejoins() {
        let plan = FaultPlan::new(2).at(us(5)).stall_node(1, us(10));
        let mut sim = Simulation::new();
        let ring = Ring::with_config(
            &sim.handle(),
            3,
            64,
            CostModel::default(),
            plan.ring_config(),
        );
        plan.arm(&ring);
        let nic = ring.nic(0);
        sim.spawn("w", move |ctx| {
            ctx.wait_until(us(8)); // inside the stall window
            nic.write_word(ctx, 0, 7);
            ctx.wait_until(us(30)); // after rejoin
            nic.write_word(ctx, 1, 8);
        });
        sim.run();
        let snap = ring.snapshot(1);
        assert_eq!(snap[0], 0, "stalled bank missed the write");
        assert_eq!(snap[1], 8, "rejoined bank sees traffic again");
        assert!(!ring.is_bypassed(1));
    }

    #[test]
    fn kill_window_silences_then_reboots() {
        let plan = FaultPlan::new(4).at(us(5)).kill_node(0, us(10));
        let mut sim = Simulation::new();
        let ring = Ring::with_config(
            &sim.handle(),
            3,
            64,
            CostModel::default(),
            plan.ring_config(),
        );
        plan.arm(&ring);
        let nic = ring.nic(0);
        sim.spawn("w", move |ctx| {
            ctx.wait_until(us(8)); // inside the kill window
            nic.write_word(ctx, 0, 7);
            assert!(nic.peer_alive(0), "silence is invisible to hardware");
            ctx.wait_until(us(30)); // after the reboot
            nic.write_word(ctx, 1, 8);
        });
        sim.run();
        let snap = ring.snapshot(1);
        assert_eq!(snap[0], 0, "killed host's write never replicated");
        assert_eq!(snap[1], 8, "rebooted host injects again");
        assert!(!ring.is_silenced(0));
        assert_eq!(ring.stats().silenced_drops, 1);
    }

    #[test]
    fn permanent_break_never_heals() {
        let plan = FaultPlan::new(3).at(0).break_link(0, FOREVER);
        let mut sim = Simulation::new();
        let ring = Ring::with_config(
            &sim.handle(),
            2,
            64,
            CostModel::default(),
            plan.ring_config(),
        );
        plan.arm(&ring);
        let nic = ring.nic(0);
        sim.spawn("w", move |ctx| {
            ctx.wait_until(us(1));
            nic.write_word(ctx, 0, 9);
        });
        sim.run();
        assert!(ring.is_link_broken(0));
        assert_eq!(ring.snapshot(1)[0], 0);
    }

    #[test]
    fn corrupt_word_flows_into_ring_config() {
        let plan = FaultPlan::new(77).corrupt_word(0.25);
        let cfg = plan.ring_config();
        assert_eq!(cfg.bit_error_rate, 0.25);
        assert_eq!(cfg.error_seed, 77);
        assert!(!plan.is_empty());
    }

    #[test]
    fn describe_renders_the_whole_scenario() {
        let plan = FaultPlan::new(7)
            .corrupt_word(0.5)
            .at(1000)
            .drop_next(2)
            .at(2000)
            .stall_node(1, FOREVER);
        assert_eq!(
            plan.describe(),
            "seed=7 corrupt=0.5 @1000:drop_next(2) @2000:stall_node(1,forever)"
        );
    }

    #[test]
    fn describe_renders_partitions() {
        let plan = FaultPlan::new(42)
            .at(1000)
            .partition(1, 4, us(2))
            .at(9000)
            .partition(0, 2, FOREVER);
        assert_eq!(
            plan.describe(),
            "seed=42 @1000:partition(1,4,2000) @9000:partition(0,2,forever)"
        );
        assert!(plan.has_partition());
        assert!(plan.ring_config().segment_wrap);
        assert!(!FaultPlan::new(0).has_partition());
        assert!(!FaultPlan::new(0).ring_config().segment_wrap);
    }

    #[test]
    fn partition_window_segments_then_heals() {
        // 6 nodes, cuts at links 1 and 4: segments {2,3,4} and {5,0,1}.
        let plan = FaultPlan::new(9).at(us(5)).partition(1, 4, us(20));
        let mut sim = Simulation::new();
        let ring = Ring::with_config(
            &sim.handle(),
            6,
            64,
            CostModel::default(),
            plan.ring_config(),
        );
        plan.arm(&ring);
        let nic = ring.nic(0);
        sim.spawn("w", move |ctx| {
            ctx.wait_until(us(10)); // inside the partition window
            nic.write_word(ctx, 0, 7);
            ctx.wait_until(us(40)); // after the heal
            nic.write_word(ctx, 1, 8);
        });
        sim.run();
        let snap = ring.snapshot(3);
        assert_eq!(snap[0], 0, "other segment missed the write");
        assert_eq!(snap[1], 8, "healed ring carries traffic again");
        assert_eq!(ring.snapshot(1)[0], 7, "own segment saw the write");
        assert!(!ring.is_link_broken(1) && !ring.is_link_broken(4));
    }

    #[test]
    fn empty_plan_is_empty_and_arming_it_is_a_noop() {
        let plan = FaultPlan::new(0);
        assert!(plan.is_empty());
        let mut sim = Simulation::new();
        let ring = Ring::with_config(
            &sim.handle(),
            2,
            64,
            CostModel::default(),
            plan.ring_config(),
        );
        plan.arm(&ring);
        let nic = ring.nic(0);
        sim.spawn("w", move |ctx| nic.write_word(ctx, 0, 1));
        sim.run();
        assert_eq!(ring.snapshot(1)[0], 1);
    }
}
