//! The benchmark's contract as data: workload names, and every metric's
//! name, unit, direction and regression bound. `--list` prints it,
//! `compare` applies it, and a test holds `BENCHMARK.json` to it.

use crate::drivers::LADDER;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    RingStorm,
    BbpPingpong,
    MpiPingpong,
    MpiCollectives,
    ServingMixed,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::RingStorm,
        Workload::BbpPingpong,
        Workload::MpiPingpong,
        Workload::MpiCollectives,
        Workload::ServingMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::RingStorm => "ring_storm",
            Workload::BbpPingpong => "bbp_pingpong",
            Workload::MpiPingpong => "mpi_pingpong",
            Workload::MpiCollectives => "mpi_collectives",
            Workload::ServingMixed => "serving_mixed",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists: which layers do the work, and which
    /// mechanism it bypasses.
    pub fn why(self) -> &'static str {
        match self {
            Workload::RingStorm => "16-node ring driven from event context: des queue + scramnet replication do all the work, zero simulated processes, so the thread hand-off is bypassed",
            Workload::BbpPingpong => "BbpEndpoint send/recv ping-pong over 0-1024 B: bbp polling over NIC PIO through des processes, smpi absent; carries the BBP anchors",
            Workload::MpiPingpong => "the same ping-pong through smpi send/recv: identical lower layers plus ADI matching, so the difference to bbp_pingpong isolates smpi",
            Workload::MpiCollectives => "native-multicast bcast+barrier on 4 and 16 ranks: one result waits on up to 16 parallel parts, so the slowest process and many-thread hand-off show",
            Workload::ServingMixed => "a campaign cell at load x1 and x4: rpc queues, credits and the shed path, an smpi sidecar, telemetry and the health judge; many small messages on many channels",
        }
    }
}

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen;
    /// end-to-end metrics only.
    pub bound: Option<f64>,
    /// Read from the simulation, not from the host clock: repeats
    /// exactly for one seed.
    pub exact: bool,
}

fn m(name: &str, unit: &'static str, better: Better, exact: bool) -> Metric {
    Metric {
        name: name.to_string(),
        unit,
        better,
        bound: None,
        exact,
    }
}

/// Units: `sim_us` is simulated microseconds, set apart from host `us`
/// because it repeats exactly; `share` is a fraction of 1.
pub fn end_to_end() -> Vec<Metric> {
    use Better::{Higher, Lower};
    let e = |name: &str, unit, better, bound, exact| Metric {
        bound: Some(bound),
        ..m(name, unit, better, exact)
    };
    vec![
        e("ops_per_host_s", "1/s", Higher, 0.20, false),
        e("sim_us_per_op", "sim_us", Lower, 0.20, true),
        e("anchor_dev_max_pct", "pct", Lower, 0.03, true),
        e("served_ops_share", "share", Higher, 0.20, true),
        e("setup_s", "s", Lower, 0.25, false),
        e("peak_rss_mb", "MB", Lower, 0.15, false),
    ]
}

pub fn per_layer() -> Vec<Metric> {
    use Better::{Higher, Lower};
    let mut v = vec![
        // des
        m("des.dispatches", "count", Lower, true),
        m("des.dispatches_per_op", "count", Lower, true),
        m("des.peak_queue_depth", "count", Lower, true),
        m("des.proc_threads", "count", Lower, true),
        m("des.host_ns_per_dispatch", "ns", Lower, false),
        m("des.sim_us_per_host_s", "sim_us/s", Higher, false),
        m("des.chain_ns_per_dispatch", "ns", Lower, false),
        m("des.cost_x_chain", "x", Lower, false),
        m("des.proc_handoff_ns", "ns", Lower, false),
        m("des.ctx_switches_per_dispatch", "count", Lower, false),
        // scramnet
        m("scramnet.injections", "count", Lower, true),
        m("scramnet.words_carried", "count", Lower, true),
        m("scramnet.pio_reads", "count", Lower, true),
        m("scramnet.pio_writes", "count", Lower, true),
        m("scramnet.bit_errors", "count", Lower, true),
        m("scramnet.link_util", "share", Lower, true),
        m("scramnet.hop_applies_per_host_s", "1/s", Higher, false),
        m("scramnet.pio_read_host_ns", "ns", Lower, false),
        m("scramnet.pio_write_host_ns", "ns", Lower, false),
        // bbp
        m("bbp.sends", "count", Lower, true),
        m("bbp.recvs", "count", Lower, true),
        m("bbp.mcasts", "count", Lower, true),
        m("bbp.polls", "count", Lower, true),
        m("bbp.recvs_per_poll", "share", Higher, true),
        m("bbp.gc_sweeps", "count", Lower, true),
        m("bbp.send_stalls", "count", Lower, true),
        m("bbp.retries", "count", Lower, true),
        m("bbp.send_host_us_p50", "us", Lower, false),
        m("bbp.send_host_us_p99", "us", Lower, false),
        m("bbp.recv_host_us_p50", "us", Lower, false),
        m("bbp.recv_host_us_p99", "us", Lower, false),
        m("bbp.send_sim_us", "sim_us", Lower, true),
        m("bbp.recv_sim_us", "sim_us", Lower, true),
    ];
    for len in LADDER {
        v.push(m(
            &format!("bbp.one_way_sim_us.{len}"),
            "sim_us",
            Lower,
            true,
        ));
    }
    for len in LADDER {
        v.push(m(&format!("bbp.host_us_per_rt.{len}"), "us", Lower, false));
    }
    // smpi
    for call in ["send", "recv"] {
        v.push(m(&format!("smpi.{call}_host_us_p50"), "us", Lower, false));
        v.push(m(&format!("smpi.{call}_host_us_p99"), "us", Lower, false));
    }
    for call in ["bcast", "barrier"] {
        for ranks in COLLECTIVE_RANKS {
            let name = format!("smpi.{call}_host_us_p50.{ranks}");
            v.push(m(&name, "us", Lower, false));
        }
    }
    for len in LADDER {
        v.push(m(
            &format!("smpi.one_way_sim_us.{len}"),
            "sim_us",
            Lower,
            true,
        ));
    }
    for call in ["bcast", "barrier"] {
        for ranks in COLLECTIVE_RANKS {
            v.push(m(
                &format!("smpi.{call}_sim_us.{ranks}"),
                "sim_us",
                Lower,
                true,
            ));
        }
    }
    v.push(m("smpi.layering_sim_us", "sim_us", Lower, true));
    for len in DIFFERENCED {
        v.push(m(
            &format!("smpi.host_self_us_per_rt.{len}"),
            "us",
            Lower,
            false,
        ));
    }
    v.extend([
        // rpc
        m("rpc.sent", "count", Higher, true),
        m("rpc.completed", "count", Higher, true),
        m("rpc.shed", "count", Lower, true),
        m("rpc.transport_shed", "count", Lower, true),
        m("rpc.undrained", "count", Lower, true),
        m("rpc.max_residency", "count", Lower, true),
        m("rpc.sim_goodput_per_s", "1/s", Higher, true),
        m("rpc.sim_service_p50_us", "sim_us", Lower, true),
        m("rpc.sim_service_p99_us", "sim_us", Lower, true),
        m("rpc.sim_service_p999_us", "sim_us", Lower, true),
        m("rpc.sim_residency_p99_us", "sim_us", Lower, true),
        m("rpc.host_us_per_rpc", "us", Lower, false),
        // workload
        m("workload.cells_per_host_s", "1/s", Higher, false),
        m("workload.violations", "count", Lower, true),
        m("workload.health_violations", "count", Lower, true),
        m("workload.pingpong_rounds", "count", Higher, true),
        // obs
        m("obs.log_overhead_ratio", "x", Lower, false),
        m("obs.telemetry_overhead_ratio", "x", Lower, false),
        m("obs.both_overhead_ratio", "x", Lower, false),
        m("obs.events_recorded", "count", Lower, true),
    ]);
    for layer in OBS_LAYERS {
        v.push(m(
            &format!("obs.sim_self_us.{layer}"),
            "sim_us",
            Lower,
            true,
        ));
    }
    v.extend([
        // the benchmark itself
        m("bench.trace_overhead_ratio", "x", Lower, false),
        m("bench.host_cpu", "count", Lower, false),
        m("bench.loadavg", "count", Lower, false),
    ]);
    v
}

/// Rank counts of the two `mpi_collectives` legs.
pub const COLLECTIVE_RANKS: [usize; 2] = [4, 16];
/// Sizes at which `mpi_pingpong` minus `bbp_pingpong` host time is taken.
pub const DIFFERENCED: [usize; 2] = [4, 256];
/// `obs::Layer` names whose simulated self time is reported.
pub const OBS_LAYERS: [&str; 8] = [
    "mpi", "adi", "channel", "device", "bbp", "nic", "ring", "rpc",
];

/// `--list`: every workload and metric with unit, direction and bound.
pub fn list() -> String {
    let mut out = String::from("workloads:\n");
    for w in Workload::ALL {
        out.push_str(&format!("  {:<16} {}\n", w.name(), w.why()));
    }
    out.push_str("end-to-end metrics (per workload, untraced pass):\n");
    for e in end_to_end() {
        out.push_str(&format!(
            "  {:<34} {:<9} better {:<6} bound {:.0}%{}\n",
            e.name,
            e.unit,
            e.better.as_str(),
            e.bound.unwrap_or(0.0) * 100.0,
            if e.exact { "  exact" } else { "" },
        ));
    }
    out.push_str("per-layer metrics (traced pass, no bound):\n");
    for p in per_layer() {
        out.push_str(&format!(
            "  {:<34} {:<9} better {:<6}{}\n",
            p.name,
            p.unit,
            p.better.as_str(),
            if p.exact { "  exact" } else { "" },
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Json};
    use std::collections::BTreeSet;

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
    }

    #[test]
    fn names_are_well_formed_unique_and_within_the_count_limits() {
        let names: Vec<String> = Workload::ALL
            .iter()
            .map(|w| w.name().to_string())
            .chain(end_to_end().into_iter().map(|e| e.name))
            .chain(per_layer().into_iter().map(|p| p.name))
            .collect();
        for n in &names {
            assert!(well_formed(n), "bad name {n:?}");
        }
        let unique: BTreeSet<&String> = names.iter().collect();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        assert!((2..=8).contains(&Workload::ALL.len()));
        assert!((1..=16).contains(&end_to_end().len()));
        assert!((1..=128).contains(&per_layer().len()));
        for w in Workload::ALL {
            assert!(w.why().len() <= 200 && !w.why().contains('\n'));
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
    }

    #[test]
    fn bounds_are_shares_of_at_most_a_quarter_and_setup_has_the_largest() {
        let e2e = end_to_end();
        let setup = e2e.iter().find(|e| e.name == "setup_s").expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        for e in &e2e {
            let b = e.bound.expect("every end-to-end metric has a bound");
            assert!(b > 0.0 && b <= 0.25 && b <= setup.bound.unwrap());
        }
        assert!(per_layer().iter().all(|p| p.bound.is_none()));
    }

    #[test]
    fn benchmark_json_states_this_spec() {
        let doc = json::parse(include_str!("../../BENCHMARK.json")).expect("valid JSON");
        let rows = |key: &str| doc.get(key).and_then(Json::as_arr).expect("array").to_vec();
        let text = |row: &Json, key: &str| {
            row.get(key)
                .and_then(Json::as_str)
                .expect("string")
                .to_string()
        };

        let workloads: Vec<(String, String)> = rows("workloads")
            .iter()
            .map(|r| (text(r, "name"), text(r, "why")))
            .collect();
        let expected: Vec<(String, String)> = Workload::ALL
            .iter()
            .map(|w| (w.name().to_string(), w.why().to_string()))
            .collect();
        assert_eq!(workloads, expected);

        let e2e: Vec<(String, String, String, f64)> = rows("end_to_end")
            .iter()
            .map(|r| {
                let bound = r.get("bound").and_then(Json::as_f64).expect("bound");
                (text(r, "name"), text(r, "unit"), text(r, "better"), bound)
            })
            .collect();
        let expected: Vec<(String, String, String, f64)> = end_to_end()
            .into_iter()
            .map(|e| {
                let better = e.better.as_str().to_string();
                (e.name, e.unit.to_string(), better, e.bound.unwrap())
            })
            .collect();
        assert_eq!(e2e, expected);

        let layers: Vec<(String, String, String)> = rows("per_layer")
            .iter()
            .map(|r| (text(r, "name"), text(r, "unit"), text(r, "better")))
            .collect();
        let expected: Vec<(String, String, String)> = per_layer()
            .into_iter()
            .map(|p| (p.name, p.unit.to_string(), p.better.as_str().to_string()))
            .collect();
        assert_eq!(layers, expected);

        assert_eq!(rows("paths"), [json::string("benchmark")]);
        let seconds = doc
            .get("run_seconds")
            .and_then(Json::as_f64)
            .expect("number");
        assert!((1.0..=60.0).contains(&seconds) && seconds == seconds.trunc());
    }
}
