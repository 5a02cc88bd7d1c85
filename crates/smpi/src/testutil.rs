//! Test doubles for exercising the ADI and hybrid layers without a
//! network: a scripted device with an inspectable outbox and a
//! hand-fed inbox, both shared with the test through a probe handle.

use std::collections::VecDeque;
use std::sync::Arc;

use des::ProcCtx;
use parking_lot::Mutex;

use crate::device::DeviceError;

#[derive(Default)]
pub struct ScriptState {
    /// Every frame sent, with its destination.
    pub sent: Vec<(usize, Vec<u8>)>,
    /// Frames the test has queued for delivery (src, frame).
    pub incoming: VecDeque<(usize, Vec<u8>)>,
}

/// Shared view of a [`ScriptedDevice`]'s traffic.
#[derive(Clone)]
pub struct ScriptProbe {
    state: Arc<Mutex<ScriptState>>,
}

impl ScriptProbe {
    /// Queue a frame as if `src` had sent it.
    pub fn feed(&self, src: usize, frame: Vec<u8>) {
        self.state.lock().incoming.push_back((src, frame));
    }

    /// Snapshot of everything sent so far.
    pub fn sent(&self) -> Vec<(usize, Vec<u8>)> {
        self.state.lock().sent.clone()
    }

    /// Number of frames sent so far.
    pub fn sent_count(&self) -> usize {
        self.state.lock().sent.len()
    }
}

/// An in-memory device ([`crate::Device::Scripted`]): sends are
/// recorded, receives are fed by tests.
pub struct ScriptedDevice {
    pub rank: usize,
    pub n: usize,
    pub state: Arc<Mutex<ScriptState>>,
    /// Frame-size limit reported through [`crate::Device::max_frame`].
    pub max_frame: Option<usize>,
    /// When set, every send/mcast fails with this error (nothing is
    /// recorded as sent).
    pub fail_sends: Option<DeviceError>,
}

impl ScriptedDevice {
    pub fn new(rank: usize, n: usize) -> (Self, ScriptProbe) {
        let state = Arc::new(Mutex::new(ScriptState::default()));
        let probe = ScriptProbe {
            state: Arc::clone(&state),
        };
        (
            ScriptedDevice {
                rank,
                n,
                state,
                max_frame: None,
                fail_sends: None,
            },
            probe,
        )
    }

    /// A send or a multicast: one copy of `frame` per target.
    pub fn record(&self, targets: &[usize], frame: &[u8]) -> Result<(), DeviceError> {
        if let Some(e) = self.fail_sends {
            return Err(e);
        }
        let mut s = self.state.lock();
        for &t in targets {
            s.sent.push((t, frame.to_vec()));
        }
        Ok(())
    }
}

/// Run `f` inside a one-process simulation (most ADI unit tests need a
/// `ProcCtx` but no real time structure).
pub(crate) fn with_ctx(f: impl FnOnce(&mut ProcCtx) + Send + 'static) {
    let mut sim = des::Simulation::new();
    sim.spawn("t", f);
    assert!(sim.run().is_clean());
}
