//! The single-threaded load driver around one [`ControlPlane`].
//!
//! The driver submits every intent that is due, then calls
//! [`ControlPlane::process_batch`]. It times each submit and each batch
//! from outside the program and, for every executed intent, records when
//! it was due, when its batch started and when its outcome was published,
//! on a [`Clock`]: wall time less the host's steal from serial driver work
//! (see [`crate::clock`]). In an untraced window it also times the
//! host-speed kernel (see [`crate::calibrate`]) about once a second
//! between batches, with the clock paused, so no recorded time includes
//! the kernel.

use std::sync::Arc;
use std::time::Instant;

use alvc::nfv::{
    ControlPlane, Intent, IntentEffect, IntentId, IntentOutcome, SchedulerMode, TenantQuota,
};
use alvc::topology::DataCenter;

use crate::calibrate::Calibration;
use crate::clock::Clock;
use crate::spans::{SpanStats, DRAIN_EVERY_INTENTS};
use crate::stats::Samples;
use crate::tenants::{Pending, Tenant};
use crate::workloads::peak_rss_mb;

/// Name of the operator tenant.
pub const OPERATOR: &str = "operator";
/// Intents per `process_batch` call at most.
pub const BATCH_SIZE: usize = 64;
/// Seconds of recording between two calibration kernels.
const CALIBRATE_EVERY_S: f64 = 1.0;
/// Outcomes the control plane retains; in-flight intents are polled every
/// batch, long before they could be evicted.
const OUTCOME_RETENTION: usize = 1 << 16;

/// The control plane every intent workload drives: deficit round robin
/// over equal-weight tenants, an operator that drains its whole queue in
/// one turn, no quotas.
pub fn control_plane(dc: &Arc<DataCenter>) -> ControlPlane {
    ControlPlane::builder()
        .batch_size(BATCH_SIZE)
        .scheduler(SchedulerMode::DeficitRoundRobin)
        .default_quota(TenantQuota::unlimited())
        .tenant_quota(OPERATOR, TenantQuota::unlimited().with_weight(1 << 10))
        .outcome_retention(OUTCOME_RETENTION)
        .build(dc.clone())
}

/// One executed intent, as seen from outside the program.
#[derive(Debug, Clone)]
pub struct Executed {
    /// Intent kind label (`deploy_chain`, `teardown_chain`, ...).
    pub kind: &'static str,
    /// Outcome label: `completed`, `rejected` or `failed`.
    pub outcome: &'static str,
    /// Submitted by the operator rather than a tenant.
    pub operator: bool,
    /// Load phase the intent was due in.
    pub phase: usize,
    /// Submit → outcome published, ms.
    pub latency_ms: f64,
    /// Submit → start of the batch that ran it, ms.
    pub queue_wait_ms: f64,
    /// `(affected, serving)` chains, for executed element failures.
    pub recovered: Option<(usize, usize)>,
    /// Outcome publication, seconds after recording started.
    pub done_s: f64,
}

struct InFlight {
    id: IntentId,
    tenant: Option<usize>,
    pending: Option<Pending>,
    kind: &'static str,
    phase: usize,
    /// When the intent was submitted, seconds after recording started.
    due: f64,
}

/// One timed `process_batch` call.
#[derive(Debug, Clone, Copy)]
pub struct Batch {
    /// Wall time of the call, µs.
    pub us: f64,
    /// Intents it executed.
    pub intents: usize,
}

/// The driver state of one run.
pub struct Driver {
    /// The control plane under load.
    pub cp: ControlPlane,
    /// The tenants.
    pub tenants: Vec<Tenant>,
    in_flight: Vec<InFlight>,
    outstanding: Vec<usize>,
    /// Started when recording starts: every recorded time is read on it.
    clock: Clock,
    next_calibration_s: f64,
    /// Host-speed samples; the window adds to them while it records
    /// untraced.
    pub calibration: Calibration,
    /// Whether executed intents and batches are being recorded.
    pub recording: bool,
    /// Phase stamped on intents submitted from now on.
    pub phase: usize,
    /// Executed intents, in execution order (recording only).
    pub executed: Vec<Executed>,
    /// Timed batches (recording only).
    pub batches: Vec<Batch>,
    /// `ControlPlane::submit` wall times, µs (recording only).
    pub submit_us: Samples,
    /// Index of the first batch recorded (the log's batch numbering).
    pub measured_from_batch: u64,
    /// Span aggregates, drained from the flight recorder between batches
    /// while a traced run records.
    pub spans: Option<SpanStats>,
    since_drain: usize,
    /// Executed intents after which the peak RSS is read.
    rss_after_intents: usize,
    /// Peak RSS once [`Driver::start_recording`]'s intent count was
    /// executed, MB.
    pub peak_rss_mb: Option<f64>,
}

impl Driver {
    /// A driver over a fresh control plane.
    pub fn new(cp: ControlPlane, tenants: Vec<Tenant>) -> Driver {
        let n = tenants.len();
        Driver {
            cp,
            tenants,
            in_flight: Vec::new(),
            outstanding: vec![0; n],
            clock: Clock::start(),
            next_calibration_s: 0.0,
            calibration: Calibration::default(),
            recording: false,
            phase: 0,
            executed: Vec::new(),
            batches: Vec::new(),
            submit_us: Samples::new(),
            measured_from_batch: 0,
            spans: None,
            since_drain: 0,
            rss_after_intents: 0,
            peak_rss_mb: None,
        }
    }

    /// Submits one intent; it is due now.
    pub fn submit(&mut self, tenant: Option<usize>, intent: Intent, pending: Option<Pending>) {
        let kind = intent.kind().label();
        let name = tenant.map_or(OPERATOR, |t| self.tenants[t].name.as_str());
        let due = self.now();
        let id = self.cp.submit(name, intent);
        if self.recording {
            self.submit_us.push((self.now() - due) * 1e6);
        }
        if let Some(t) = tenant {
            self.outstanding[t] += 1;
        }
        self.in_flight.push(InFlight {
            id,
            tenant,
            pending,
            kind,
            phase: self.phase,
            due,
        });
    }

    /// Runs one batch and settles every intent it executed. Returns the
    /// number executed.
    pub fn run_batch(&mut self) -> usize {
        let start = self.clock.settle();
        let n = self.cp.process_batch();
        let end = self.clock.settle();
        if n == 0 {
            return 0;
        }
        if self.recording {
            self.batches.push(Batch {
                us: (end - start) * 1e6,
                intents: n,
            });
        }
        let mut settled = 0;
        let mut i = 0;
        while i < self.in_flight.len() {
            let Some(outcome) = self.cp.outcome(self.in_flight[i].id) else {
                i += 1;
                continue;
            };
            let f = self.in_flight.swap_remove(i);
            settled += 1;
            if let Some(t) = f.tenant {
                self.outstanding[t] -= 1;
                if let Some(p) = f.pending {
                    self.tenants[t].settle(p, &outcome);
                }
            }
            if self.recording {
                let recovered = match &outcome {
                    IntentOutcome::Completed(IntentEffect::Recovered { affected, serving }) => {
                        Some((*affected, *serving))
                    }
                    _ => None,
                };
                self.executed.push(Executed {
                    kind: f.kind,
                    outcome: outcome.label(),
                    operator: f.tenant.is_none(),
                    phase: f.phase,
                    latency_ms: (end - f.due).max(0.0) * 1e3,
                    queue_wait_ms: (start - f.due).max(0.0) * 1e3,
                    recovered,
                    done_s: end,
                });
            }
        }
        assert_eq!(settled, n, "every executed intent is in flight");
        if self.recording
            && self.peak_rss_mb.is_none()
            && self.executed.len() >= self.rss_after_intents
        {
            self.peak_rss_mb = Some(peak_rss_mb());
        }
        if self.recording && self.spans.is_none() && end >= self.next_calibration_s {
            let calibration = &mut self.calibration;
            self.clock.pause(|| calibration.once());
            self.next_calibration_s = end + CALIBRATE_EVERY_S;
        }
        if let Some(spans) = self.spans.as_mut() {
            self.since_drain += n;
            if self.since_drain >= DRAIN_EVERY_INTENTS {
                spans.drain();
                self.since_drain = 0;
            }
        }
        n
    }

    /// Tops every tenant up to `outstanding` intents in flight.
    pub fn top_up(&mut self, outstanding: usize) {
        for t in 0..self.tenants.len() {
            while self.outstanding[t] < outstanding {
                let Some((intent, pending)) = self.tenants[t].next_intent() else {
                    // Every chain is busy: the tenant waits for an outcome.
                    break;
                };
                self.submit(Some(t), intent, Some(pending));
            }
        }
    }

    /// Deploys chains for every tenant until each sits at its live-chain
    /// cap (the prefill to steady occupancy; not recorded).
    pub fn prefill(&mut self) {
        loop {
            let mut any = false;
            for t in 0..self.tenants.len() {
                if self.tenants[t].below_cap() {
                    let (intent, pending) = self.tenants[t].deploy_intent();
                    self.submit(Some(t), intent, Some(pending));
                    any = true;
                }
            }
            if !any {
                break;
            }
            self.drain();
        }
    }

    /// Closed loop until `until`: each tenant keeps `outstanding` intents
    /// in flight.
    pub fn closed_loop(&mut self, outstanding: usize, until: Instant) {
        while Instant::now() < until {
            self.top_up(outstanding);
            self.run_batch();
        }
    }

    /// Starts recording: executed intents, batches and submit times from
    /// now on are kept, and with `traced` the program's spans too. The peak
    /// RSS is read once `rss_after_intents` intents were executed: a
    /// fixed amount of work, so a faster program, which logs more intents
    /// in the window, does not read as a bigger one.
    pub fn start_recording(&mut self, traced: bool, rss_after_intents: usize) {
        self.recording = true;
        self.rss_after_intents = rss_after_intents;
        self.peak_rss_mb = None;
        self.clock = Clock::start();
        self.next_calibration_s = CALIBRATE_EVERY_S;
        self.measured_from_batch = self.cp.view().version;
        if traced {
            self.spans = Some(SpanStats::start());
        }
    }

    /// Clock seconds since recording started.
    pub fn now(&self) -> f64 {
        self.clock.now()
    }

    /// Seconds of steal and calibration taken off the clock since
    /// recording started.
    pub fn removed_s(&self) -> f64 {
        self.clock.removed_s()
    }

    /// Stops recording; returns the span aggregates of a traced run.
    pub fn stop_recording(&mut self) -> Option<SpanStats> {
        self.recording = false;
        let mut spans = self.spans.take()?;
        spans.stop();
        Some(spans)
    }

    /// Runs batches until the queue is empty.
    pub fn drain(&mut self) {
        while self.run_batch() > 0 {}
    }
}
