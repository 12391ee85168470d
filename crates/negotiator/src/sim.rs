//! The NegotiaToR epoch engine: a deterministic, slot-synchronous
//! packet-level simulator of the full architecture (§3).
//!
//! One call to [`NegotiatorSim::run`] plays a flow trace through the
//! two-phase epochs of Figure 2:
//!
//! * **Epoch start** — the three pipelined scheduling steps (Figure 4):
//!   ACCEPT consumes the grants delivered during the previous epoch and
//!   fixes this epoch's scheduled-phase matching; GRANT consumes the
//!   requests delivered during the previous epoch; REQUEST reads the
//!   per-destination queues. Each step's outgoing messages ride this
//!   epoch's predefined phase and are consumed one epoch later, giving the
//!   ≈2-epoch scheduling delay of §3.3.1.
//! * **Predefined phase** — round-robin all-to-all timeslots carrying
//!   scheduling messages, dummy/feedback messages (fault detection,
//!   §3.6.1) and one piggybacked data packet per connected pair (§3.4.1).
//! * **Scheduled phase** — the accepted matches transmit packets from the
//!   per-destination queues until the epoch ends or the queues empty.
//!
//! Collisions are impossible by construction (GRANT serializes each ingress
//! port, ACCEPT each egress port); integration tests assert this against
//! `topology::validate_matching` anyway.
//!
//! The hot path is allocation-free in steady state and does no dead-slot
//! scanning: ACCEPT builds a dense active-match list the scheduled phase
//! iterates, the predefined pattern comes from a cached table
//! ([`topology::PredefinedCache`]), scheduling messages deliver through
//! per-pair indexed buckets, and every per-epoch buffer lives in a
//! reused scratch struct (see README § Performance). All of it is
//! bit-exact against the straightforward loops it replaced —
//! `tests/golden_report.rs` holds the engine to committed golden reports.
//!
//! The engine also hosts the Appendix A.2 design variants via
//! [`SchedulerMode`] and [`SimOptions::selective_relay`] — only the
//! scheduling logic changes, never the data path, mirroring the paper's
//! methodology. Two deliberate simulation simplifications: flows are
//! injected at timeslot granularity (the paper's packet simulator injects
//! continuously; a timeslot is 60–90 ns), and the stateful variant's
//! accept-feedback reaches the demand matrix one epoch early (the revert
//! path is exercised identically).

use crate::config::NegotiatorConfig;
use crate::fault::FaultDetector;
use crate::matching::{Accept, AcceptArbiter, Grant, GrantArbiter};
use crate::queues::DestQueue;
use crate::stats::SchedStats;
use crate::variants::greedy;
use crate::variants::informative;
use crate::variants::iterative::IterativeMatcher;
use crate::variants::projector;
use crate::variants::relay::{self, RelayBuffer, RelayPolicy, RelayRequest};
use crate::variants::stateful::DemandMatrix;
use metrics::{
    trace::{FlightRecorder, FlowSpans, TraceCursor},
    FlowTracker, MatchRatioRecorder, PhaseCounters, PhaseProbe, RunReport,
};
use sim::time::Nanos;
use sim::{BandwidthSeries, Xoshiro256};
use std::collections::VecDeque;
use topology::{
    AnyTopology, FailureSchedule, FaultModel, LinkFailures, PredefinedCache, Topology, TopologyKind,
};
use workload::FlowTrace;

pub use topology::failures::FailureAction;
pub use topology::inject::FaultAction;

mod parallel;

/// Which scheduling logic runs on top of the common data path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SchedulerMode {
    /// NegotiaToR Matching as published (§3.2).
    Base,
    /// Appendix A.2.1: iterative matching with `rounds` request/grant/accept
    /// rounds; each extra round delays activation by three epochs.
    Iterative {
        /// Number of matching rounds (1 = equivalent delay to `Base`).
        rounds: usize,
    },
    /// Appendix A.2.3, goodput-oriented: requests carry queue sizes.
    DataSize,
    /// Appendix A.2.3, FCT-oriented: requests carry weighted HoL delays.
    HolDelay {
        /// Mice/elephant weighting (paper's best: 0.001).
        alpha: f64,
    },
    /// Appendix A.2.4: destinations keep demand matrices.
    Stateful,
    /// Appendix A.2.5: ProjecToR-style per-port, delay-prioritized requests.
    Projector,
}

/// Engine options beyond the paper-default configuration.
#[derive(Debug, Clone)]
pub struct SimOptions {
    /// Scheduling logic.
    pub mode: SchedulerMode,
    /// Traffic-aware selective relay (thin-clos only, Appendix A.2.2).
    pub selective_relay: bool,
    /// Record per-destination receive-bandwidth series with this window
    /// (Appendix A.3 micro-observations); `None` disables.
    pub rx_window: Option<Nanos>,
    /// Record the network-wide delivery series with this window
    /// (fault-tolerance bandwidth plots); `None` disables.
    pub total_rx_window: Option<Nanos>,
    /// §3.6.5 receiver-side traffic management: model the ToR→host
    /// downlink with a bounded receive buffer of this many bytes. The
    /// buffer drains at the host-aggregate rate; while it is more than
    /// half full the ToR withholds grants (backpressure), so fabric
    /// speedup cannot overrun ToR memory. `None` (the paper's evaluation
    /// setting) treats ToRs as sinks.
    pub host_buffer_bytes: Option<u64>,
    /// Intra-run worker threads for the per-ToR phase work (`--workers`):
    /// ACCEPT, GRANT, REQUEST and both data phases, in healthy and
    /// failure epochs alike. ToRs are partitioned into contiguous shards
    /// (`sim::shard`) and shard results merge in fixed shard order, so
    /// any value — including the default `1`, a single shard on the
    /// caller's thread — produces byte-identical reports. Selective-relay
    /// runs ignore the knob and use one shard: relay admission is
    /// order-dependent across ToRs, and a relay transmission enqueues at
    /// the intermediate ToR mid-phase (see `sim/parallel.rs`).
    pub workers: usize,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            mode: SchedulerMode::Base,
            selective_relay: false,
            rx_window: None,
            total_rx_window: None,
            host_buffer_bytes: None,
            workers: 1,
        }
    }
}

/// A request as seen by the destination after the predefined phase.
#[derive(Debug, Clone, Copy)]
struct ReqIn {
    src: usize,
    /// Mode-specific priority value (bytes, weighted delay, new bytes…).
    value: f64,
    /// Pre-bound port for `Projector`; `usize::MAX` otherwise.
    port: usize,
}

/// Per-pair outgoing-message presence bits (`msg_flags`): the predefined
/// phase reads one byte per connection instead of probing the request
/// array and three bucket vectors.
const REQ_FLAG: u8 = 1;
const GRANT_FLAG: u8 = 2;
const RELAY_REQ_FLAG: u8 = 4;
const RELAY_GRANT_FLAG: u8 = 8;

/// One entry of the per-epoch active-transmission list: a `(src, port)`
/// slot that will transmit during the scheduled phase. Direct matches
/// carry their destination; relay slots are looked up in `active_relay`
/// (their remaining volume mutates mid-phase).
#[derive(Debug, Clone, Copy)]
struct ActiveTx {
    /// `src * n_ports + port`.
    slot: u32,
    /// Destination ToR for direct matches (unused for relay slots).
    dst: u32,
    /// True when the slot carries a relay grant instead of a match.
    relay: bool,
}

/// Reusable per-epoch buffers: every `Vec` the scheduling steps used to
/// allocate afresh each epoch lives here instead, cleared and reused so
/// steady-state epochs allocate nothing per pair or per packet.
#[derive(Debug, Default)]
struct SimScratch {
    /// Swapped against `inbox.grants[src]` in ACCEPT.
    grants_in: Vec<(Grant, u64)>,
    /// Grant messages stripped of their stateful debit.
    grants: Vec<Grant>,
    /// ACCEPT output.
    accepts: Vec<Accept>,
    /// Swapped against `inbox.requests[dst]` in GRANT.
    reqs: Vec<ReqIn>,
    /// Requesting sources (base/stateful GRANT input).
    srcs: Vec<usize>,
    /// GRANT output pairs.
    grant_pairs: Vec<(usize, usize)>,
    /// Mutable request values (informative GRANT).
    vals: Vec<(usize, f64)>,
    /// Per-port usable subset of `vals`.
    usable_vals: Vec<(usize, f64)>,
    /// Projector port requests.
    preqs: Vec<projector::PortRequest>,
    /// Swapped against `inbox.relay_req[via]`.
    relay_reqs: Vec<RelayRequest>,
    /// Swapped against `inbox.relay_grant[src]`.
    relay_grants: Vec<(usize, usize, usize, u64)>,
}

/// This epoch's outgoing scheduling messages, indexed `src * n + dst`
/// unless noted. Grants and relay messages are bucketed per pair, so the
/// predefined phase delivers each connection's messages in O(messages)
/// instead of scanning the sender's whole outbox.
struct Outboxes {
    req: Vec<f64>,                          // live iff REQ_FLAG set
    req_port: Vec<usize>,                   // projector port binding
    grants: Vec<Vec<(u32, u64)>>,           // granter * n + requester: (port, debit)
    relay_req: Vec<Vec<RelayRequest>>,      // src * n + via (relay only)
    relay_grant: Vec<Vec<(u32, u32, u64)>>, // via * n + src: (port, final, vol) (relay only)
}

/// Scheduling messages delivered by the predefined phase, consumed at
/// the next epoch start; one inbox per receiving ToR.
struct Inboxes {
    requests: Vec<Vec<ReqIn>>,
    grants: Vec<Vec<(Grant, u64)>>, // (grant, stateful debit)
    relay_req: Vec<Vec<RelayRequest>>,
    relay_grant: Vec<Vec<(usize, usize, usize, u64)>>, // (via, port, final, vol)
}

impl Inboxes {
    /// Move this epoch's scheduling messages across one predefined
    /// connection `src → dst`: an O(messages) indexed delivery of what
    /// `flags` marks — the request slot plus the pair's grant/relay
    /// buckets, no scanning.
    fn deliver(&mut self, out: &Outboxes, n: usize, src: usize, dst: usize, flags: u8) {
        let idx = src * n + dst;
        if flags & REQ_FLAG != 0 {
            self.requests[dst].push(ReqIn {
                src,
                value: out.req[idx],
                port: out.req_port[idx],
            });
        }
        // Grants computed by `src` for requester `dst` ride this connection.
        if flags & GRANT_FLAG != 0 {
            for &(port, debit) in &out.grants[idx] {
                let grant = Grant {
                    dst: src,
                    port: port as usize,
                };
                self.grants[dst].push((grant, debit));
            }
        }
        if flags & RELAY_REQ_FLAG != 0 {
            self.relay_req[dst].extend_from_slice(&out.relay_req[idx]);
        }
        if flags & RELAY_GRANT_FLAG != 0 {
            for &(port, final_dst, vol) in &out.relay_grant[idx] {
                self.relay_grant[dst].push((src, port as usize, final_dst as usize, vol));
            }
        }
    }
}

/// The receive side of every ToR: what a data delivery writes besides
/// the flow tracker.
struct Receivers {
    /// §3.6.5 receive buffers (empty unless `host_buffer_bytes` is set).
    buffer: Vec<u64>,
    /// Per-destination bandwidth series (empty unless `rx_window` is set).
    series: Vec<BandwidthSeries>,
    /// Network-wide delivery series (`total_rx_window`).
    total: Option<BandwidthSeries>,
}

impl Receivers {
    fn deliver(&mut self, tracker: &mut FlowTracker, dst: usize, flow: u64, bytes: u64, at: Nanos) {
        if let Some(b) = self.buffer.get_mut(dst) {
            *b += bytes;
        }
        tracker.deliver(flow, bytes, at);
        if let Some(series) = self.series.get_mut(dst) {
            series.record(at, bytes);
        }
        if let Some(total) = self.total.as_mut() {
            total.record(at, bytes);
        }
    }
}

/// The data held per source ToR, row-major `src * n + dst` unless
/// noted: the per-destination queues and the mirrors every enqueue and
/// dequeue keeps in step. Both data phases shard it by source row
/// (`parallel::SrcRows`), which is also the one flow-injection path.
struct DataState {
    n: usize,
    s: usize,
    /// PIAS priority queues on, and their byte thresholds.
    pias: bool,
    pias_th: [u64; 2],
    queues: Vec<DestQueue>,
    /// Dense mirror of every queue's total bytes: the REQUEST scan and
    /// the piggyback probe read this contiguous array instead of the
    /// queue structs.
    queue_bytes: Vec<u64>,
    /// Lifetime enqueued bytes (stateful requests report the growth).
    enqueued_total: Vec<u64>,
    /// One per ToR (selective relay's forwarding buffers).
    relay_buffers: Vec<RelayBuffer>,
    /// Per-port direct-backlog sums (selective relay only), `tor * s +
    /// port`, so the relay steps' busy-port checks are O(1), not O(n).
    backlog_by_port: Vec<u64>,
    /// Thin-clos pair port of `(src, dst)` (selective relay only).
    pair_port_tbl: Vec<u8>,
}

/// The full NegotiaToR simulator.
pub struct NegotiatorSim {
    cfg: NegotiatorConfig,
    topo: AnyTopology,
    opts: SimOptions,

    // Derived constants.
    n: usize,
    s: usize,
    pre_slots: usize,
    pre_slot_len: Nanos,
    epoch_len: Nanos,
    pb_payload: u64,
    sched_payload: u64,
    /// Bytes one port can move in one scheduled phase (grant debit unit).
    epoch_capacity: u64,

    // Per-ToR state.
    data: DataState,
    grant_arbs: Vec<GrantArbiter>,
    accept_arbs: Vec<AcceptArbiter>,

    // Pipeline outboxes (filled at epoch start, drained by the predefined
    // phase) and inboxes (filled by the predefined phase, consumed next
    // epoch start).
    out: Outboxes,
    inbox: Inboxes,
    req_dirty: Vec<u32>,        // indices with REQ_FLAG set this epoch
    msg_flags: Vec<u8>,         // src * n + dst: REQ/GRANT/RELAY_* presence
    grant_dirty: Vec<u32>,      // non-empty bucket indices, cleared per epoch
    port_granted: Vec<bool>,    // granter * s + port (relay leftover-port check)
    active: Vec<Option<usize>>, // src * s + port -> dst
    /// Dense (src, port)-ordered transmissions of this epoch's scheduled
    /// phase — what the phase iterates instead of all `n · s` slots.
    active_list: Vec<ActiveTx>,

    // Cached predefined schedule (built once per topology).
    pre_cache: PredefinedCache,

    // Variant state.
    matrices: Vec<DemandMatrix>, // stateful (empty otherwise)
    reported_total: Vec<u64>,    // stateful: bytes already reported
    iter_pending: VecDeque<Vec<Vec<Accept>>>, // iterative activation queue

    // Selective relay state.
    relay_policy: RelayPolicy,
    relay_req_dirty: Vec<u32>,
    relay_grant_dirty: Vec<u32>,
    active_relay: Vec<Option<(usize, usize, u64)>>, // src*s+port -> (via, final, vol left)

    /// False after the predefined phase took the healthy-fabric fast path
    /// (skipping observation is a detector no-op then).
    observe_pending: bool,

    // Failures: the shared once-sorted, cursor-consumed schedule.
    failures: LinkFailures,
    detector: FaultDetector,
    fail_sched: FailureSchedule,
    // Adversarial fault families (flap / partition / gray / greedy) layered
    // on top of the clean failure schedule.
    faults: FaultModel,
    // Per-epoch predefined-phase observations, `tor * s + port`: `None`
    // if not attempted, else whether any attempt got its dummy through.
    egress_obs: Vec<Option<bool>>,
    ingress_obs: Vec<Option<bool>>,

    // Receive buffers and series; hosts drain the buffers each epoch.
    rx: Receivers,
    host_drain_per_epoch: u64,

    // Metrics.
    tracker: Option<FlowTracker>,
    match_rec: MatchRatioRecorder,
    stats: SchedStats,
    phase_probe: Option<PhaseProbe>,
    /// Flight recorder (`None` = tracing off: one branch per epoch).
    recorder: Option<Box<FlightRecorder>>,
    ran_duration: Nanos,

    // Reusable per-epoch buffers.
    scratch: SimScratch,
    /// Per-shard scratch, lanes and merge cursors of k-shard phases;
    /// untouched while every phase runs on one shard.
    par: parallel::ParState,

    ran: bool,
}

impl NegotiatorSim {
    /// Paper-default simulator over `cfg` on `kind`.
    pub fn new(cfg: NegotiatorConfig, kind: TopologyKind) -> Self {
        Self::with_options(cfg, kind, SimOptions::default())
    }

    /// Simulator with explicit options (variants, recording).
    pub fn with_options(cfg: NegotiatorConfig, kind: TopologyKind, opts: SimOptions) -> Self {
        let topo = AnyTopology::build(kind, cfg.net.clone());
        if opts.selective_relay {
            assert_eq!(
                kind,
                TopologyKind::ThinClos,
                "selective relay targets the thin-clos topology (Appendix A.2.2)"
            );
        }
        let n = cfg.net.n_tors;
        let s = cfg.net.n_ports;
        let pre_slots = topo.predefined_slots();
        let mut rng = Xoshiro256::new(cfg.seed);
        let grant_arbs = (0..n)
            .map(|d| GrantArbiter::new(&topo, d, &mut rng))
            .collect();
        let accept_arbs = (0..n)
            .map(|t| AcceptArbiter::new(&topo, t, &mut rng))
            .collect();
        let sched_payload = cfg.scheduled_payload();
        let epoch_capacity = sched_payload * cfg.epoch.scheduled_slots as u64;
        let stateful = matches!(opts.mode, SchedulerMode::Stateful);
        let selective_relay = opts.selective_relay;
        let pair_port_tbl = if selective_relay {
            let mut tbl = vec![0u8; n * n];
            for src in 0..n {
                for dst in 0..n {
                    if let Some(p) = topo.pair_port(src, dst) {
                        tbl[src * n + dst] = p as u8;
                    }
                }
            }
            tbl
        } else {
            Vec::new()
        };
        let mut sim = NegotiatorSim {
            n,
            s,
            pre_slots,
            pre_slot_len: cfg.epoch.predefined_slot(),
            epoch_len: cfg.epoch.epoch_len(pre_slots),
            pb_payload: cfg.piggyback_payload().max(1),
            sched_payload: sched_payload.max(1),
            epoch_capacity,
            data: DataState {
                n,
                s,
                pias: cfg.priority_queues,
                pias_th: cfg.pias_thresholds(),
                queues: (0..n * n).map(|_| DestQueue::new()).collect(),
                queue_bytes: vec![0; n * n],
                enqueued_total: vec![0; n * n],
                relay_buffers: (0..n).map(|_| RelayBuffer::default()).collect(),
                backlog_by_port: if selective_relay {
                    vec![0; n * s]
                } else {
                    Vec::new()
                },
                pair_port_tbl,
            },
            grant_arbs,
            accept_arbs,
            out: Outboxes {
                req: vec![f64::NAN; n * n],
                req_port: vec![usize::MAX; n * n],
                grants: vec![Vec::new(); n * n],
                relay_req: vec![Vec::new(); if selective_relay { n * n } else { 0 }],
                relay_grant: vec![Vec::new(); if selective_relay { n * n } else { 0 }],
            },
            inbox: Inboxes {
                requests: vec![Vec::new(); n],
                grants: vec![Vec::new(); n],
                relay_req: vec![Vec::new(); n],
                relay_grant: vec![Vec::new(); n],
            },
            req_dirty: Vec::new(),
            msg_flags: vec![0; n * n],
            grant_dirty: Vec::new(),
            port_granted: vec![false; n * s],
            active: vec![None; n * s],
            active_list: Vec::with_capacity(n * s),
            pre_cache: PredefinedCache::build(&topo),
            matrices: if stateful {
                (0..n).map(|_| DemandMatrix::new(n)).collect()
            } else {
                Vec::new()
            },
            reported_total: vec![0; n * n],
            iter_pending: VecDeque::new(),
            relay_policy: RelayPolicy::default_for(epoch_capacity),
            relay_req_dirty: Vec::new(),
            relay_grant_dirty: Vec::new(),
            active_relay: vec![None; n * s],
            observe_pending: true,
            failures: LinkFailures::new(n, s),
            detector: FaultDetector::new(n, s),
            fail_sched: FailureSchedule::new(),
            faults: FaultModel::new(),
            egress_obs: vec![None; n * s],
            ingress_obs: vec![None; n * s],
            rx: Receivers {
                buffer: vec![0; opts.host_buffer_bytes.map_or(0, |_| n)],
                series: match opts.rx_window {
                    Some(w) => (0..n).map(|_| BandwidthSeries::new(w)).collect(),
                    None => Vec::new(),
                },
                total: opts.total_rx_window.map(BandwidthSeries::new),
            },
            host_drain_per_epoch: 0, // finalized below (needs epoch length)
            tracker: None,
            match_rec: MatchRatioRecorder::new(),
            stats: SchedStats::default(),
            phase_probe: None,
            recorder: None,
            ran_duration: 0,
            scratch: SimScratch::default(),
            par: parallel::ParState::default(),

            ran: false,
            cfg,
            topo,
            opts,
        };
        sim.host_drain_per_epoch = sim.cfg.net.host_bandwidth.bytes_in(sim.epoch_len);
        sim
    }

    /// Epoch length in ns for this configuration/topology.
    pub fn epoch_len(&self) -> Nanos {
        self.epoch_len
    }

    /// Shard count for the epoch phases. Every phase has one
    /// implementation: with one shard its body writes through a direct
    /// sink in place; with k shards each body writes to a lane that
    /// replays in one-shard order (`sim/parallel.rs`), so any count gives
    /// the same bytes. Selective relay pins the run to one shard: relay
    /// admission reads claims left by lower-numbered ToRs in the same
    /// step, so its visit order is semantic, not an artifact, and the
    /// scheduled body's relay transmissions write the intermediate ToR's
    /// queue rows, which only a shard owning every row may do. The clamp
    /// depends only on options fixed at construction, never on data.
    fn par_workers(&self) -> usize {
        if self.opts.selective_relay {
            1
        } else {
            self.opts.workers.max(1)
        }
    }

    /// Schedule a link-state change at absolute time `at` (see
    /// [`topology::FailureSchedule`] for the ordering rules).
    pub fn schedule_failure(&mut self, at: Nanos, action: FailureAction) {
        self.fail_sched.schedule(at, action);
    }

    /// Schedule an adversarial fault action at absolute time `at` (see
    /// [`topology::FaultModel`] for the families and ordering rules).
    pub fn schedule_fault(&mut self, at: Nanos, action: FaultAction) {
        self.faults.schedule(at, action);
    }

    /// Attach a phase-boundary probe; its snapshots are readable via
    /// [`Self::phase_probe`] after the run.
    pub fn set_phase_probe(&mut self, probe: PhaseProbe) {
        self.phase_probe = Some(probe);
    }

    /// The phase probe, once attached (complete after [`Self::run`]).
    pub fn phase_probe(&self) -> Option<&PhaseProbe> {
        self.phase_probe.as_ref()
    }

    /// Attach a flight recorder; the run then emits epoch-stamped trace
    /// events from the sequential top of the epoch loop, where parallel
    /// shards have already merged — so the trace is byte-identical at any
    /// worker count. Off (the default) costs one branch per epoch.
    pub fn set_recorder(&mut self, recorder: FlightRecorder) {
        self.recorder = Some(Box::new(recorder));
    }

    /// The attached flight recorder, if any (complete after [`Self::run`]).
    pub fn recorder(&self) -> Option<&FlightRecorder> {
        self.recorder.as_deref()
    }

    /// Detach and return the flight recorder.
    pub fn take_recorder(&mut self) -> Option<FlightRecorder> {
        self.recorder.take().map(|b| *b)
    }

    /// End-of-epoch flight-recorder emission: flow births, control-plane
    /// deltas, detector transitions, flow-lifecycle span milestones and
    /// per-ToR backlog watermarks. Reads the same merged state the phase
    /// counters read: the dirty lists hold this epoch's REQUEST pairs and
    /// GRANT buckets (k-shard steps concatenate per-lane lists in shard
    /// order, which is the one-shard row order; stamping only needs the
    /// set anyway), and span emission iterates live flows in flow-id
    /// order — which is what keeps span bytes identical at any worker
    /// count. Only called when a recorder is attached; the divergence
    /// scan, the span sweep and the O(n²) backlog row sums are paid only
    /// by traced runs.
    fn trace_epoch(
        &mut self,
        epoch: u64,
        t0: Nanos,
        flows: &[workload::Flow],
        injected: usize,
        spans: &mut FlowSpans,
        tracker: &FlowTracker,
    ) {
        let (fp, fn_) = self.detector_divergence();
        let cursor = TraceCursor {
            requests: self.stats.requests_sent,
            grants: self.stats.grants_issued,
            accepts: self.stats.accepts_made,
            control_dropped: self.stats.control_dropped,
            detector_fp: fp,
            detector_fn: fn_,
        };
        let mut rec = self.recorder.take().expect("caller checked recorder");
        for f in &flows[spans.next_born()..injected] {
            spans.born(
                &mut rec,
                t0,
                epoch,
                f.id as u32,
                f.src as u32,
                f.dst as u32,
                f.bytes,
                f.arrival,
            );
        }
        rec.epoch_counters(t0, epoch, cursor);
        // Stamp this epoch's pair-level control activity. Stamping is
        // idempotent, so the dirty lists' order never matters.
        for &idx in &self.req_dirty {
            let (src, dst) = (idx as usize / self.n, idx as usize % self.n);
            spans.mark_request(src as u32, dst as u32, epoch);
        }
        for &idx in &self.grant_dirty {
            // Buckets are granter * n + requester; the flow pair runs
            // requester → granter.
            let (granter, requester) = (idx as usize / self.n, idx as usize % self.n);
            spans.mark_grant(requester as u32, granter as u32, epoch);
        }
        for tx in &self.active_list {
            // Relay slots forward another pair's traffic; only direct
            // matches are pair-level ACCEPTs.
            if !tx.relay {
                let src = tx.slot as usize / self.s;
                spans.mark_accept(src as u32, tx.dst, epoch);
            }
        }
        spans.sweep(&mut rec, t0, epoch, |id| {
            (tracker.remaining(id as u64), tracker.completion(id as u64))
        });
        for tor in 0..self.n {
            let backlog: u64 = self.data.queue_bytes[tor * self.n..(tor + 1) * self.n]
                .iter()
                .sum();
            rec.backlog_sample(t0, epoch, tor, backlog);
        }
        self.recorder = Some(rec);
    }

    /// Cumulative counters for phase-boundary snapshots.
    fn phase_counters(&self, tracker: &FlowTracker) -> PhaseCounters {
        let (fp, fn_) = self.detector_divergence();
        PhaseCounters {
            delivered_bytes: tracker.delivered_payload(),
            backlog_bytes: self.data.queue_bytes.iter().sum(),
            grants: self.stats.grants_issued,
            accepts: self.stats.accepts_made,
            control_dropped: self.stats.control_dropped,
            detector_fp_links: fp,
            detector_fn_links: fn_,
            partitioned_tors: self.failures.partitioned_tors() as u64,
        }
    }

    /// Directed links where the detector's exclusion set disagrees with
    /// ground truth: `(false positives, false negatives)`. Gray failures
    /// produce false positives (the link is up for data but its dummies
    /// drop); clean failures show up as false negatives until the
    /// two-epoch detection window closes.
    fn detector_divergence(&self) -> (u64, u64) {
        let (mut fp, mut fn_) = (0, 0);
        for tor in 0..self.n {
            for port in 0..self.s {
                for (excluded, down) in [
                    (
                        self.detector.egress_excluded(tor, port),
                        self.failures.egress_down(tor, port),
                    ),
                    (
                        self.detector.ingress_excluded(tor, port),
                        self.failures.ingress_down(tor, port),
                    ),
                ] {
                    match (excluded, down) {
                        (true, false) => fp += 1,
                        (false, true) => fn_ += 1,
                        _ => {}
                    }
                }
            }
        }
        (fp, fn_)
    }

    /// Per-flow tracker of the completed run.
    pub fn tracker(&self) -> &FlowTracker {
        self.tracker.as_ref().expect("call run() first")
    }

    /// Per-epoch match-ratio record of the completed run.
    pub fn match_recorder(&self) -> &MatchRatioRecorder {
        &self.match_rec
    }

    /// Aggregate scheduler counters of the run so far.
    pub fn stats(&self) -> &SchedStats {
        &self.stats
    }

    /// Receive-bandwidth series of ToR `dst` (requires `rx_window`).
    pub fn rx_series(&self, dst: usize) -> Option<&BandwidthSeries> {
        self.rx.series.get(dst)
    }

    /// Network-wide delivery series (requires `total_rx_window`).
    pub fn total_rx(&self) -> Option<&BandwidthSeries> {
        self.rx.total.as_ref()
    }

    /// Build a report restricted to flows where `tags[id]` is true
    /// (Figure 13(a) separates background from incast traffic).
    pub fn report_subset(&self, trace: &FlowTrace, tags: &[bool]) -> RunReport {
        RunReport::build(
            trace,
            self.tracker(),
            self.ran_duration,
            self.n,
            self.cfg.net.host_bandwidth.bps(),
            Some(tags),
        )
    }

    /// Play `trace` for `duration` ns of simulated time and report.
    ///
    /// The engine may stop early once every flow has completed and all
    /// queues are drained; goodput is still normalized over `duration`.
    pub fn run(&mut self, trace: &FlowTrace, duration: Nanos) -> RunReport {
        assert!(
            !self.ran,
            "NegotiatorSim::run is single-shot; build a new sim"
        );
        self.ran = true;
        self.ran_duration = duration;
        let mut tracker = FlowTracker::new(trace);
        let flows = trace.flows();
        let mut cursor = 0usize;
        // Span tracking is sized for the whole trace up front so the
        // per-epoch emission below stays allocation-free.
        let mut spans = self
            .recorder
            .is_some()
            .then(|| FlowSpans::new(self.n, flows.len()));

        let mut epoch: u64 = 0;
        // lint: hot-path
        loop {
            let t0 = epoch * self.epoch_len;
            if t0 >= duration {
                break;
            }
            if self.phase_probe.as_ref().is_some_and(|p| p.due(t0)) {
                let counters = self.phase_counters(&tracker);
                let before = self.phase_probe.as_ref().map_or(0, |p| p.snapshots().len());
                self.phase_probe
                    .as_mut()
                    .expect("probe checked above")
                    .record(t0, counters);
                if let Some(rec) = self.recorder.as_deref_mut() {
                    let after = self.phase_probe.as_ref().map_or(0, |p| p.snapshots().len());
                    for phase in before..after {
                        rec.phase_boundary(t0, epoch, phase as u64, &counters);
                    }
                }
            }
            let fault_mark = match self.recorder.is_some() {
                true => (self.fail_sched.applied(), self.faults.applied()),
                false => (0, 0),
            };
            self.fail_sched.apply_due(t0, &mut self.failures);
            self.faults.epoch_update(t0, &mut self.failures);
            if let Some(rec) = self.recorder.as_deref_mut() {
                let links = (self.fail_sched.applied() - fault_mark.0) as u64;
                let injected = (self.faults.applied() - fault_mark.1) as u64;
                let total = (self.fail_sched.applied() + self.faults.applied()) as u64;
                rec.fault_applied(t0, epoch, injected, links, total);
            }
            cursor = self.inject(flows, cursor, t0);
            self.epoch_start(epoch, t0);
            cursor = self.predefined_phase(flows, cursor, epoch, t0, &mut tracker);
            cursor = self.scheduled_phase(flows, cursor, t0, &mut tracker);
            self.observe_epoch();
            if let Some(spans) = spans.as_mut() {
                self.trace_epoch(epoch, t0, flows, cursor, spans, &tracker);
            }
            epoch += 1;

            // Early exit when nothing is left anywhere.
            if cursor >= flows.len()
                && tracker.completed_count() == flows.len()
                && self.fail_sched.is_drained()
                && self.faults.is_drained()
            {
                break;
            }
        }
        if let Some(mut probe) = self.phase_probe.take() {
            let counters = self.phase_counters(&tracker);
            let before = probe.snapshots().len();
            probe.finish(counters);
            if let Some(rec) = self.recorder.as_deref_mut() {
                // Trailing boundaries the early exit skipped: stamp them
                // into the trace at their nominal times, like the probe.
                for (phase, snap) in probe.snapshots().iter().enumerate().skip(before) {
                    rec.phase_boundary(snap.at, epoch, phase as u64, &counters);
                }
            }
            self.phase_probe = Some(probe);
        }
        self.tracker = Some(tracker);
        RunReport::build(
            trace,
            self.tracker(),
            duration,
            self.n,
            self.cfg.net.host_bandwidth.bps(),
            None,
        )
    }

    // ------------------------------------------------------------------
    // Flow injection and failures
    // ------------------------------------------------------------------

    /// Enqueue every flow that has arrived by `now` (epoch start) through
    /// the source-row code the data phases inject with.
    fn inject(&mut self, flows: &[workload::Flow], mut cursor: usize, now: Nanos) -> usize {
        let all = sim::shard::partition(self.n, 1);
        self.data.split(&all)[0].inject(flows, &mut cursor, now);
        cursor
    }

    /// Debug-build check that the incremental mirrors still equal fresh
    /// sums over the queues they shadow.
    #[cfg(debug_assertions)]
    fn debug_verify_mirrors(&self) {
        for src in 0..self.n {
            for dst in 0..self.n {
                debug_assert_eq!(
                    self.data.queue_bytes[src * self.n + dst],
                    self.data.queues[src * self.n + dst].total_bytes(),
                    "queue-bytes mirror drifted at ({src}, {dst})"
                );
            }
        }
        if self.data.backlog_by_port.is_empty() {
            return;
        }
        for tor in 0..self.n {
            for port in 0..self.s {
                let mut sum = 0;
                for dst in 0..self.n {
                    if dst != tor && self.topo.port_reaches(tor, port, dst) {
                        sum += self.data.queues[tor * self.n + dst].total_bytes();
                    }
                }
                debug_assert_eq!(
                    sum,
                    self.data.backlog_by_port[tor * self.s + port],
                    "backlog cache drifted at tor {tor} port {port}"
                );
            }
        }
    }

    // ------------------------------------------------------------------
    // Epoch-start scheduling (the three pipelined steps)
    // ------------------------------------------------------------------

    fn epoch_start(&mut self, epoch: u64, t0: Nanos) {
        // §3.6.5: hosts drain the receive buffers at the downlink rate.
        if !self.rx.buffer.is_empty() {
            let drain = self.host_drain_per_epoch;
            for b in &mut self.rx.buffer {
                *b = b.saturating_sub(drain);
            }
        }
        #[cfg(debug_assertions)]
        self.debug_verify_mirrors();
        if let SchedulerMode::Iterative { rounds } = self.opts.mode {
            self.epoch_start_iterative(rounds);
            self.rebuild_active_list();
            return;
        }
        self.accept_step();
        self.grant_step(epoch);
        self.request_step(t0);
        if self.opts.selective_relay {
            self.relay_request_step(epoch);
        }
        self.rebuild_active_list();
    }

    /// Collapse `active`/`active_relay` into the dense, (src, port)-ordered
    /// transmission list the scheduled phase iterates — matched slots only,
    /// in exactly the order the old full `n · s` sweep visited them.
    // lint: hot-path
    fn rebuild_active_list(&mut self) {
        self.active_list.clear();
        for slot in 0..self.n * self.s {
            if let Some(dst) = self.active[slot] {
                // lint: allow(H001) pushes into retained capacity — active_list is cleared, never shrunk
                self.active_list.push(ActiveTx {
                    slot: slot as u32,
                    dst: dst as u32,
                    relay: false,
                });
            } else if self.active_relay[slot].is_some() {
                // lint: allow(H001) pushes into retained capacity — active_list is cleared, never shrunk
                self.active_list.push(ActiveTx {
                    slot: slot as u32,
                    dst: 0,
                    relay: true,
                });
            }
        }
    }

    /// Drop every grant bucketed last epoch (touched buckets only).
    fn clear_grant_buckets(&mut self) {
        for &i in &self.grant_dirty {
            self.out.grants[i as usize].clear();
            self.msg_flags[i as usize] &= !GRANT_FLAG;
        }
        self.grant_dirty.clear();
        if self.opts.selective_relay {
            self.port_granted.fill(false);
        }
    }

    /// Iterative mode: compute the whole multi-round match now, activate it
    /// `2 + 3·(rounds−1)` epochs later (Appendix A.2.1's delay model).
    fn epoch_start_iterative(&mut self, rounds: usize) {
        let threshold = self.cfg.request_threshold_bytes();
        let mut requests: Vec<Vec<usize>> = vec![Vec::new(); self.n];
        for (src, row) in self.data.queue_bytes.chunks(self.n).enumerate() {
            for (dst, &bytes) in row.iter().enumerate() {
                if dst != src && bytes > threshold {
                    requests[dst].push(src);
                }
            }
        }
        let matches = IterativeMatcher::compute(
            &self.topo,
            &requests,
            &mut self.grant_arbs,
            &mut self.accept_arbs,
            rounds,
        );
        self.iter_pending.push_back(matches);
        let delay = 2 + IterativeMatcher::extra_delay_epochs(rounds) as usize;
        self.active.fill(None);
        if self.iter_pending.len() > delay {
            let matches = self.iter_pending.pop_front().unwrap();
            for (src, accepts) in matches.iter().enumerate() {
                for a in accepts {
                    self.active[src * self.s + a.port] = Some(a.dst);
                }
            }
        }
        // Keep the predefined phase silent on requests/grants; messages are
        // modeled as equal-size bundles either way (§A.2.1's fairness note).
        for &i in &self.req_dirty {
            self.msg_flags[i as usize] &= !REQ_FLAG;
        }
        self.req_dirty.clear();
        self.clear_grant_buckets();
    }

    // ------------------------------------------------------------------
    // Selective relay steps (Appendix A.2.2)
    // ------------------------------------------------------------------

    /// Direct backlog whose only path uses `port` of `tor` (thin-clos):
    /// an O(1) read of the incrementally maintained per-port sums.
    fn direct_backlog_via_port(&self, tor: usize, port: usize) -> u64 {
        self.data.backlog_by_port[tor * self.s + port]
    }

    fn relay_request_step(&mut self, epoch: u64) {
        for &i in &self.relay_req_dirty {
            self.out.relay_req[i as usize].clear();
            self.msg_flags[i as usize] &= !RELAY_REQ_FLAG;
        }
        self.relay_req_dirty.clear();
        for src in 0..self.n {
            for dst in 0..self.n {
                if dst == src {
                    continue;
                }
                if !relay::pair_qualifies(&self.data.queues[src * self.n + dst], &self.relay_policy)
                {
                    continue;
                }
                // Scan a rotating window of intermediates; keep up to two
                // whose shared egress link is not busy with direct traffic.
                let mut found = 0;
                for j in 0..(2 * self.s).min(self.n - 2) {
                    let via = (src + 1 + ((epoch as usize + j) % (self.n - 1))) % self.n;
                    if via == src || via == dst {
                        continue;
                    }
                    let p1 = match self.topo.pair_port(src, via) {
                        Some(p) => p,
                        None => continue,
                    };
                    if relay::port_busy(self.direct_backlog_via_port(src, p1), &self.relay_policy) {
                        continue;
                    }
                    let idx = src * self.n + via;
                    if self.out.relay_req[idx].is_empty() {
                        self.relay_req_dirty.push(idx as u32);
                        self.msg_flags[idx] |= RELAY_REQ_FLAG;
                    }
                    self.out.relay_req[idx].push(RelayRequest {
                        src,
                        via,
                        final_dst: dst,
                    });
                    found += 1;
                    if found == 2 {
                        break;
                    }
                }
            }
        }
    }

    /// Intermediates grant leftover ports to relay requests. Direct grants
    /// already marked their ports in `port_granted`; relay grants extend
    /// the same per-epoch map.
    fn relay_grant_step(&mut self) {
        for &i in &self.relay_grant_dirty {
            self.out.relay_grant[i as usize].clear();
            self.msg_flags[i as usize] &= !RELAY_GRANT_FLAG;
        }
        self.relay_grant_dirty.clear();
        let mut reqs = std::mem::take(&mut self.scratch.relay_reqs);
        for via in 0..self.n {
            reqs.clear();
            std::mem::swap(&mut reqs, &mut self.inbox.relay_req[via]);
            if reqs.is_empty() {
                continue;
            }
            let mut space = self.data.relay_buffers[via].space(&self.relay_policy);
            for &r in &reqs {
                let p = match self.topo.pair_port(r.src, via) {
                    Some(p) => p,
                    None => continue,
                };
                if self.port_granted[via * self.s + p] || !self.detector.usable(r.src, via, p) {
                    continue;
                }
                // The intermediate's own egress toward the final destination
                // must not be busy with high-volume direct traffic.
                let p2 = match self.topo.pair_port(via, r.final_dst) {
                    Some(p2) => p2,
                    None => continue,
                };
                if relay::port_busy(self.direct_backlog_via_port(via, p2), &self.relay_policy) {
                    continue;
                }
                let vol = self.relay_policy.grant_volume.min(space);
                if vol == 0 {
                    break;
                }
                space -= vol;
                self.port_granted[via * self.s + p] = true;
                let idx = via * self.n + r.src;
                if self.out.relay_grant[idx].is_empty() {
                    self.relay_grant_dirty.push(idx as u32);
                    self.msg_flags[idx] |= RELAY_GRANT_FLAG;
                }
                self.out.relay_grant[idx].push((p as u32, r.final_dst as u32, vol));
            }
        }
        reqs.clear();
        self.scratch.relay_reqs = reqs;
    }

    // ------------------------------------------------------------------
    // The two phases
    // ------------------------------------------------------------------

    /// Rotation of the predefined round-robin rule (§3.6.1): the parallel
    /// network shifts the port↔offset mapping every epoch.
    fn rotation(&self, epoch: u64) -> u64 {
        match self.topo.kind() {
            TopologyKind::Parallel => epoch,
            TopologyKind::ThinClos => 0,
        }
    }

    fn predefined_phase(
        &mut self,
        flows: &[workload::Flow],
        cursor: usize,
        epoch: u64,
        t0: Nanos,
        tracker: &mut FlowTracker,
    ) -> usize {
        // Healthy-fabric gate: with zero ground failures (including
        // partitions), a quiescent detector and no active gray failure,
        // every connection is up and usable, and a round of all-success
        // observations would change no detector state — so the
        // per-connection bookkeeping and the end-of-epoch observation pass
        // can be skipped wholesale. Bit-exact: the only skipped work is
        // writes of values already in place. Gray epochs must observe even
        // though no link is down: drops are decided per connection and the
        // detector has to see the misses.
        let healthy =
            self.failures.healthy() && self.detector.is_quiescent() && !self.faults.gray_active();
        self.observe_pending = !healthy;
        if !healthy {
            self.egress_obs.fill(None);
            self.ingress_obs.fill(None);
        }
        self.predefined_shards(flows, cursor, epoch, t0, healthy, tracker)
    }

    /// Feed the epoch's predefined-phase observations to the detector.
    /// A no-op after healthy-fast-path epochs (all-success observations on
    /// a quiescent detector change nothing).
    fn observe_epoch(&mut self) {
        if !self.observe_pending {
            return;
        }
        for (i, (&egress, &ingress)) in self.egress_obs.iter().zip(&self.ingress_obs).enumerate() {
            let (tor, port) = (i / self.s, i % self.s);
            if let Some(ok) = egress {
                self.detector.observe_egress(tor, port, ok);
            }
            if let Some(ok) = ingress {
                self.detector.observe_ingress(tor, port, ok);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use topology::NetworkConfig;
    use workload::{Flow, FlowTrace, IncastWorkload};

    fn small_cfg() -> NegotiatorConfig {
        NegotiatorConfig::paper_default(NetworkConfig::small_for_tests())
    }

    fn single_flow(bytes: u64, arrival: Nanos) -> FlowTrace {
        FlowTrace::new(vec![Flow {
            id: 0,
            src: 0,
            dst: 5,
            bytes,
            arrival,
        }])
    }

    #[test]
    fn mice_flow_bypasses_scheduling_delay_via_piggyback() {
        // A 500 B flow fits one piggyback packet: it should complete within
        // roughly one epoch + propagation, far below the 2-epoch delay.
        let mut s = NegotiatorSim::new(small_cfg(), TopologyKind::Parallel);
        let epoch = s.epoch_len();
        let report = s.run(&single_flow(500, 0), 50 * epoch);
        let fct = s.tracker().fct(0).expect("flow must complete");
        assert!(
            fct < 2 * epoch,
            "piggybacked mice FCT {fct} should beat the 2-epoch delay ({})",
            2 * epoch
        );
        assert_eq!(report.mice.completed, 1);
    }

    #[test]
    fn piggyback_disabled_pays_the_scheduling_delay() {
        let mut cfg = small_cfg();
        cfg.piggyback = false;
        let mut s = NegotiatorSim::new(cfg, TopologyKind::Parallel);
        let epoch = s.epoch_len();
        s.run(&single_flow(500, 0), 50 * epoch);
        let fct = s.tracker().fct(0).expect("flow must complete");
        assert!(
            fct >= 2 * epoch,
            "without PB the flow waits for the pipeline: fct {fct}"
        );
        assert!(fct < 5 * epoch, "but not forever: fct {fct}");
    }

    #[test]
    fn elephant_flow_completes_via_scheduled_phase() {
        for kind in [TopologyKind::Parallel, TopologyKind::ThinClos] {
            let mut s = NegotiatorSim::new(small_cfg(), kind);
            let epoch = s.epoch_len();
            let report = s.run(&single_flow(500_000, 0), 600 * epoch);
            assert_eq!(
                s.tracker().completed_count(),
                1,
                "{kind:?}: elephant must finish"
            );
            assert!(report.all.completed == 1);
        }
    }

    #[test]
    fn incast_finishes_fast_regardless_of_degree() {
        // §4.2/Figure 7(a): piggybacking serves each sender its own
        // predefined slot, so finish time is flat in degree.
        let mut finish = Vec::new();
        for degree in [2usize, 8, 14] {
            let trace = IncastWorkload {
                degree,
                flow_bytes: 1_000,
                n_tors: 16,
                start: 10_000,
            }
            .generate(3);
            let mut s = NegotiatorSim::new(small_cfg(), TopologyKind::Parallel);
            let epoch = s.epoch_len();
            s.run(&trace, 100 * epoch);
            let t =
                RunReport::burst_finish_time(&trace, s.tracker()).expect("incast must complete");
            finish.push(t);
        }
        let spread = *finish.iter().max().unwrap() as f64 / *finish.iter().min().unwrap() as f64;
        assert!(
            spread < 2.5,
            "incast finish should be nearly flat in degree: {finish:?}"
        );
    }

    #[test]
    fn deterministic_runs() {
        let trace = single_flow(100_000, 123);
        let run = |seed: u64| {
            let mut cfg = small_cfg();
            cfg.seed = seed;
            let mut s = NegotiatorSim::new(cfg, TopologyKind::Parallel);
            s.run(&trace, 500_000);
            s.tracker().fct(0)
        };
        assert_eq!(run(1), run(1));
    }

    #[test]
    fn match_ratio_recorded_under_load() {
        let trace = FlowTrace::new(
            (0..16)
                .flat_map(|src| {
                    (0..16).filter(move |&d| d != src).map(move |dst| Flow {
                        id: 0,
                        src,
                        dst,
                        bytes: 200_000,
                        arrival: 0,
                    })
                })
                .collect(),
        );
        let mut s = NegotiatorSim::new(small_cfg(), TopologyKind::Parallel);
        let epoch = s.epoch_len();
        s.run(&trace, 100 * epoch);
        let ratio = s.match_recorder().overall_ratio().expect("grants happened");
        assert!(ratio > 0.3 && ratio <= 1.0, "ratio {ratio}");
    }

    #[test]
    fn failed_links_reduce_then_recover_bandwidth() {
        let trace = single_flow(100_000_000, 0); // effectively infinite source
        let mut cfg = small_cfg();
        cfg.piggyback = true;
        let mut s = NegotiatorSim::with_options(
            cfg,
            TopologyKind::Parallel,
            SimOptions {
                total_rx_window: Some(10_000),
                ..SimOptions::default()
            },
        );
        let epoch = s.epoch_len();
        let fail_at = 60 * epoch;
        let repair_at = 160 * epoch;
        s.schedule_failure(
            fail_at,
            FailureAction::FailRandom {
                ratio: 0.25,
                seed: 7,
            },
        );
        s.schedule_failure(repair_at, FailureAction::RepairAll);
        s.run(&trace, 260 * epoch);
        let rx = s.total_rx().unwrap();
        let before = rx.mean_gbps(10 * epoch, fail_at);
        let during = rx.mean_gbps(fail_at + 10 * epoch, repair_at);
        let after = rx.mean_gbps(repair_at + 10 * epoch, 250 * epoch);
        assert!(before > 0.0);
        assert!(
            during < before * 0.95,
            "failures must cost bandwidth: before {before}, during {during}"
        );
        assert!(
            after > during,
            "recovery must restore bandwidth: during {during}, after {after}"
        );
    }

    #[test]
    fn selective_relay_runs_and_delivers_on_thin_clos() {
        let mut s = NegotiatorSim::with_options(
            small_cfg(),
            TopologyKind::ThinClos,
            SimOptions {
                selective_relay: true,
                ..SimOptions::default()
            },
        );
        let epoch = s.epoch_len();
        let report = s.run(&single_flow(2_000_000, 0), 3000 * epoch);
        assert_eq!(report.all.completed, 1, "elephant must fully arrive");
    }

    #[test]
    #[should_panic(expected = "thin-clos")]
    fn selective_relay_rejected_on_parallel() {
        NegotiatorSim::with_options(
            small_cfg(),
            TopologyKind::Parallel,
            SimOptions {
                selective_relay: true,
                ..SimOptions::default()
            },
        );
    }

    #[test]
    fn variant_modes_all_run_to_completion() {
        for mode in [
            SchedulerMode::Iterative { rounds: 3 },
            SchedulerMode::DataSize,
            SchedulerMode::HolDelay { alpha: 0.001 },
            SchedulerMode::Stateful,
            SchedulerMode::Projector,
        ] {
            let mut s = NegotiatorSim::with_options(
                small_cfg(),
                TopologyKind::Parallel,
                SimOptions {
                    mode,
                    ..SimOptions::default()
                },
            );
            let epoch = s.epoch_len();
            let report = s.run(&single_flow(300_000, 0), 1000 * epoch);
            assert_eq!(report.all.completed, 1, "{mode:?} must deliver the flow");
        }
    }

    #[test]
    fn stats_capture_bypass_and_overscheduling() {
        // A small flow (one piggyback packet) delivered entirely via PB.
        let mut s = NegotiatorSim::new(small_cfg(), TopologyKind::Parallel);
        let epoch = s.epoch_len();
        s.run(&single_flow(500, 0), 20 * epoch);
        let st = *s.stats();
        assert_eq!(st.piggyback_packets, 1);
        assert_eq!(st.piggyback_bytes, 500);
        assert_eq!(st.scheduled_packets, 0, "no scheduled data needed");
        assert_eq!(st.piggyback_share(), 1.0);
        assert_eq!(st.lost_packets, 0);

        // A large flow drains mostly through the scheduled phase, and the
        // stateless pipeline over-schedules the tail: grants keep arriving
        // for an already-empty queue.
        let mut s = NegotiatorSim::new(small_cfg(), TopologyKind::Parallel);
        s.run(&single_flow(200_000, 0), 200 * epoch);
        let st = *s.stats();
        assert!(st.scheduled_bytes > st.piggyback_bytes);
        assert!(
            st.overscheduled_slots > 0,
            "stateless scheduling must waste some tail slots"
        );
        assert!(st.requests_sent > 0);
        assert!(st.accepts_made <= st.grants_issued);
    }

    #[test]
    fn lost_packets_counted_under_ground_failures() {
        let mut s = NegotiatorSim::new(small_cfg(), TopologyKind::Parallel);
        let epoch = s.epoch_len();
        s.schedule_failure(
            0,
            FailureAction::FailRandom {
                ratio: 0.3,
                seed: 2,
            },
        );
        s.run(&single_flow(500_000, 0), 50 * epoch);
        assert!(
            s.stats().lost_packets > 0,
            "undetected failures must lose packets in flight"
        );
    }

    #[test]
    fn host_backpressure_caps_receive_rate() {
        // One hot destination fed by many sources; with §3.6.5 enabled and
        // a small receive buffer, sustained delivery cannot exceed the
        // host-aggregate rate by much, while the unbounded setting enjoys
        // the full 2x fabric speedup.
        let trace = FlowTrace::new(
            (1..16)
                .map(|src| Flow {
                    id: 0,
                    src,
                    dst: 0,
                    bytes: 400_000,
                    arrival: 0,
                })
                .collect(),
        );
        let run = |buffer: Option<u64>| {
            let mut s = NegotiatorSim::with_options(
                small_cfg(),
                TopologyKind::Parallel,
                SimOptions {
                    host_buffer_bytes: buffer,
                    ..SimOptions::default()
                },
            );
            let epoch = s.epoch_len();
            s.run(&trace, 600 * epoch);
            // Received rate at the hot ToR while the burst drains, in Gbps.
            let finish =
                RunReport::burst_finish_time(&trace, s.tracker()).expect("burst must complete");
            (s.tracker().delivered_payload() * 8) as f64 / finish as f64
        };
        let unbounded = run(None);
        let bounded = run(Some(100_000));
        // Hosts drain at 200 Gbps on the test fabric; the fabric can push
        // 400 Gbps into one ToR.
        assert!(
            unbounded > 250.0,
            "unbounded should use speedup: {unbounded}"
        );
        assert!(
            bounded < unbounded * 0.85,
            "backpressure must throttle: bounded {bounded} vs unbounded {unbounded}"
        );
        assert!(bounded > 100.0, "but data must still flow: {bounded}");
    }

    #[test]
    fn goodput_reflects_offered_load() {
        // Saturating all-to-all: goodput should be substantial.
        let trace = FlowTrace::new(
            (0..16)
                .flat_map(|src| {
                    (0..16).filter(move |&d| d != src).map(move |dst| Flow {
                        id: 0,
                        src,
                        dst,
                        bytes: 1_000_000,
                        arrival: 0,
                    })
                })
                .collect(),
        );
        let mut s = NegotiatorSim::new(small_cfg(), TopologyKind::Parallel);
        let dur = 300 * s.epoch_len();
        let report = s.run(&trace, dur);
        assert!(
            report.goodput.normalized() > 0.5,
            "normalized goodput {}",
            report.goodput.normalized()
        );
    }
}
