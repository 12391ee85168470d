//! The sharded epoch phases: one implementation per phase, run over
//! contiguous ToR shards, byte-identical output at any worker count.
//!
//! # The determinism argument
//!
//! Every phase below follows one recipe:
//!
//! 1. **Ownership by row.** ToRs are partitioned into contiguous shards
//!    ([`sim::shard::partition`]); `--workers 1` and selective relay get
//!    a single shard. Each shard receives disjoint `&mut` windows of the
//!    row-major state it owns ([`sim::shard::split_rows`]): REQUEST,
//!    ACCEPT and the two data phases shard by *source* row, GRANT by
//!    *granter* row. The data phases reach their queues through
//!    [`SrcRows`], which is also the only flow-injection path. The type
//!    system — not a convention — rules out cross-shard writes.
//! 2. **A sink for everything else.** Writes that land on another ToR's
//!    state (inbox pushes, stateful matrix reverts, data deliveries),
//!    the phase's dirty indices and its counters go to a [`Sink`], in
//!    the body's visit order. With one shard the sink is [`Direct`]: it
//!    performs each write in place, so nothing is buffered, copied or
//!    replayed. With k shards each shard writes to its own [`Lane`],
//!    which records [`Event`]s.
//! 3. **Ordered replay.** After the fork/join, the lanes replay through
//!    the same `Direct` sink on the caller's thread, in the one-shard
//!    visit order: shard concatenation where the body is row-major (rows
//!    ascend across shards), slot-major interleaving where it is
//!    slot-major (both data phases tag events with their slot). The
//!    write sequence is therefore *identical* at any shard count — no
//!    commutativity assumptions, no floating-point reassociation.
//!
//! Worker count moves shard boundaries, never row order, so any
//! `--workers` value produces the same bytes; `tests/determinism.rs`
//! and the CI `determinism-matrix` job hold the engine to it, and
//! `tests/golden_report.rs` pins the bytes themselves.
//!
//! # What does not shard, and why
//!
//! * **Selective relay's REQUEST/GRANT steps** (`relay_request_step`,
//!   `relay_grant_step`) are whole-fabric loops: relay grant admission
//!   reads `port_granted`/buffer claims written by lower-numbered ToRs in
//!   the same step — the visit order is semantic. Relay runs pin every
//!   phase to one shard, which is also what lets a scheduled-phase relay
//!   transmission enqueue at the intermediate ToR inside the body.
//! * **Iterative mode's epoch start**: `IterativeMatcher` is a global
//!   fixed point over all ToRs, not per-ToR work.
//! * **`rebuild_active_list`, the epoch-start injection and the
//!   flag/observation resets**: memset-class scans that cost less than a
//!   fork/join.

use super::*;
use crate::queues::Packet;
use sim::shard::{self, Shard};

/// A write a phase body makes outside its own rows. `slot` is the
/// predefined timeslot (predefined phase) or the scheduled slot index
/// `k` (scheduled phase); data arrival times derive from it. ToR fields
/// are 32-bit to keep lanes compact (fabrics are ≤ `u32` ToRs).
#[derive(Debug, Clone, Copy)]
pub(super) enum Event {
    /// The scheduling messages `flags` marks on connection `src → dst`
    /// (see `Inboxes::deliver`).
    Msg {
        slot: u32,
        src: u32,
        dst: u32,
        flags: u8,
    },
    /// A data packet delivered to `dst` (tracker + receive side).
    Data {
        slot: u32,
        dst: u32,
        flow: u64,
        bytes: u64,
    },
    /// A predefined connection's observation at its ingress end: `port`
    /// of `dst` was attempted, and `ok` when its control traffic crossed
    /// (failure-path epochs only).
    Ingress {
        slot: u32,
        dst: u32,
        port: u32,
        ok: bool,
    },
    /// A stateful debit of a rejected grant, returned to the granter's
    /// demand matrix.
    Revert { granter: u32, src: u32, debit: u64 },
}

impl Event {
    fn slot(&self) -> u32 {
        match *self {
            Event::Msg { slot, .. } | Event::Data { slot, .. } | Event::Ingress { slot, .. } => {
                slot
            }
            Event::Revert { .. } => 0,
        }
    }
}

/// Where a phase body sends what lies outside its own rows.
pub(super) trait Sink {
    /// A cross-ToR write, in the body's visit order.
    fn push(&mut self, ev: Event);
    /// A pair index whose outbox the phase just filled: the phase's
    /// `req_dirty`/`grant_dirty` entry.
    fn dirty(&mut self, idx: usize);
    /// The phase's counters.
    fn stats(&mut self) -> &mut SchedStats;
}

/// The one-shard sink: performs each write in place, at once. The
/// k-shard lanes replay through it too, so every write has one
/// implementation. A phase hands it only the targets it writes; the
/// rest stay empty.
pub(super) struct Direct<'a> {
    stats: &'a mut SchedStats,
    dirty: Option<&'a mut Vec<u32>>,
    matrices: &'a mut [DemandMatrix],
    /// Message deliveries: inboxes, outboxes, fabric size.
    msgs: Option<(&'a mut Inboxes, &'a Outboxes, usize)>,
    /// Data deliveries: receive side, tracker, arrival time of a slot-0
    /// packet, slot length.
    rx: Option<(&'a mut Receivers, &'a mut FlowTracker, Nanos, Nanos)>,
    /// Ingress observations (`tor * s + port`), ports per ToR.
    ingress: Option<(&'a mut [Option<bool>], usize)>,
}

impl<'a> Direct<'a> {
    /// A sink that only counts; phases add the targets they write.
    fn new(stats: &'a mut SchedStats) -> Self {
        Direct {
            stats,
            dirty: None,
            matrices: &mut [],
            msgs: None,
            rx: None,
            ingress: None,
        }
    }
}

impl Sink for Direct<'_> {
    // lint: hot-path
    #[inline]
    fn push(&mut self, ev: Event) {
        match ev {
            Event::Msg {
                src, dst, flags, ..
            } => {
                let (inbox, out, n) = self.msgs.as_mut().expect("phase delivers no messages");
                inbox.deliver(out, *n, src as usize, dst as usize, flags);
            }
            Event::Data {
                slot,
                dst,
                flow,
                bytes,
            } => {
                let (rx, tracker, first, slot_len) =
                    self.rx.as_mut().expect("phase delivers no data");
                let at = *first + slot as Nanos * *slot_len;
                rx.deliver(tracker, dst as usize, flow, bytes, at);
            }
            Event::Ingress { dst, port, ok, .. } => {
                let (observed, s) = self.ingress.as_mut().expect("phase observes no links");
                let obs = &mut observed[dst as usize * *s + port as usize];
                *obs = Some(ok || *obs == Some(true));
            }
            Event::Revert {
                granter,
                src,
                debit,
            } => self.matrices[granter as usize].revert(src as usize, debit),
        }
    }

    #[inline]
    fn dirty(&mut self, idx: usize) {
        let dirty = self.dirty.as_mut().expect("phase keeps no dirty list");
        dirty.push(idx as u32);
    }

    fn stats(&mut self) -> &mut SchedStats {
        self.stats
    }
}

/// A k-shard sink: records one shard's writes for the ordered replay.
/// Retained across epochs, so the steady-state sharded path allocates
/// nothing once capacities have warmed up.
#[derive(Debug, Default)]
pub(super) struct Lane {
    /// Dirty indices, concatenated in shard order by the merge
    /// (= row-ascending = one-shard order).
    dirty: Vec<u32>,
    events: Vec<Event>,
    stats: SchedStats,
}

impl Sink for Lane {
    fn push(&mut self, ev: Event) {
        self.events.push(ev);
    }

    fn dirty(&mut self, idx: usize) {
        self.dirty.push(idx as u32);
    }

    fn stats(&mut self) -> &mut SchedStats {
        &mut self.stats
    }
}

/// A phase body over one shard's rows.
trait Body: Send {
    fn run<S: Sink>(self, scratch: &mut SimScratch, sink: &mut S);
}

/// The order lane events replay in: shard concatenation, or slot-major
/// over this many slots.
#[derive(Clone, Copy)]
enum Replay {
    Concat,
    SlotMajor(usize),
}

/// Retained k-shard state (untouched by one-shard runs).
#[derive(Debug, Default)]
pub(super) struct ParState {
    /// Scratch buffers and lane of each shard.
    lanes: Vec<(SimScratch, Lane)>,
    /// Per-lane replay cursors (slot-major merges).
    ptrs: Vec<usize>,
}

impl ParState {
    /// Run one phase body per shard context. One shard runs inline and
    /// writes through `direct`; k shards run on scoped threads into
    /// lanes, which then replay through `direct` in `replay` order.
    fn run<B: Body>(
        &mut self,
        ctxs: Vec<B>,
        scratch: &mut SimScratch,
        direct: &mut Direct,
        replay: Replay,
    ) {
        let k = ctxs.len();
        if k <= 1 {
            for ctx in ctxs {
                ctx.run(scratch, direct);
            }
            return;
        }
        if self.lanes.len() < k {
            self.lanes.resize_with(k, Default::default);
        }
        let lanes = &mut self.lanes[..k];
        for (_, lane) in lanes.iter_mut() {
            lane.dirty.clear();
            lane.events.clear();
            lane.stats = SchedStats::default();
        }
        let work = ctxs.into_iter().zip(lanes.iter_mut()).collect();
        shard::map_shards(work, |_, (ctx, (scratch, lane))| ctx.run(scratch, lane));
        let lanes = &self.lanes[..k];
        for (_, lane) in lanes {
            if let Some(dirty) = direct.dirty.as_mut() {
                dirty.extend_from_slice(&lane.dirty);
            }
            *direct.stats += lane.stats;
        }
        match replay {
            Replay::Concat => {
                for (_, lane) in lanes {
                    for &ev in &lane.events {
                        direct.push(ev);
                    }
                }
            }
            // All lanes' slot-`k` events (lanes in shard order, each
            // lane's in emission order) before any slot-`k+1` event.
            // Per-lane streams are slot-sorted by construction, so one
            // cursor per lane suffices.
            Replay::SlotMajor(slots) => {
                let ptrs = &mut self.ptrs;
                ptrs.clear();
                ptrs.resize(k, 0);
                for slot in 0..slots as u32 {
                    for ((_, lane), ptr) in lanes.iter().zip(ptrs.iter_mut()) {
                        while let Some(&ev) = lane.events.get(*ptr) {
                            if ev.slot() != slot {
                                break;
                            }
                            *ptr += 1;
                            direct.push(ev);
                        }
                    }
                }
                debug_assert!(
                    lanes
                        .iter()
                        .zip(ptrs.iter())
                        .all(|((_, lane), &p)| p == lane.events.len()),
                    "every event must replay exactly once"
                );
            }
        }
    }
}

/// The per-shard `&mut` windows of one row-major array
/// ([`shard::split_rows`]), handed out in shard order while the phase
/// builds one context per shard. Row width 0 hands out empty windows of
/// variant-only state this run does not allocate.
struct Rows<'a, T>(std::vec::IntoIter<&'a mut [T]>);

impl<'a, T> Rows<'a, T> {
    fn new(v: &'a mut [T], row_len: usize, shards: &[Shard]) -> Self {
        Rows(shard::split_rows(v, row_len, shards).into_iter())
    }

    fn window(&mut self) -> &'a mut [T] {
        self.0
            .next()
            .expect("split_rows yields one window per shard")
    }
}

// Shard contexts: one struct per phase, holding exactly the rows a shard
// may write and the shared state it reads.

struct AcceptCtx<'a> {
    shard: Shard,
    s: usize,
    opts: &'a SimOptions,
    detector: &'a FaultDetector,
    inbox_grants: &'a mut [Vec<(Grant, u64)>],
    inbox_relay_grant: &'a mut [Vec<(usize, usize, usize, u64)>],
    accept_arbs: &'a mut [AcceptArbiter],
    active: &'a mut [Option<usize>],
    active_relay: &'a mut [Option<(usize, usize, u64)>],
}

impl Body for AcceptCtx<'_> {
    fn run<S: Sink>(self, sc: &mut SimScratch, sink: &mut S) {
        let (s, detector) = (self.s, self.detector);
        for src in self.shard.start..self.shard.end {
            let row = src - self.shard.start;
            sc.grants_in.clear();
            std::mem::swap(&mut sc.grants_in, &mut self.inbox_grants[row]);
            sink.stats().grants_issued += sc.grants_in.len() as u64;
            sc.grants.clear();
            sc.grants.extend(sc.grants_in.iter().map(|&(g, _)| g));
            if matches!(self.opts.mode, SchedulerMode::Projector) {
                // Port pre-binding means at most one grant per port:
                // accept everything usable.
                sc.accepts.clear();
                sc.accepts.extend(
                    sc.grants
                        .iter()
                        .filter(|g| detector.usable(src, g.dst, g.port))
                        .map(|g| Accept {
                            dst: g.dst,
                            port: g.port,
                        }),
                );
            } else {
                self.accept_arbs[row].accept_into(
                    s,
                    &sc.grants,
                    |dst, port| detector.usable(src, dst, port),
                    &mut sc.accepts,
                );
            }
            sink.stats().accepts_made += sc.accepts.len() as u64;
            for a in &sc.accepts {
                self.active[row * s + a.port] = Some(a.dst);
            }
            // Stateful: revert matrix debits for grants not accepted.
            if matches!(self.opts.mode, SchedulerMode::Stateful) {
                for &(g, debit) in &sc.grants_in {
                    let kept = sc
                        .accepts
                        .iter()
                        .any(|a| a.dst == g.dst && a.port == g.port);
                    if !kept && debit > 0 {
                        sink.push(Event::Revert {
                            granter: g.dst as u32,
                            src: src as u32,
                            debit,
                        });
                    }
                }
            }
            // Relay accepts: leftover egress ports take relay grants.
            if self.opts.selective_relay {
                sc.relay_grants.clear();
                std::mem::swap(&mut sc.relay_grants, &mut self.inbox_relay_grant[row]);
                for &(via, port, final_dst, vol) in &sc.relay_grants {
                    let slot = row * s + port;
                    if self.active[slot].is_none()
                        && self.active_relay[slot].is_none()
                        && detector.usable(src, via, port)
                    {
                        self.active_relay[slot] = Some((via, final_dst, vol));
                    }
                }
            }
        }
    }
}

struct GrantCtx<'a> {
    shard: Shard,
    n: usize,
    s: usize,
    epoch: u64,
    epoch_capacity: u64,
    opts: &'a SimOptions,
    detector: &'a FaultDetector,
    topo: &'a AnyTopology,
    faults: &'a FaultModel,
    rx_buffer: &'a [u64],
    inbox_requests: &'a mut [Vec<ReqIn>],
    grant_arbs: &'a mut [GrantArbiter],
    matrices: &'a mut [DemandMatrix],
    grant_buckets: &'a mut [Vec<(u32, u64)>],
    msg_flags: &'a mut [u8],
    port_granted: &'a mut [bool],
}

impl GrantCtx<'_> {
    /// Bucket one grant from `granter` to `requester` for delivery over
    /// their predefined connection.
    #[inline]
    fn push_grant(
        &mut self,
        sink: &mut impl Sink,
        granter: usize,
        requester: usize,
        port: usize,
        debit: u64,
    ) {
        let row = granter - self.shard.start;
        let local = row * self.n + requester;
        if self.grant_buckets[local].is_empty() {
            sink.dirty(granter * self.n + requester);
            self.msg_flags[local] |= GRANT_FLAG;
        }
        self.grant_buckets[local].push((port as u32, debit));
        if self.opts.selective_relay {
            self.port_granted[row * self.s + port] = true;
        }
    }
}

impl Body for GrantCtx<'_> {
    fn run<S: Sink>(mut self, sc: &mut SimScratch, sink: &mut S) {
        let (n, s, mode) = (self.n, self.s, self.opts.mode);
        let (detector, topo) = (self.detector, self.topo);
        let stateful = matches!(mode, SchedulerMode::Stateful);
        for dst in self.shard.start..self.shard.end {
            let row = dst - self.shard.start;
            sc.reqs.clear();
            std::mem::swap(&mut sc.reqs, &mut self.inbox_requests[row]);
            if self.faults.greedy(dst) {
                // Byzantine-lite misbehavior: the requests just swapped in
                // are discarded, backpressure and debits are ignored, and
                // every ingress port is granted round-robin.
                for port in 0..s {
                    if let Some(src) = greedy::greedy_source(topo, n, self.epoch, dst, port) {
                        self.push_grant(sink, dst, src, port, 0);
                    }
                }
                continue;
            }
            // §3.6.5 backpressure: a destination whose receive buffer is
            // more than half full grants nothing this epoch.
            if let Some(cap) = self.opts.host_buffer_bytes {
                if self.rx_buffer[dst] > cap / 2 {
                    continue;
                }
            }
            if stateful {
                for r in &sc.reqs {
                    self.matrices[row].report(r.src, r.value as u64);
                }
            }
            if sc.reqs.is_empty() && !stateful {
                continue;
            }
            match mode {
                SchedulerMode::Base | SchedulerMode::Iterative { .. } => {
                    sc.srcs.clear();
                    sc.srcs.extend(sc.reqs.iter().map(|r| r.src));
                    self.grant_arbs[row].grant_into(
                        s,
                        &sc.srcs,
                        |src, port| detector.usable(src, dst, port),
                        &mut sc.grant_pairs,
                    );
                    for &(src, port) in &sc.grant_pairs {
                        self.push_grant(sink, dst, src, port, 0);
                    }
                }
                SchedulerMode::Stateful => {
                    // Candidates: sources whose matrix entry shows pending
                    // data (requests above already refreshed the matrix).
                    let matrix = &self.matrices[row];
                    sc.srcs.clear();
                    sc.srcs
                        .extend((0..n).filter(|&src| matrix.has_pending(src)));
                    if sc.srcs.is_empty() {
                        continue;
                    }
                    self.grant_arbs[row].grant_into(
                        s,
                        &sc.srcs,
                        |src, port| detector.usable(src, dst, port),
                        &mut sc.grant_pairs,
                    );
                    for &(src, port) in &sc.grant_pairs {
                        let debit = self.matrices[row].debit(src, self.epoch_capacity);
                        self.push_grant(sink, dst, src, port, debit);
                    }
                }
                SchedulerMode::DataSize | SchedulerMode::HolDelay { .. } => {
                    // Highest-value requester first. A served pair's value
                    // drops so ports spread across pairs: DataSize debits
                    // one epoch of service and stops granting at zero
                    // remaining backlog; HolDelay demotes the served pair
                    // below every still-waiting one but keeps it eligible
                    // for leftover ports (a deep-backlog pair may use
                    // several ports, as the base algorithm allows).
                    let datasize = matches!(mode, SchedulerMode::DataSize);
                    sc.vals.clear();
                    sc.vals.extend(sc.reqs.iter().map(|r| (r.src, r.value)));
                    for port in 0..s {
                        sc.usable_vals.clear();
                        sc.usable_vals.extend(
                            sc.vals
                                .iter()
                                .copied()
                                .filter(|&(src, v)| {
                                    (!datasize || v > 0.0) && detector.usable(src, dst, port)
                                })
                                .filter(|&(src, _)| topo.port_reaches(src, port, dst)),
                        );
                        if let Some(src) = informative::pick_max_value(&sc.usable_vals) {
                            let v = sc.vals.iter_mut().find(|(x, _)| *x == src);
                            let v = v.expect("the picked source is a requester");
                            v.1 = if datasize {
                                (v.1 - self.epoch_capacity as f64).max(0.0)
                            } else {
                                -1.0 - v.1.abs() // strictly below fresh requests
                            };
                            self.push_grant(sink, dst, src, port, 0);
                        }
                    }
                }
                SchedulerMode::Projector => {
                    sc.preqs.clear();
                    sc.preqs.extend(
                        sc.reqs
                            .iter()
                            .filter(|r| r.port != usize::MAX)
                            .filter(|r| detector.usable(r.src, dst, r.port))
                            .map(|r| projector::PortRequest {
                                src: r.src,
                                port: r.port,
                                waiting: r.value,
                            }),
                    );
                    for (src, port) in projector::grant_by_waiting(s, &sc.preqs) {
                        self.push_grant(sink, dst, src, port, 0);
                    }
                }
            }
        }
    }
}

struct RequestCtx<'a> {
    shard: Shard,
    n: usize,
    mode: SchedulerMode,
    now: Nanos,
    threshold: u64,
    topo: &'a AnyTopology,
    queues: &'a [DestQueue],
    queue_bytes: &'a [u64],
    enqueued_total: &'a [u64],
    req_out: &'a mut [f64],
    req_port_out: &'a mut [usize],
    msg_flags: &'a mut [u8],
    reported_total: &'a mut [u64],
}

impl Body for RequestCtx<'_> {
    fn run<S: Sink>(self, _: &mut SimScratch, sink: &mut S) {
        let n = self.n;
        for src in self.shard.start..self.shard.end {
            let base = (src - self.shard.start) * n;
            if matches!(self.mode, SchedulerMode::Projector) {
                let qs = &self.queues[src * n..(src + 1) * n];
                for (dst, preq) in projector::bind_requests(self.topo, src, qs, self.now) {
                    self.req_out[base + dst] = preq.waiting;
                    self.req_port_out[base + dst] = preq.port;
                    self.msg_flags[base + dst] |= REQ_FLAG;
                    sink.dirty(src * n + dst);
                }
                continue;
            }
            for dst in 0..n {
                let idx = src * n + dst;
                if dst == src || self.queue_bytes[idx] <= self.threshold {
                    continue;
                }
                let value = match self.mode {
                    SchedulerMode::DataSize => self.queue_bytes[idx] as f64,
                    SchedulerMode::HolDelay { alpha } => {
                        informative::hol_delay_value(&self.queues[idx], self.now, alpha)
                    }
                    SchedulerMode::Stateful => {
                        let new = self.enqueued_total[idx] - self.reported_total[base + dst];
                        self.reported_total[base + dst] = self.enqueued_total[idx];
                        new as f64
                    }
                    _ => 0.0,
                };
                self.req_out[base + dst] = value;
                self.msg_flags[base + dst] |= REQ_FLAG;
                sink.dirty(idx);
                sink.stats().requests_sent += 1;
            }
        }
    }
}

/// One shard's source rows of [`DataState`]: its ToRs' per-destination
/// queues and the mirrors each enqueue and dequeue keeps in step. Flow
/// injection and every data-phase dequeue go through it, so each has one
/// implementation.
pub(super) struct SrcRows<'a> {
    shard: Shard,
    n: usize,
    s: usize,
    pias: bool,
    pias_th: [u64; 2],
    pair_port_tbl: &'a [u8],
    queues: &'a mut [DestQueue],
    queue_bytes: &'a mut [u64],
    enqueued_total: &'a mut [u64],
    relay_buffers: &'a mut [RelayBuffer],
    backlog_by_port: &'a mut [u64],
}

impl DataState {
    /// One [`SrcRows`] per shard, in shard order.
    pub(super) fn split(&mut self, shards: &[Shard]) -> Vec<SrcRows<'_>> {
        let (n, s) = (self.n, self.s);
        let backlog_width = if self.backlog_by_port.is_empty() {
            0
        } else {
            s
        };
        let mut queues = Rows::new(&mut self.queues, n, shards);
        let mut qbytes = Rows::new(&mut self.queue_bytes, n, shards);
        let mut enq = Rows::new(&mut self.enqueued_total, n, shards);
        let mut bufs = Rows::new(&mut self.relay_buffers, 1, shards);
        let mut backlogs = Rows::new(&mut self.backlog_by_port, backlog_width, shards);
        shards
            .iter()
            .map(|&shard| SrcRows {
                shard,
                n,
                s,
                pias: self.pias,
                pias_th: self.pias_th,
                pair_port_tbl: &self.pair_port_tbl,
                queues: queues.window(),
                queue_bytes: qbytes.window(),
                enqueued_total: enq.window(),
                relay_buffers: bufs.window(),
                backlog_by_port: backlogs.window(),
            })
            .collect()
    }
}

impl SrcRows<'_> {
    /// `(src, dst)`'s index into this shard's row windows.
    #[inline]
    fn row(&self, src: usize, dst: usize) -> usize {
        (src - self.shard.start) * self.n + dst
    }

    /// Apply `update` to `(src, dst)`'s mirrors: its queue bytes and,
    /// under selective relay, the backlog of the port it leaves through.
    #[inline]
    fn mirror(&mut self, src: usize, dst: usize, update: impl Fn(&mut u64)) {
        update(&mut self.queue_bytes[self.row(src, dst)]);
        if let Some(&port) = self.pair_port_tbl.get(src * self.n + dst) {
            update(&mut self.backlog_by_port[(src - self.shard.start) * self.s + port as usize]);
        }
    }

    /// Enqueue this shard's flows of `flows[*next..]` that have arrived by
    /// `now`, advancing `*next` past every arrived flow (other shards'
    /// included).
    pub(super) fn inject(&mut self, flows: &[workload::Flow], next: &mut usize, now: Nanos) {
        while let Some(f) = flows.get(*next).filter(|f| f.arrival <= now) {
            *next += 1;
            if f.src < self.shard.start || f.src >= self.shard.end {
                continue;
            }
            let row = self.row(f.src, f.dst);
            self.queues[row].enqueue_flow(f.id, f.bytes, f.arrival, self.pias, self.pias_th);
            self.enqueued_total[row] += f.bytes;
            self.mirror(f.src, f.dst, |b| *b += f.bytes);
        }
    }

    /// Take the `src → dst` queue's next packet: the highest-priority one,
    /// or with `lowest` only from the lowest level (relay forwarding).
    #[inline]
    fn dequeue(&mut self, src: usize, dst: usize, payload: u64, lowest: bool) -> Option<Packet> {
        let row = self.row(src, dst);
        if self.queue_bytes[row] == 0 {
            return None; // the dense mirror spares a queue-struct probe
        }
        let pkt = if lowest {
            self.queues[row].dequeue_lowest_packet(payload)?
        } else {
            self.queues[row].dequeue_packet(payload)?
        };
        self.mirror(src, dst, |b| *b -= pkt.bytes);
        if pkt.relayed {
            self.relay_buffers[src - self.shard.start].release(pkt.bytes);
        }
        Some(pkt)
    }
}

struct PredefCtx<'a> {
    rows: SrcRows<'a>,
    /// The healthy-fabric gate held: every link is up and usable, and
    /// nothing is observed.
    healthy: bool,
    epoch: u64,
    rot: u64,
    t0: Nanos,
    pre_slots: usize,
    pre_slot_len: Nanos,
    pb_payload: u64,
    piggyback: bool,
    /// Flows arriving during this phase; each shard enqueues only its own
    /// sources.
    flows: &'a [workload::Flow],
    cache: &'a PredefinedCache,
    out: &'a Outboxes,
    failures: &'a LinkFailures,
    faults: &'a FaultModel,
    detector: &'a FaultDetector,
    msg_flags: &'a mut [u8],
    egress_obs: &'a mut [Option<bool>],
}

impl PredefCtx<'_> {
    /// The failure-path bookkeeping of connection `src → dst` on `port`
    /// in `slot`: record both ends' observations (the ingress end through
    /// the sink) and count the control messages a gray failure eats.
    /// Returns whether the link is up, whether its control traffic
    /// crosses, and whether the detector still lets it carry data.
    fn observe<S: Sink>(
        &mut self,
        sink: &mut S,
        slot: u32,
        (src, port, dst): (usize, usize, usize),
        flags: u8,
    ) -> (bool, bool, bool) {
        let egress = (src - self.rows.shard.start) * self.rows.s + port;
        let up = self.failures.link_up(src, dst, port);
        // Gray failure: the link carries data but loses this epoch's
        // control traffic. No ok-observation is recorded (the detector
        // sees a missed dummy and may exclude the link — an organic false
        // positive) and no scheduling message crosses; undelivered
        // requests and grants expire in their buckets at the next epoch
        // start.
        let gray = up && self.faults.gray_drops(self.epoch, src, dst);
        let ok = up && !gray;
        self.egress_obs[egress] = Some(ok || self.egress_obs[egress] == Some(true));
        sink.push(Event::Ingress {
            slot,
            dst: dst as u32,
            port: port as u32,
            ok,
        });
        if gray {
            // The dummy, the request and the pair's buckets (a bucket is
            // non-empty exactly when its flag is set; relay buckets exist
            // only under selective relay).
            let (idx, out) = (src * self.rows.n + dst, self.out);
            sink.stats().control_dropped +=
                (1 + usize::from(flags & REQ_FLAG != 0)
                    + out.grants[idx].len()
                    + out.relay_req.get(idx).map_or(0, Vec::len)
                    + out.relay_grant.get(idx).map_or(0, Vec::len)) as u64;
        }
        (up, ok, self.detector.usable(src, dst, port))
    }
}

impl Body for PredefCtx<'_> {
    fn run<S: Sink>(mut self, _: &mut SimScratch, sink: &mut S) {
        let shard = self.rows.shard;
        let mut next = 0;
        for slot in 0..self.pre_slots {
            let slot_start = self.t0 + slot as Nanos * self.pre_slot_len;
            self.rows.inject(self.flows, &mut next, slot_start);
            let conns = self.cache.slot_conns_for_srcs(
                self.rot,
                slot,
                shard.start as u32,
                shard.end as u32,
            );
            let slot = slot as u32;
            for conn in conns {
                let (src, port, dst) = (conn.src as usize, conn.port as usize, conn.dst as usize);
                let row = self.rows.row(src, dst);
                let flags = self.msg_flags[row];
                let (up, ctrl, usable) = match self.healthy {
                    true => (true, true, true),
                    false => self.observe(sink, slot, (src, port, dst), flags),
                };
                if ctrl && flags != 0 {
                    sink.push(Event::Msg {
                        slot,
                        src: conn.src,
                        dst: conn.dst,
                        flags,
                    });
                    self.msg_flags[row] &= !REQ_FLAG; // a request is delivered once
                }
                // Piggyback one data packet (§3.4.1) unless the detector
                // already excluded the link.
                if self.piggyback && usable {
                    if let Some(pkt) = self.rows.dequeue(src, dst, self.pb_payload, false) {
                        send(sink, up, true, slot, conn.dst, pkt);
                    }
                }
            }
        }
    }
}

struct SchedCtx<'a> {
    rows: SrcRows<'a>,
    k_slots: usize,
    sched_start: Nanos,
    slot_len: Nanos,
    prop: Nanos,
    sched_payload: u64,
    /// Flows arriving during this phase; each shard enqueues only its own
    /// sources.
    flows: &'a [workload::Flow],
    failures: &'a LinkFailures,
    /// This shard's run of `active_list`.
    entries: &'a [ActiveTx],
    active_relay: &'a mut [Option<(usize, usize, u64)>],
}

impl Body for SchedCtx<'_> {
    fn run<S: Sink>(mut self, _: &mut SimScratch, sink: &mut S) {
        let (s, shard) = (self.rows.s, self.rows.shard);
        let mut next = 0;
        for k in 0..self.k_slots {
            let slot_start = self.sched_start + k as Nanos * self.slot_len;
            self.rows.inject(self.flows, &mut next, slot_start);
            for e in self.entries {
                let (src, port) = (e.slot as usize / s, e.slot as usize % s);
                if !e.relay {
                    let dst = e.dst as usize;
                    match self.rows.dequeue(src, dst, self.sched_payload, false) {
                        Some(pkt) => {
                            let up = self.failures.link_up(src, dst, port);
                            send(sink, up, false, k as u32, e.dst, pkt);
                        }
                        None => sink.stats().overscheduled_slots += 1,
                    }
                    continue;
                }
                let local = e.slot as usize - shard.start * s;
                let Some((via, final_dst, vol)) = self.active_relay[local] else {
                    sink.stats().unmatched_slots += 1;
                    continue;
                };
                if vol == 0 {
                    continue;
                }
                let cap = self.sched_payload.min(vol);
                let Some(pkt) = self.rows.dequeue(src, final_dst, cap, true) else {
                    self.active_relay[local] = None; // drained
                    continue;
                };
                self.active_relay[local] = Some((via, final_dst, vol - pkt.bytes));
                if self.failures.link_up(src, via, port) {
                    // Arrives at the intermediate: admitted to its relay
                    // buffer and re-queued for the final destination at
                    // lowest priority. Another ToR's row — legal only
                    // because relay runs on one shard that owns every row.
                    let arrive = slot_start + self.slot_len + self.prop;
                    let rows = &mut self.rows;
                    rows.relay_buffers[via].admit(pkt.bytes);
                    let row = rows.row(via, final_dst);
                    rows.queues[row].enqueue_relay(pkt.flow, pkt.bytes, arrive);
                    rows.mirror(via, final_dst, |b| *b += pkt.bytes);
                }
            }
        }
    }
}
/// One data transmission in `slot`, piggybacked or scheduled: delivered
/// to `dst` if the link is up; a ground-truth-down link loses the packet
/// (recovery is an upper-layer, TCP concern).
#[inline]
fn send(sink: &mut impl Sink, up: bool, piggyback: bool, slot: u32, dst: u32, pkt: Packet) {
    let stats = sink.stats();
    let (packets, bytes) = match (up, piggyback) {
        (false, _) => return stats.lost_packets += 1,
        (true, true) => (&mut stats.piggyback_packets, &mut stats.piggyback_bytes),
        (true, false) => (&mut stats.scheduled_packets, &mut stats.scheduled_bytes),
    };
    *packets += 1;
    *bytes += pkt.bytes;
    sink.push(Event::Data {
        slot,
        dst,
        flow: pkt.flow,
        bytes: pkt.bytes,
    });
}

impl NegotiatorSim {
    /// ACCEPT (sharded by source ToR): consume grants delivered last
    /// epoch, fix this epoch's matching (direct matches, then relay
    /// grants on leftover ports) and, in stateful mode, revert the debits
    /// of rejected grants — the one cross-ToR write.
    pub(super) fn accept_step(&mut self) {
        self.active.fill(None);
        if self.opts.selective_relay {
            self.active_relay.fill(None);
        }
        let before = (self.stats.grants_issued, self.stats.accepts_made);
        let shards = shard::partition(self.n, self.par_workers());
        let mut inboxes = Rows::new(&mut self.inbox.grants, 1, &shards);
        let mut relay_inboxes = Rows::new(&mut self.inbox.relay_grant, 1, &shards);
        let mut arbs = Rows::new(&mut self.accept_arbs, 1, &shards);
        let mut actives = Rows::new(&mut self.active, self.s, &shards);
        let mut relay_actives = Rows::new(&mut self.active_relay, self.s, &shards);
        let ctxs = shards
            .iter()
            .map(|&shard| AcceptCtx {
                shard,
                s: self.s,
                opts: &self.opts,
                detector: &self.detector,
                inbox_grants: inboxes.window(),
                inbox_relay_grant: relay_inboxes.window(),
                accept_arbs: arbs.window(),
                active: actives.window(),
                active_relay: relay_actives.window(),
            })
            .collect();
        let mut direct = Direct {
            matrices: &mut self.matrices,
            ..Direct::new(&mut self.stats)
        };
        self.par
            .run(ctxs, &mut self.scratch, &mut direct, Replay::Concat);
        self.match_rec.record_epoch(
            self.stats.grants_issued - before.0,
            self.stats.accepts_made - before.1,
        );
    }

    /// GRANT (sharded by granter ToR): consume requests delivered last
    /// epoch and allocate ports. Request inboxes, grant arbiters, demand
    /// matrices and outgoing grant buckets are all granter-row state; the
    /// dirty-index merge concatenates lanes in shard order, matching the
    /// one-shard granter-ascending scan. Relay grants follow on the
    /// leftover ports.
    pub(super) fn grant_step(&mut self, epoch: u64) {
        self.clear_grant_buckets();
        let (n, s) = (self.n, self.s);
        let shards = shard::partition(n, self.par_workers());
        let stateful = matches!(self.opts.mode, SchedulerMode::Stateful);
        let mut inboxes = Rows::new(&mut self.inbox.requests, 1, &shards);
        let mut arbs = Rows::new(&mut self.grant_arbs, 1, &shards);
        let mut matrices = Rows::new(&mut self.matrices, usize::from(stateful), &shards);
        let mut buckets = Rows::new(&mut self.out.grants, n, &shards);
        let mut flags = Rows::new(&mut self.msg_flags, n, &shards);
        let mut granted = Rows::new(&mut self.port_granted, s, &shards);
        let ctxs = shards
            .iter()
            .map(|&shard| GrantCtx {
                shard,
                n,
                s,
                epoch,
                epoch_capacity: self.epoch_capacity,
                opts: &self.opts,
                detector: &self.detector,
                topo: &self.topo,
                faults: &self.faults,
                rx_buffer: &self.rx.buffer,
                inbox_requests: inboxes.window(),
                grant_arbs: arbs.window(),
                matrices: matrices.window(),
                grant_buckets: buckets.window(),
                msg_flags: flags.window(),
                port_granted: granted.window(),
            })
            .collect();
        let mut direct = Direct {
            dirty: Some(&mut self.grant_dirty),
            ..Direct::new(&mut self.stats)
        };
        self.par
            .run(ctxs, &mut self.scratch, &mut direct, Replay::Concat);
        if self.opts.selective_relay {
            self.relay_grant_step();
        }
    }

    /// REQUEST (sharded by source ToR): the O(n²) threshold scan over the
    /// dense `queue_bytes` mirror plus per-source outbox writes, touching
    /// the queue structs only for above-threshold pairs. Request presence
    /// is a bit in `msg_flags`, so only last epoch's undelivered
    /// stragglers need clearing — no per-epoch sweep over all `n²` pairs.
    pub(super) fn request_step(&mut self, now: Nanos) {
        for &i in &self.req_dirty {
            self.msg_flags[i as usize] &= !REQ_FLAG;
        }
        self.req_dirty.clear();
        let n = self.n;
        let shards = shard::partition(n, self.par_workers());
        let mut outs = Rows::new(&mut self.out.req, n, &shards);
        let mut ports = Rows::new(&mut self.out.req_port, n, &shards);
        let mut flags = Rows::new(&mut self.msg_flags, n, &shards);
        let mut reported = Rows::new(&mut self.reported_total, n, &shards);
        let ctxs = shards
            .iter()
            .map(|&shard| RequestCtx {
                shard,
                n,
                mode: self.opts.mode,
                now,
                threshold: self.cfg.request_threshold_bytes(),
                topo: &self.topo,
                queues: &self.data.queues,
                queue_bytes: &self.data.queue_bytes,
                enqueued_total: &self.data.enqueued_total,
                req_out: outs.window(),
                req_port_out: ports.window(),
                msg_flags: flags.window(),
                reported_total: reported.window(),
            })
            .collect();
        let mut direct = Direct {
            dirty: Some(&mut self.req_dirty),
            ..Direct::new(&mut self.stats)
        };
        self.par
            .run(ctxs, &mut self.scratch, &mut direct, Replay::Concat);
    }

    /// Predefined phase (sharded by source ToR). Shards inject their own
    /// flows at slot boundaries, clear their own REQ flags, drain their
    /// own piggyback queues and, unless `healthy`, write their own egress
    /// observations — and send every cross-ToR effect (messages, data,
    /// ingress observations) to the sink tagged with its slot. k-shard
    /// lanes replay slot-major, lanes in shard order within a slot, which
    /// is exactly the `(slot, src, port)` order of the one-shard loop.
    pub(super) fn predefined_shards(
        &mut self,
        flows: &[workload::Flow],
        cursor: usize,
        epoch: u64,
        t0: Nanos,
        healthy: bool,
        tracker: &mut FlowTracker,
    ) -> usize {
        let (n, s, pre_slot_len) = (self.n, self.s, self.pre_slot_len);
        let last_start = t0 + (self.pre_slots as Nanos - 1) * pre_slot_len;
        let end = cursor + flows[cursor..].partition_point(|f| f.arrival <= last_start);
        let rot = self.rotation(epoch);
        let shards = shard::partition(n, self.par_workers());
        let mut flags = Rows::new(&mut self.msg_flags, n, &shards);
        let mut observed = Rows::new(&mut self.egress_obs, s, &shards);
        let ctxs = self
            .data
            .split(&shards)
            .into_iter()
            .map(|rows| PredefCtx {
                rows,
                healthy,
                epoch,
                rot,
                t0,
                pre_slots: self.pre_slots,
                pre_slot_len,
                pb_payload: self.pb_payload,
                piggyback: self.cfg.piggyback,
                flows: &flows[cursor..end],
                cache: &self.pre_cache,
                out: &self.out,
                failures: &self.failures,
                faults: &self.faults,
                detector: &self.detector,
                msg_flags: flags.window(),
                egress_obs: observed.window(),
            })
            .collect();
        let first = t0 + pre_slot_len + self.cfg.net.propagation_delay;
        let mut direct = Direct {
            msgs: Some((&mut self.inbox, &self.out, n)),
            rx: Some((&mut self.rx, tracker, first, pre_slot_len)),
            ingress: Some((&mut self.ingress_obs, s)),
            ..Direct::new(&mut self.stats)
        };
        let replay = Replay::SlotMajor(self.pre_slots);
        self.par.run(ctxs, &mut self.scratch, &mut direct, replay);
        end
    }

    /// Scheduled phase (sharded by source ToR), slot-major: at each slot a
    /// shard injects its own sources' arrivals, then moves one packet per
    /// entry of its run of `active_list` (the list is `(src, port)`
    /// ordered, so runs are contiguous). Data events carry the slot `k`;
    /// k-shard lanes replay slot-major, which is the one-shard order.
    /// A relay transmission enqueues at the intermediate ToR mid-phase —
    /// a write to another ToR's row that only a one-shard run may make.
    pub(super) fn scheduled_phase(
        &mut self,
        flows: &[workload::Flow],
        cursor: usize,
        t0: Nanos,
        tracker: &mut FlowTracker,
    ) -> usize {
        let (n, s) = (self.n, self.s);
        let (k_slots, slot_len) = (
            self.cfg.epoch.scheduled_slots,
            self.cfg.epoch.scheduled_slot,
        );
        if k_slots == 0 {
            return cursor;
        }
        // Slots outside the active list are unmatched for the whole phase
        // (arithmetic, not iteration); relay slots that drain mid-phase
        // count from then on, in the body.
        self.stats.unmatched_slots += ((n * s - self.active_list.len()) * k_slots) as u64;
        let sched_start = t0 + self.pre_slots as Nanos * self.pre_slot_len;
        let last_start = sched_start + (k_slots as Nanos - 1) * slot_len;
        let end = cursor + flows[cursor..].partition_point(|f| f.arrival <= last_start);
        let shards = shard::partition(n, self.par_workers());
        assert!(
            !self.opts.selective_relay || shards.len() == 1,
            "relay transmissions write the intermediate ToR's rows: one shard only"
        );
        let mut relays = Rows::new(&mut self.active_relay, s, &shards);
        let list = &self.active_list[..];
        let ctxs = self
            .data
            .split(&shards)
            .into_iter()
            .map(|rows| {
                let run_of = |src| list.partition_point(|e| (e.slot as usize) < src * s);
                let entries = &list[run_of(rows.shard.start)..run_of(rows.shard.end)];
                SchedCtx {
                    rows,
                    k_slots,
                    sched_start,
                    slot_len,
                    prop: self.cfg.net.propagation_delay,
                    sched_payload: self.sched_payload,
                    flows: &flows[cursor..end],
                    failures: &self.failures,
                    entries,
                    active_relay: relays.window(),
                }
            })
            .collect();
        let first = sched_start + slot_len + self.cfg.net.propagation_delay;
        let mut direct = Direct {
            rx: Some((&mut self.rx, tracker, first, slot_len)),
            ..Direct::new(&mut self.stats)
        };
        let replay = Replay::SlotMajor(k_slots);
        self.par.run(ctxs, &mut self.scratch, &mut direct, replay);
        end
    }
}
