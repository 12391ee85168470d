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
//!    *granter* row. The type system — not a convention — rules out
//!    cross-shard writes.
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
//!    slot-major (the predefined phase tags events with their slot). The
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
//! * **Selective relay** runs these phases on one shard, and its relay
//!   REQUEST/GRANT steps (`relay_request_step`, `relay_grant_step`) are
//!   whole-fabric loops: relay grant admission reads `port_granted`/
//!   buffer claims written by lower-numbered ToRs in the same step — the
//!   visit order is semantic.
//! * **Iterative mode's epoch start**: `IterativeMatcher` is a global
//!   fixed point over all ToRs, not per-ToR work.
//! * **The failure/gray predefined loop and the general scheduled
//!   path** (flows arriving mid-phase, relay transmissions): observation
//!   arrays are cross-indexed and relay transmissions enqueue at another
//!   ToR; both are rare by construction.
//! * **`rebuild_active_list` and the flag-clearing prologues**: memset-
//!   class scans that cost less than a fork/join.

use super::*;
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
    /// A stateful debit of a rejected grant, returned to the granter's
    /// demand matrix.
    Revert { granter: u32, src: u32, debit: u64 },
}

impl Event {
    fn slot(&self) -> u32 {
        match *self {
            Event::Msg { slot, .. } | Event::Data { slot, .. } => slot,
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
    /// Scheduled-phase chunk starts into `active_list`.
    cuts: Vec<usize>,
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

struct PredefCtx<'a> {
    shard: Shard,
    n: usize,
    s: usize,
    rot: u64,
    t0: Nanos,
    pre_slots: usize,
    pre_slot_len: Nanos,
    pb_payload: u64,
    pias_th: [u64; 2],
    cfg: &'a NegotiatorConfig,
    /// Flows arriving during this phase; each shard enqueues only its own
    /// sources.
    flows: &'a [workload::Flow],
    cache: &'a PredefinedCache,
    pair_port_tbl: &'a [u8],
    queues: &'a mut [DestQueue],
    queue_bytes: &'a mut [u64],
    enqueued_total: &'a mut [u64],
    msg_flags: &'a mut [u8],
    relay_buffers: &'a mut [RelayBuffer],
    backlog_by_port: &'a mut [u64],
}

impl PredefCtx<'_> {
    /// The selective-relay per-port backlog entry of pair `(src, dst)`;
    /// `None` outside selective relay, which keeps no pair-port table.
    fn backlog_slot(&self, src: usize, dst: usize) -> Option<usize> {
        let port = *self.pair_port_tbl.get(src * self.n + dst)? as usize;
        Some((src - self.shard.start) * self.s + port)
    }
}

impl Body for PredefCtx<'_> {
    fn run<S: Sink>(self, _: &mut SimScratch, sink: &mut S) {
        let (n, shard) = (self.n, self.shard);
        let mut fi = 0;
        for slot in 0..self.pre_slots {
            let slot_start = self.t0 + slot as Nanos * self.pre_slot_len;
            while fi < self.flows.len() && self.flows[fi].arrival <= slot_start {
                let f = &self.flows[fi];
                fi += 1;
                if f.src < shard.start || f.src >= shard.end {
                    continue;
                }
                let row = (f.src - shard.start) * n + f.dst;
                let pias = self.cfg.priority_queues;
                self.queues[row].enqueue_flow(f.id, f.bytes, f.arrival, pias, self.pias_th);
                self.enqueued_total[row] += f.bytes;
                self.queue_bytes[row] += f.bytes;
                if let Some(b) = self.backlog_slot(f.src, f.dst) {
                    self.backlog_by_port[b] += f.bytes;
                }
            }
            let conns = self.cache.slot_conns_for_srcs(
                self.rot,
                slot,
                shard.start as u32,
                shard.end as u32,
            );
            let slot = slot as u32;
            for conn in conns {
                let (src, dst) = (conn.src as usize, conn.dst as usize);
                let row = (src - shard.start) * n + dst;
                let flags = self.msg_flags[row];
                if flags != 0 {
                    sink.push(Event::Msg {
                        slot,
                        src: conn.src,
                        dst: conn.dst,
                        flags,
                    });
                    self.msg_flags[row] &= !REQ_FLAG; // a request is delivered once
                }
                // Piggyback one data packet (§3.4.1).
                if self.cfg.piggyback && self.queue_bytes[row] > 0 {
                    let pkt = self.queues[row]
                        .dequeue_packet(self.pb_payload)
                        .expect("non-zero mirror implies a packet");
                    self.queue_bytes[row] -= pkt.bytes;
                    if let Some(b) = self.backlog_slot(src, dst) {
                        self.backlog_by_port[b] -= pkt.bytes;
                    }
                    if pkt.relayed {
                        self.relay_buffers[src - shard.start].release(pkt.bytes);
                    }
                    let stats = sink.stats();
                    stats.piggyback_packets += 1;
                    stats.piggyback_bytes += pkt.bytes;
                    sink.push(Event::Data {
                        slot,
                        dst: conn.dst,
                        flow: pkt.flow,
                        bytes: pkt.bytes,
                    });
                }
            }
        }
    }
}

struct SchedCtx<'a> {
    shard: Shard,
    n: usize,
    s: usize,
    k_slots: usize,
    sched_payload: u64,
    failures: &'a LinkFailures,
    /// This shard's chunk of `active_list`.
    entries: &'a [ActiveTx],
    queues: &'a mut [DestQueue],
    queue_bytes: &'a mut [u64],
    relay_buffers: &'a mut [RelayBuffer],
}

impl Body for SchedCtx<'_> {
    fn run<S: Sink>(self, sc: &mut SimScratch, sink: &mut S) {
        let (n, s, k_slots, entries) = (self.n, self.s, self.k_slots, self.entries);
        let mut i = 0;
        while i < entries.len() {
            // One source's run of entries (same src ⇒ contiguous, ≤ s long).
            let src = entries[i].slot as usize / s;
            let mut run_end = i + 1;
            while run_end < entries.len() && entries[run_end].slot as usize / s == src {
                run_end += 1;
            }
            let run = &entries[i..run_end];
            let shared_queue = run
                .iter()
                .enumerate()
                .any(|(a, e)| run[..a].iter().any(|f| f.dst == e.dst));
            let local = src - self.shard.start;
            if shared_queue {
                // Rare: one queue feeds several ports; replay slot order.
                for k in 0..k_slots {
                    for e in run {
                        let (port, dst) = (e.slot as usize % s, e.dst as usize);
                        let row = local * n + dst;
                        let Some(pkt) = self.queues[row].dequeue_packet(self.sched_payload) else {
                            sink.stats().overscheduled_slots += 1;
                            continue;
                        };
                        self.queue_bytes[row] -= pkt.bytes;
                        if pkt.relayed {
                            self.relay_buffers[local].release(pkt.bytes);
                        }
                        let up = self.failures.link_up(src, dst, port);
                        send(sink, up, k, e.dst, pkt);
                    }
                }
            } else {
                for e in run {
                    let (port, dst) = (e.slot as usize % s, e.dst as usize);
                    let row = local * n + dst;
                    sc.packets.clear();
                    self.queues[row].dequeue_packets_into(
                        self.sched_payload,
                        k_slots,
                        &mut sc.packets,
                    );
                    let drained: u64 = sc.packets.iter().map(|p| p.bytes).sum();
                    self.queue_bytes[row] -= drained;
                    sink.stats().overscheduled_slots += (k_slots - sc.packets.len()) as u64;
                    let up = self.failures.link_up(src, dst, port);
                    for (k, &pkt) in sc.packets.iter().enumerate() {
                        if pkt.relayed {
                            self.relay_buffers[local].release(pkt.bytes);
                        }
                        send(sink, up, k, e.dst, pkt);
                    }
                }
            }
            i = run_end;
        }
    }
}

/// One scheduled-slot transmission: delivered if the link is up, lost
/// otherwise.
#[inline]
fn send(sink: &mut impl Sink, up: bool, k: usize, dst: u32, pkt: Packet) {
    let stats = sink.stats();
    if !up {
        stats.lost_packets += 1;
        return;
    }
    stats.scheduled_packets += 1;
    stats.scheduled_bytes += pkt.bytes;
    sink.push(Event::Data {
        slot: k as u32,
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
                queues: &self.queues,
                queue_bytes: &self.queue_bytes,
                enqueued_total: &self.enqueued_total,
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

    /// Healthy-fabric predefined phase. Shards own source rows: they
    /// inject their own flows at slot boundaries, clear their own REQ
    /// flags, drain their own piggyback queues — and send every
    /// cross-ToR effect to the sink tagged with its slot. k-shard lanes
    /// replay slot-major, lanes in shard order within a slot, which is
    /// exactly the `(slot, src, port)` order of the one-shard loop.
    pub(super) fn predefined_healthy(
        &mut self,
        flows: &[workload::Flow],
        cursor: usize,
        rot: u64,
        t0: Nanos,
        tracker: &mut FlowTracker,
    ) -> usize {
        debug_assert!(
            !self.faults.gray_active(),
            "gray epochs take the failure path (healthy gate)"
        );
        let (n, s, pre_slot_len) = (self.n, self.s, self.pre_slot_len);
        let last_start = t0 + (self.pre_slots as Nanos - 1) * pre_slot_len;
        let end = cursor + flows[cursor..].partition_point(|f| f.arrival <= last_start);
        let shards = shard::partition(n, self.par_workers());
        let backlog_width = if self.backlog_by_port.is_empty() {
            0
        } else {
            s
        };
        let mut queues = Rows::new(&mut self.queues, n, &shards);
        let mut qbytes = Rows::new(&mut self.queue_bytes, n, &shards);
        let mut enq = Rows::new(&mut self.enqueued_total, n, &shards);
        let mut flags = Rows::new(&mut self.msg_flags, n, &shards);
        let mut bufs = Rows::new(&mut self.relay_buffers, 1, &shards);
        let mut backlogs = Rows::new(&mut self.backlog_by_port, backlog_width, &shards);
        let ctxs = shards
            .iter()
            .map(|&shard| PredefCtx {
                shard,
                n,
                s,
                rot,
                t0,
                pre_slots: self.pre_slots,
                pre_slot_len,
                pb_payload: self.pb_payload,
                pias_th: self.pias_th,
                cfg: &self.cfg,
                flows: &flows[cursor..end],
                cache: &self.pre_cache,
                pair_port_tbl: &self.pair_port_tbl,
                queues: queues.window(),
                queue_bytes: qbytes.window(),
                enqueued_total: enq.window(),
                msg_flags: flags.window(),
                relay_buffers: bufs.window(),
                backlog_by_port: backlogs.window(),
            })
            .collect();
        let first = t0 + pre_slot_len + self.cfg.net.propagation_delay;
        let mut direct = Direct {
            msgs: Some((&mut self.inbox, &self.out, n)),
            rx: Some((&mut self.rx, tracker, first, pre_slot_len)),
            ..Direct::new(&mut self.stats)
        };
        let replay = Replay::SlotMajor(self.pre_slots);
        self.par.run(ctxs, &mut self.scratch, &mut direct, replay);
        end
    }

    /// Quiet scheduled phase: each matched port pulls its whole phase's
    /// packets in one batch dequeue; ports of one source serving the
    /// *same* destination queue replay exact slot order instead (their
    /// interleaving determines which packet each port carries).
    /// `active_list` is split at source-run boundaries into per-shard
    /// chunks (the list is slot-ordered, so chunks cover disjoint,
    /// ascending source ranges); data events carry the scheduled slot
    /// `k` and replay in lane order = list order = one-shard order.
    pub(super) fn scheduled_batched(&mut self, sched_start: Nanos, tracker: &mut FlowTracker) {
        debug_assert!(!self.opts.selective_relay, "relay takes the general path");
        let list = &self.active_list[..];
        if list.is_empty() {
            return;
        }
        let (n, s) = (self.n, self.s);
        let workers = self.par_workers();
        // Chunk starts, aligned so no source's run spans two chunks.
        let cuts = &mut self.par.cuts;
        cuts.clear();
        cuts.push(0);
        for c in 1..workers {
            let mut i = (list.len() * c) / workers;
            if i > 0 {
                let prev = list[i - 1].slot as usize / s;
                while i < list.len() && list[i].slot as usize / s == prev {
                    i += 1;
                }
            }
            if i > cuts[cuts.len() - 1] && i < list.len() {
                cuts.push(i);
            }
        }
        cuts.push(list.len());
        // Source ranges covered by each chunk tile [0, n).
        let src_at = |i: usize| match i {
            0 => 0,
            i if i == list.len() => n,
            i => list[i].slot as usize / s,
        };
        let shards: Vec<_> = cuts
            .windows(2)
            .map(|w| Shard {
                start: src_at(w[0]),
                end: src_at(w[1]),
            })
            .collect();
        let mut queues = Rows::new(&mut self.queues, n, &shards);
        let mut qbytes = Rows::new(&mut self.queue_bytes, n, &shards);
        let mut bufs = Rows::new(&mut self.relay_buffers, 1, &shards);
        let ctxs = shards
            .iter()
            .zip(cuts.windows(2))
            .map(|(&shard, w)| SchedCtx {
                shard,
                n,
                s,
                k_slots: self.cfg.epoch.scheduled_slots,
                sched_payload: self.sched_payload,
                failures: &self.failures,
                entries: &list[w[0]..w[1]],
                queues: queues.window(),
                queue_bytes: qbytes.window(),
                relay_buffers: bufs.window(),
            })
            .collect();
        let slot_len = self.cfg.epoch.scheduled_slot;
        let first = sched_start + slot_len + self.cfg.net.propagation_delay;
        let mut direct = Direct {
            rx: Some((&mut self.rx, tracker, first, slot_len)),
            ..Direct::new(&mut self.stats)
        };
        self.par
            .run(ctxs, &mut self.scratch, &mut direct, Replay::Concat);
    }
}
