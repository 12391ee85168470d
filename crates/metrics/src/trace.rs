//! Deterministic flight recorder: a bounded ring of epoch-stamped events.
//!
//! Both engines can carry a [`FlightRecorder`] (behind an `Option`, so the
//! off state costs one branch per epoch) and emit structured events from
//! the *sequential* top of their main loop — after the parallel shards of
//! the previous epoch have merged — so a trace is a pure function of
//! (config, seed) and byte-identical at any `--workers` count. The ring is
//! preallocated at construction and never grows: recording is a store into
//! existing capacity, with no wall-clock reads and no allocation on the
//! hot path (lint D002/H001 apply to this module — `metrics` is an engine
//! zone). When the ring fills, the oldest events are overwritten and
//! counted in `dropped`, so a trace always holds the most recent window.
//!
//! Rendering to NDJSON ([`FlightRecorder::render_ndjson`]) happens once,
//! after the run, where allocation is fine. One schema table defines that
//! text: the renderer writes it and the strict [`parse`] reads it back for
//! every `paper trace` frontend. Its layout is documented in the README
//! "Observability" section and stamped with [`TRACE_SCHEMA_VERSION`].

use std::fmt::Write as _;

use crate::json::Json;
use crate::phase::PhaseCounters;
use sim::time::Nanos;

/// Version stamped on every `trace_start` line. Bump on any change to
/// event names or field layout. v2 added the causal flow-lifecycle span
/// events (`flow_born` … `flow_complete`).
pub const TRACE_SCHEMA_VERSION: u64 = 2;

/// Default ring capacity (events). Chosen so a daemon retaining traces for
/// its full job table stays bounded: 16 Ki events × 56 B (a [`TraceEvent`]
/// is six `u64` words plus the kind byte, padded) = 896 KiB per trace
/// before rendering.
pub const DEFAULT_TRACE_CAPACITY: usize = 16_384;

const _: () = assert!(std::mem::size_of::<TraceEvent>() == 56);

/// What a [`TraceEvent`] records. Each kind's payload fields are named,
/// in word order, by its row of the schema table below.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEventKind {
    /// Control-plane outcomes for one epoch, as deltas since the previous
    /// epoch. Emitted only when at least one delta is nonzero.
    Sched,
    /// Control messages dropped by gray failures, this epoch and in total.
    ControlDrop,
    /// Fault-detector divergence from ground truth changed: links excluded
    /// but healthy (false positives), links down but not excluded (false
    /// negatives).
    Detector,
    /// Scheduled fault activity applied at this epoch: injected actions
    /// (flap/partition/gray/greedy), plain link fail/repair events, and
    /// the cumulative total of both.
    Fault,
    /// A ToR's queued backlog reached a new high-water mark. Emitted when
    /// the backlog first becomes nonzero and thereafter only when it
    /// doubles the previous mark, so a congested run cannot flood the ring.
    Backlog,
    /// A workload phase boundary passed.
    Phase,
    /// A flow arrived at its source ToR.
    FlowBorn,
    /// First REQUEST covering the flow's (src, dst) pair after its birth.
    FlowRequest,
    /// First GRANT covering the flow's pair.
    FlowGrant,
    /// First ACCEPT (scheduled transmission slot) covering the flow's pair.
    FlowAccept,
    /// The flow's first payload bytes were dequeued toward the destination.
    FlowFirstTx,
    /// The flow's last byte was delivered (completion *is* last-packet
    /// dequeue at the destination ToR); `fct_ns` is its completion time.
    FlowComplete,
}

/// The trace schema, the one place that knows it: each kind's `"event"`
/// name and its payload field names in render order — field `i` holds
/// payload word `i` (`a`..`d`) of the [`TraceEvent`]. The writer
/// ([`FlightRecorder::render_ndjson`]) and the reader ([`parse`]) both
/// read this table, so they cannot drift apart.
#[rustfmt::skip]
const SCHEMA: [(TraceEventKind, &str, &[&str]); 12] = [
    (TraceEventKind::Sched, "sched", &["requests", "grants", "accepts"]),
    (TraceEventKind::ControlDrop, "control_drop", &["dropped", "total"]),
    (TraceEventKind::Detector, "detector", &["fp_links", "fn_links"]),
    (TraceEventKind::Fault, "fault", &["injected", "link_events", "total"]),
    (TraceEventKind::Backlog, "backlog_watermark", &["tor", "bytes"]),
    (TraceEventKind::Phase, "phase",
        &["phase", "delivered_bytes", "backlog_bytes", "partitioned_tors"]),
    (TraceEventKind::FlowBorn, "flow_born", &["flow", "src", "dst", "bytes"]),
    (TraceEventKind::FlowRequest, "flow_request", &["flow", "src", "dst"]),
    (TraceEventKind::FlowGrant, "flow_grant", &["flow", "src", "dst"]),
    (TraceEventKind::FlowAccept, "flow_accept", &["flow", "src", "dst"]),
    (TraceEventKind::FlowFirstTx, "flow_first_tx", &["flow", "sent_bytes"]),
    (TraceEventKind::FlowComplete, "flow_complete", &["flow", "fct_ns", "src", "dst"]),
];

impl TraceEventKind {
    fn row(self) -> &'static (TraceEventKind, &'static str, &'static [&'static str]) {
        let row = SCHEMA.iter().find(|row| row.0 == self);
        row.expect("every kind has a schema row")
    }

    /// The `"event"` field value on the NDJSON line.
    pub fn name(self) -> &'static str {
        self.row().1
    }

    /// Payload field names in render order; field `i` holds word `i`.
    fn fields(self) -> &'static [&'static str] {
        self.row().2
    }

    /// The kind whose `"event"` name is `name`; the error lists every
    /// valid name.
    pub fn from_name(name: &str) -> Result<TraceEventKind, String> {
        let row = SCHEMA.iter().find(|row| row.1 == name);
        row.map(|row| row.0).ok_or_else(|| {
            let valid = SCHEMA.map(|row| row.1).join(", ");
            format!("unknown event kind '{name}' (valid kinds: {valid})")
        })
    }
}

/// One fixed-size recorded event. `Copy` so ring writes are plain stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulated time of the epoch (or slot) that emitted the event.
    pub at: Nanos,
    /// Epoch (negotiator) or slot (oblivious) index.
    pub epoch: u64,
    /// Event kind; selects the meaning of the payload words.
    pub kind: TraceEventKind,
    /// First payload word.
    pub a: u64,
    /// Second payload word.
    pub b: u64,
    /// Third payload word.
    pub c: u64,
    /// Fourth payload word.
    pub d: u64,
}

impl TraceEvent {
    /// An event whose payload words `[a, b, c, d]` hold its schema fields.
    #[inline]
    pub fn new(at: Nanos, epoch: u64, kind: TraceEventKind, payload: [u64; 4]) -> TraceEvent {
        let [a, b, c, d] = payload;
        TraceEvent {
            at,
            epoch,
            kind,
            a,
            b,
            c,
            d,
        }
    }

    /// The NDJSON fields after `"event"`, in render order: `epoch`,
    /// `t_ns`, then the kind's payload fields.
    pub(crate) fn fields(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        let payload = [self.a, self.b, self.c, self.d];
        [("epoch", self.epoch), ("t_ns", self.at)]
            .into_iter()
            .chain(self.kind.fields().iter().copied().zip(payload))
    }

    /// The value of field `key`, when this kind carries it.
    pub fn get(&self, key: &str) -> Option<u64> {
        self.fields().find(|&(k, _)| k == key).map(|(_, v)| v)
    }
}

/// Cumulative engine counters the recorder diffs against between epochs.
/// Engines fill whichever fields they track; the recorder turns them into
/// delta/transition events.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceCursor {
    /// REQUEST messages sent so far.
    pub requests: u64,
    /// GRANTs issued so far.
    pub grants: u64,
    /// ACCEPTs made so far.
    pub accepts: u64,
    /// Control messages dropped so far.
    pub control_dropped: u64,
    /// Current detector false-positive link count.
    pub detector_fp: u64,
    /// Current detector false-negative link count.
    pub detector_fn: u64,
}

/// Preallocated, bounded recorder of [`TraceEvent`]s.
///
/// Construct with [`FlightRecorder::with_capacity`], hand it to an engine
/// before `run()`, take it back afterwards and render. All recording
/// methods are allocation-free; `n_tors` sizes the per-ToR watermark table
/// up front.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    events: Vec<TraceEvent>,
    head: usize,
    dropped: u64,
    last: TraceCursor,
    watermarks: Vec<u64>,
}

impl FlightRecorder {
    /// Recorder holding at most `capacity` events, tracking backlog
    /// watermarks for `n_tors` ToRs. `capacity` must be nonzero.
    pub fn with_capacity(capacity: usize, n_tors: usize) -> FlightRecorder {
        assert!(capacity > 0, "flight recorder capacity must be nonzero");
        FlightRecorder {
            events: Vec::with_capacity(capacity),
            head: 0,
            dropped: 0,
            last: TraceCursor::default(),
            watermarks: vec![0; n_tors],
        }
    }

    /// Events currently held, oldest first.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events overwritten after the ring filled.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    // lint: hot-path
    /// Append one event, overwriting the oldest when full. Called from
    /// engine main loops: a branch and a store, nothing else.
    #[inline]
    pub fn record(&mut self, ev: TraceEvent) {
        if self.events.len() < self.events.capacity() {
            // lint: allow(H001) push into preallocated capacity; the ring never grows
            self.events.push(ev);
        } else {
            self.events[self.head] = ev;
            self.head += 1;
            if self.head == self.events.len() {
                self.head = 0;
            }
            self.dropped += 1;
        }
    }

    // lint: hot-path
    /// Diff `now` against the previous epoch's cursor and emit `sched`,
    /// `control_drop` and `detector` events for whatever changed.
    #[inline]
    pub fn epoch_counters(&mut self, at: Nanos, epoch: u64, now: TraceCursor) {
        let (dr, dg, da) = (
            now.requests - self.last.requests,
            now.grants - self.last.grants,
            now.accepts - self.last.accepts,
        );
        if dr | dg | da != 0 {
            self.record(TraceEvent::new(
                at,
                epoch,
                TraceEventKind::Sched,
                [dr, dg, da, 0],
            ));
        }
        let dd = now.control_dropped - self.last.control_dropped;
        if dd != 0 {
            self.record(TraceEvent::new(
                at,
                epoch,
                TraceEventKind::ControlDrop,
                [dd, now.control_dropped, 0, 0],
            ));
        }
        if now.detector_fp != self.last.detector_fp || now.detector_fn != self.last.detector_fn {
            self.record(TraceEvent::new(
                at,
                epoch,
                TraceEventKind::Detector,
                [now.detector_fp, now.detector_fn, 0, 0],
            ));
        }
        self.last = now;
    }

    // lint: hot-path
    /// Record fault-schedule activity: `injected` adversarial actions and
    /// `links` plain fail/repair events applied at this epoch. No-op when
    /// both are zero.
    #[inline]
    pub fn fault_applied(&mut self, at: Nanos, epoch: u64, injected: u64, links: u64, total: u64) {
        if injected | links != 0 {
            self.record(TraceEvent::new(
                at,
                epoch,
                TraceEventKind::Fault,
                [injected, links, total, 0],
            ));
        }
    }

    // lint: hot-path
    /// Offer one ToR's current backlog; emits a `backlog_watermark` event
    /// only when it first becomes nonzero or doubles the previous mark.
    #[inline]
    pub fn backlog_sample(&mut self, at: Nanos, epoch: u64, tor: usize, bytes: u64) {
        let mark = &mut self.watermarks[tor];
        if bytes > 0 && (*mark == 0 || bytes >= *mark * 2) {
            *mark = bytes;
            self.record(TraceEvent::new(
                at,
                epoch,
                TraceEventKind::Backlog,
                [tor as u64, bytes, 0, 0],
            ));
        }
    }

    // lint: hot-path
    /// Record a workload phase boundary from the same counters the
    /// [`crate::PhaseProbe`] snapshot carries.
    #[inline]
    pub fn phase_boundary(&mut self, at: Nanos, epoch: u64, phase: u64, c: &PhaseCounters) {
        self.record(TraceEvent::new(
            at,
            epoch,
            TraceEventKind::Phase,
            [
                phase,
                c.delivered_bytes,
                c.backlog_bytes,
                c.partitioned_tors,
            ],
        ));
    }

    /// Iterate events oldest-first (accounting for ring wrap).
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        let (wrapped, recent) = if self.dropped > 0 {
            let (a, b) = self.events.split_at(self.head);
            (b, a)
        } else {
            (&self.events[..], &self.events[..0])
        };
        wrapped.iter().chain(recent.iter())
    }

    /// Render the trace as NDJSON: a `trace_start` header, one line per
    /// event oldest-first, and a `trace_end` footer carrying the held and
    /// dropped counts. Called once after the run — allocation is fine
    /// here.
    pub fn render_ndjson(&self, system: &str) -> String {
        TraceSection {
            system: system.to_string(),
            capacity: self.events.capacity() as u64,
            events: self.events().copied().collect(),
            dropped: self.dropped,
        }
        .render_ndjson()
    }
}

/// One engine section of a trace, as [`parse`] reads it back. The held
/// count of the `trace_end` footer is `events.len()`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSection {
    /// Engine label from the `trace_start` header.
    pub system: String,
    /// Ring capacity from the header.
    pub capacity: u64,
    /// Held events, oldest first.
    pub events: Vec<TraceEvent>,
    /// Ring-overflow count from the footer.
    pub dropped: u64,
}

impl TraceSection {
    /// The section's NDJSON: the `trace_start` header, one line per event,
    /// and the `trace_end` footer declaring the held and dropped counts.
    pub fn render_ndjson(&self) -> String {
        let mut out = String::new();
        TraceLine::Start(self.system.clone(), self.capacity).write_ndjson(&mut out);
        for &ev in &self.events {
            TraceLine::Event(ev).write_ndjson(&mut out);
        }
        let held = self.events.len() as u64;
        TraceLine::End(self.system.clone(), held, self.dropped).write_ndjson(&mut out);
        out
    }
}

/// One trace line, typed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceLine {
    /// `trace_start`, opening an engine section: `(system, capacity)`.
    Start(String, u64),
    /// One recorded event.
    Event(TraceEvent),
    /// `trace_end`, closing it: `(system, held events, dropped)`.
    End(String, u64, u64),
}

impl TraceLine {
    /// Append the line's NDJSON, newline included — the one renderer of
    /// every trace line. Event names and field keys are plain identifiers,
    /// so event lines are written directly, without escaping.
    pub fn write_ndjson(&self, out: &mut String) {
        let mut line = Json::object();
        match self {
            TraceLine::Event(ev) => {
                let _ = write!(out, "{{\"event\":\"{}\"", ev.kind.name());
                for (key, value) in ev.fields() {
                    let _ = write!(out, ",\"{key}\":{value}");
                }
                return out.push_str("}\n");
            }
            TraceLine::Start(system, capacity) => line
                .push("event", "trace_start")
                .push("schema_version", TRACE_SCHEMA_VERSION)
                .push("system", system.as_str())
                .push("capacity", *capacity),
            TraceLine::End(system, events, dropped) => line
                .push("event", "trace_end")
                .push("system", system.as_str())
                .push("events", *events)
                .push("dropped", *dropped),
        };
        out.push_str(&line.render_compact());
        out.push('\n');
    }
}

/// Parse one trace line strictly. Every integer field its kind carries
/// must be present, a `trace_start` must carry
/// [`TRACE_SCHEMA_VERSION`], and the line must be exactly what the
/// renderer writes for what was read — which rejects extra, reordered or
/// reformatted fields.
pub fn parse_line(line: &str) -> Result<TraceLine, String> {
    let v = Json::parse(line)?;
    let Some(event) = v.get("event").and_then(Json::as_str) else {
        return Err("missing \"event\" field".to_string());
    };
    let num = |key: &str| {
        v.get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("{event} has no unsigned integer \"{key}\""))
    };
    // A missing or mistyped `system` reads as "" and fails the canonical
    // comparison below.
    let system = String::from(v.get("system").and_then(Json::as_str).unwrap_or(""));
    let parsed = match event {
        "trace_start" => match num("schema_version")? {
            TRACE_SCHEMA_VERSION => TraceLine::Start(system, num("capacity")?),
            other => {
                return Err(format!(
                    "unsupported schema_version {other} (want {TRACE_SCHEMA_VERSION})"
                ))
            }
        },
        "trace_end" => TraceLine::End(system, num("events")?, num("dropped")?),
        name => {
            let kind = TraceEventKind::from_name(name)?;
            let mut payload = [0u64; 4];
            for (word, key) in payload.iter_mut().zip(kind.fields()) {
                *word = num(key)?;
            }
            TraceLine::Event(TraceEvent::new(num("t_ns")?, num("epoch")?, kind, payload))
        }
    };
    let mut canonical = String::new();
    parsed.write_ndjson(&mut canonical);
    if canonical.strip_suffix('\n') != Some(line) {
        return Err(format!(
            "not the canonical {event} line {}",
            canonical.trim_end()
        ));
    }
    Ok(parsed)
}

/// Parse flight-recorder NDJSON into its engine sections. Strict: every
/// line must pass [`parse_line`], and sections must nest — `trace_start`,
/// its events, then a `trace_end` naming the same system and declaring
/// exactly the section's event count. Errors name the offending 1-based
/// line: traces are machine-written, so any failure means the file is
/// not a trace this build wrote.
pub fn parse(text: &str) -> Result<Vec<TraceSection>, String> {
    let mut sections = Vec::new();
    let mut open: Option<TraceSection> = None;
    for (i, line) in text.lines().enumerate().filter(|(_, l)| !l.is_empty()) {
        let at = |e: &str| format!("line {}: {e}", i + 1);
        match (parse_line(line).map_err(|e| at(&e))?, open.as_mut()) {
            (TraceLine::Start(system, capacity), None) => {
                open = Some(TraceSection {
                    system,
                    capacity,
                    events: Vec::new(),
                    dropped: 0,
                });
            }
            (TraceLine::Event(ev), Some(section)) => section.events.push(ev),
            (TraceLine::End(system, events, dropped), Some(section)) => {
                let held = section.events.len() as u64;
                if system != section.system || events != held {
                    return Err(at(&format!(
                        "trace_end for '{system}' declares {events} events; \
                         the section of '{}' holds {held}",
                        section.system
                    )));
                }
                section.dropped = dropped;
                sections.extend(open.take());
            }
            (TraceLine::Start(..), Some(_)) => {
                return Err(at("trace_start inside an open section"))
            }
            (TraceLine::End(..), None) => return Err(at("trace_end without trace_start")),
            (TraceLine::Event(_), None) => return Err(at("event before trace_start")),
        }
    }
    match open {
        Some(s) => Err(format!(
            "trace for '{}' has no trace_end line (truncated file?)",
            s.system
        )),
        None if sections.is_empty() => {
            Err("no trace sections found (is this a --trace output file?)".to_string())
        }
        None => Ok(sections),
    }
}

/// Milestone bits a flow passes through, in causal order.
mod milestone {
    pub const BORN: u8 = 1 << 0;
    pub const REQUESTED: u8 = 1 << 1;
    pub const GRANTED: u8 = 1 << 2;
    pub const ACCEPTED: u8 = 1 << 3;
    pub const FIRST_TX: u8 = 1 << 4;
}

/// Causal flow-lifecycle span tracker: turns per-epoch engine state into
/// `flow_born → flow_request → flow_grant → flow_accept → flow_first_tx →
/// flow_complete` events on a [`FlightRecorder`].
///
/// The control plane negotiates per (src, dst) ToR *pair*, not per flow,
/// so engines stamp pair-level activity ([`FlowSpans::mark_request`] and
/// friends) with the epoch it happened in — stamping is idempotent and
/// order-independent, which is what keeps span bytes identical when a
/// parallel shard merge delivers the same pair set in a different order.
/// [`FlowSpans::sweep`] then walks the live flows in flow-id order (the
/// one deterministic order) and emits each flow's first crossing of each
/// milestone. All state is preallocated at construction
/// ([`FlowSpans::new`]); recording is allocation-free and reads no clock,
/// same discipline as the recorder itself.
#[derive(Debug, Clone)]
pub struct FlowSpans {
    n_tors: usize,
    /// Per-flow milestone bits (indexed by flow id).
    flags: Vec<u8>,
    src: Vec<u32>,
    dst: Vec<u32>,
    bytes: Vec<u64>,
    arrival: Vec<u64>,
    /// Per-pair (src * n_tors + dst) epoch of the most recent REQUEST /
    /// GRANT / ACCEPT; `u64::MAX` = never.
    pair_req: Vec<u64>,
    pair_grant: Vec<u64>,
    pair_accept: Vec<u64>,
    /// Born-but-incomplete flow ids, maintained in ascending id order.
    live: Vec<u32>,
    /// Next flow id to be born (flows are born in ascending id order, the
    /// injection order, so this is also the born count).
    born_next: usize,
}

impl FlowSpans {
    /// Span tracker for a run of `n_flows` flows over `n_tors` ToRs.
    /// Everything the hot path touches is sized here.
    pub fn new(n_tors: usize, n_flows: usize) -> FlowSpans {
        FlowSpans {
            n_tors,
            flags: vec![0; n_flows],
            src: vec![0; n_flows],
            dst: vec![0; n_flows],
            bytes: vec![0; n_flows],
            arrival: vec![0; n_flows],
            pair_req: vec![u64::MAX; n_tors * n_tors],
            pair_grant: vec![u64::MAX; n_tors * n_tors],
            pair_accept: vec![u64::MAX; n_tors * n_tors],
            live: Vec::with_capacity(n_flows),
            born_next: 0,
        }
    }

    /// Flows currently born but not yet complete.
    pub fn live_count(&self) -> usize {
        self.live.len()
    }

    /// The next flow id awaiting birth — engines birth `flows[next_born()
    /// .. injected]` each epoch, in id order.
    pub fn next_born(&self) -> usize {
        self.born_next
    }

    // lint: hot-path
    /// Record a flow's arrival at its source ToR and start tracking it.
    /// Flows must be born in ascending id order (the injection order).
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub fn born(
        &mut self,
        rec: &mut FlightRecorder,
        at: Nanos,
        epoch: u64,
        id: u32,
        src: u32,
        dst: u32,
        bytes: u64,
        arrival: Nanos,
    ) {
        let i = id as usize;
        debug_assert_eq!(i, self.born_next, "flows must be born in id order");
        self.born_next = i + 1;
        self.flags[i] = milestone::BORN;
        self.src[i] = src;
        self.dst[i] = dst;
        self.bytes[i] = bytes;
        self.arrival[i] = arrival;
        // lint: allow(H001) push into capacity preallocated for every flow
        self.live.push(id);
        rec.record(TraceEvent::new(
            at,
            epoch,
            TraceEventKind::FlowBorn,
            [id as u64, src as u64, dst as u64, bytes],
        ));
    }

    // lint: hot-path
    /// Stamp a REQUEST sent for pair `src → dst` at `epoch`. Idempotent
    /// and order-independent; events are emitted later by [`Self::sweep`].
    #[inline]
    pub fn mark_request(&mut self, src: u32, dst: u32, epoch: u64) {
        self.pair_req[src as usize * self.n_tors + dst as usize] = epoch;
    }

    // lint: hot-path
    /// Stamp a GRANT issued for pair `src → dst` at `epoch`.
    #[inline]
    pub fn mark_grant(&mut self, src: u32, dst: u32, epoch: u64) {
        self.pair_grant[src as usize * self.n_tors + dst as usize] = epoch;
    }

    // lint: hot-path
    /// Stamp an ACCEPT (scheduled slot) for pair `src → dst` at `epoch`.
    #[inline]
    pub fn mark_accept(&mut self, src: u32, dst: u32, epoch: u64) {
        self.pair_accept[src as usize * self.n_tors + dst as usize] = epoch;
    }

    // lint: hot-path
    /// Walk the live flows in flow-id order, emit every milestone crossed
    /// this `epoch`, and retire completed flows. `flow_state` reports a
    /// flow's `(remaining_bytes, completion_time)` — completion is
    /// last-byte delivery, so `flow_complete` doubles as the last-packet
    /// dequeue span end. Compacts `live` in place; no allocation.
    #[inline]
    pub fn sweep(
        &mut self,
        rec: &mut FlightRecorder,
        at: Nanos,
        epoch: u64,
        mut flow_state: impl FnMut(u32) -> (u64, Option<Nanos>),
    ) {
        let mut w = 0usize;
        for r in 0..self.live.len() {
            let id = self.live[r];
            let i = id as usize;
            let (src, dst) = (self.src[i], self.dst[i]);
            let pair = src as usize * self.n_tors + dst as usize;
            let steps: [(u8, u64, TraceEventKind); 3] = [
                (
                    milestone::REQUESTED,
                    self.pair_req[pair],
                    TraceEventKind::FlowRequest,
                ),
                (
                    milestone::GRANTED,
                    self.pair_grant[pair],
                    TraceEventKind::FlowGrant,
                ),
                (
                    milestone::ACCEPTED,
                    self.pair_accept[pair],
                    TraceEventKind::FlowAccept,
                ),
            ];
            for (bit, stamp, kind) in steps {
                if self.flags[i] & bit == 0 && stamp == epoch {
                    self.flags[i] |= bit;
                    rec.record(TraceEvent::new(
                        at,
                        epoch,
                        kind,
                        [id as u64, src as u64, dst as u64, 0],
                    ));
                }
            }
            let (remaining, completion) = flow_state(id);
            if self.flags[i] & milestone::FIRST_TX == 0 && remaining < self.bytes[i] {
                self.flags[i] |= milestone::FIRST_TX;
                rec.record(TraceEvent::new(
                    at,
                    epoch,
                    TraceEventKind::FlowFirstTx,
                    [id as u64, self.bytes[i] - remaining, 0, 0],
                ));
            }
            if let Some(done) = completion {
                rec.record(TraceEvent::new(
                    at,
                    epoch,
                    TraceEventKind::FlowComplete,
                    [id as u64, done - self.arrival[i], src as u64, dst as u64],
                ));
                continue; // retired: drop from the live list
            }
            self.live[w] = id;
            w += 1;
        }
        self.live.truncate(w);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(epoch: u64, a: u64) -> TraceEvent {
        TraceEvent {
            at: epoch * 100,
            epoch,
            kind: TraceEventKind::Sched,
            a,
            b: 0,
            c: 0,
            d: 0,
        }
    }

    #[test]
    fn ring_keeps_most_recent_and_counts_dropped() {
        let mut r = FlightRecorder::with_capacity(3, 0);
        for i in 0..5 {
            r.record(ev(i, i));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 2);
        let epochs: Vec<u64> = r.events().map(|e| e.epoch).collect();
        assert_eq!(epochs, vec![2, 3, 4], "oldest-first after wrap");
    }

    #[test]
    fn capacity_never_grows() {
        let mut r = FlightRecorder::with_capacity(4, 0);
        let cap = r.events.capacity();
        for i in 0..100 {
            r.record(ev(i, 0));
        }
        assert_eq!(r.events.capacity(), cap);
    }

    #[test]
    fn epoch_counters_emit_deltas_only_on_change() {
        let mut r = FlightRecorder::with_capacity(16, 0);
        let mut c = TraceCursor {
            requests: 5,
            grants: 3,
            accepts: 2,
            ..TraceCursor::default()
        };
        r.epoch_counters(100, 1, c);
        assert_eq!(r.len(), 1);
        let first = *r.events().next().unwrap();
        assert_eq!((first.a, first.b, first.c), (5, 3, 2));
        // Nothing changed: no new event.
        r.epoch_counters(200, 2, c);
        assert_eq!(r.len(), 1);
        // Drops and a detector transition land as separate events.
        c.control_dropped = 7;
        c.detector_fp = 1;
        r.epoch_counters(300, 3, c);
        let kinds: Vec<TraceEventKind> = r.events().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                TraceEventKind::Sched,
                TraceEventKind::ControlDrop,
                TraceEventKind::Detector
            ]
        );
    }

    #[test]
    fn backlog_watermark_requires_doubling() {
        let mut r = FlightRecorder::with_capacity(16, 2);
        r.backlog_sample(0, 0, 1, 100); // first nonzero: emit
        r.backlog_sample(1, 1, 1, 150); // below 2x: silent
        r.backlog_sample(2, 2, 1, 200); // 2x: emit
        r.backlog_sample(3, 3, 0, 50); // other ToR: emit
        let marks: Vec<(u64, u64)> = r
            .events()
            .filter(|e| e.kind == TraceEventKind::Backlog)
            .map(|e| (e.a, e.b))
            .collect();
        assert_eq!(marks, vec![(1, 100), (1, 200), (0, 50)]);
    }

    #[test]
    fn fault_applied_is_silent_when_nothing_fired() {
        let mut r = FlightRecorder::with_capacity(4, 0);
        r.fault_applied(0, 0, 0, 0, 0);
        assert!(r.is_empty());
        r.fault_applied(100, 1, 2, 1, 3);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn ndjson_round_trips_and_carries_schema_version() {
        let mut r = FlightRecorder::with_capacity(8, 1);
        r.epoch_counters(
            100,
            1,
            TraceCursor {
                requests: 1,
                grants: 1,
                accepts: 1,
                ..TraceCursor::default()
            },
        );
        r.backlog_sample(100, 1, 0, 64);
        r.phase_boundary(
            200,
            2,
            0,
            &PhaseCounters {
                delivered_bytes: 1024,
                backlog_bytes: 64,
                ..PhaseCounters::default()
            },
        );
        let text = r.render_ndjson("negotiator");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 5, "start + 3 events + end");
        let start = Json::parse(lines[0]).unwrap();
        assert_eq!(
            start.get("schema_version").and_then(Json::as_u64),
            Some(TRACE_SCHEMA_VERSION)
        );
        for line in &lines {
            Json::parse(line).expect("every trace line parses as JSON");
        }
        let end = Json::parse(lines[4]).unwrap();
        assert_eq!(end.get("events").and_then(Json::as_u64), Some(3));
        assert_eq!(end.get("dropped").and_then(Json::as_u64), Some(0));
        // The one parser reads back exactly what the renderer wrote.
        let sections = parse(&text).unwrap();
        assert_eq!(sections.len(), 1);
        assert_eq!(sections[0].events, r.events().copied().collect::<Vec<_>>());
        assert_eq!(sections[0].render_ndjson(), text);
    }

    const SAMPLE: &str = concat!(
        "{\"event\":\"trace_start\",\"schema_version\":2,\"system\":\"nego/parallel\",\"capacity\":16384}\n",
        "{\"event\":\"sched\",\"epoch\":1,\"t_ns\":5000,\"requests\":4,\"grants\":3,\"accepts\":3}\n",
        "{\"event\":\"sched\",\"epoch\":2,\"t_ns\":10000,\"requests\":2,\"grants\":2,\"accepts\":2}\n",
        "{\"event\":\"control_drop\",\"epoch\":2,\"t_ns\":10000,\"dropped\":1,\"total\":1}\n",
        "{\"event\":\"flow_complete\",\"epoch\":3,\"t_ns\":15000,\"flow\":0,\"fct_ns\":900,\"src\":1,\"dst\":2}\n",
        "{\"event\":\"trace_end\",\"system\":\"nego/parallel\",\"events\":4,\"dropped\":0}\n",
    );

    #[test]
    fn garbage_is_rejected_with_line_numbers() {
        assert_eq!(parse(SAMPLE).unwrap()[0].render_ndjson(), SAMPLE);
        let err = |text: &str| parse(text).unwrap_err();
        assert!(err("not json\n").contains("line 1"));
        // An incomplete event line fails on its fields; a complete one
        // before any header fails on its position.
        let e = err("{\"event\":\"sched\"}\n");
        assert!(
            e.starts_with("line 1: sched has no unsigned integer"),
            "{e}"
        );
        let e = err(SAMPLE.lines().nth(1).unwrap());
        assert!(e.contains("before trace_start"), "{e}");
        let e = err("");
        assert!(e.contains("no trace sections"), "{e}");
        let truncated = SAMPLE.lines().take(3).collect::<Vec<_>>().join("\n");
        let e = err(&truncated);
        assert!(e.contains("no trace_end"), "{e}");
        // Well-formed JSON that breaks the schema, each as one edit of
        // SAMPLE `(from, to, line, expected error)`: a renamed kind; a
        // missing, extra or mistyped payload field; a foreign schema
        // version; a footer whose count disagrees with its lines, edited
        // or after a line was spliced out.
        let control_drop = SAMPLE.lines().nth(3).unwrap();
        for (from, to, line, expect) in [
            (
                "\"sched\",\"epoch\":2",
                "\"shed\",\"epoch\":2",
                3,
                "unknown event kind 'shed' (valid kinds: sched,",
            ),
            (
                ",\"fct_ns\":900",
                "",
                5,
                "flow_complete has no unsigned integer \"fct_ns\"",
            ),
            (
                "\"dst\":2}",
                "\"dst\":2,\"hops\":1}",
                5,
                "not the canonical flow_complete line {\"event\"",
            ),
            (
                "\"requests\":4",
                "\"requests\":\"4\"",
                2,
                "sched has no unsigned integer \"requests\"",
            ),
            (
                "\"schema_version\":2",
                "\"schema_version\":9",
                1,
                "unsupported schema_version 9 (want 2)",
            ),
            (
                "\"events\":4",
                "\"events\":5",
                6,
                "declares 5 events; the section of 'nego/parallel' holds 4",
            ),
            (
                control_drop,
                "",
                6,
                "declares 4 events; the section of 'nego/parallel' holds 3",
            ),
        ] {
            let e = err(&SAMPLE.replacen(from, to, 1));
            assert!(
                e.starts_with(&format!("line {line}: ")) && e.contains(expect),
                "{e}"
            );
        }
    }

    #[test]
    fn flow_spans_emit_the_causal_lifecycle_once() {
        let mut r = FlightRecorder::with_capacity(64, 2);
        let mut s = FlowSpans::new(2, 1);
        // Epoch 0: birth + REQUEST, nothing sent yet.
        s.born(&mut r, 0, 0, 0, 0, 1, 1_000, 0);
        s.mark_request(0, 1, 0);
        s.sweep(&mut r, 0, 0, |_| (1_000, None));
        // Epoch 1: GRANT arrives; re-sweeping must not re-emit the request.
        s.mark_grant(0, 1, 1);
        s.sweep(&mut r, 100, 1, |_| (1_000, None));
        // Epoch 2: ACCEPT + first bytes move.
        s.mark_accept(0, 1, 2);
        s.sweep(&mut r, 200, 2, |_| (600, None));
        // Epoch 3: last byte delivered; flow retires.
        s.sweep(&mut r, 300, 3, |_| (0, Some(250)));
        assert_eq!(s.live_count(), 0);
        let kinds: Vec<TraceEventKind> = r.events().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                TraceEventKind::FlowBorn,
                TraceEventKind::FlowRequest,
                TraceEventKind::FlowGrant,
                TraceEventKind::FlowAccept,
                TraceEventKind::FlowFirstTx,
                TraceEventKind::FlowComplete,
            ]
        );
        let done = r.events().last().unwrap();
        assert_eq!((done.a, done.b, done.c, done.d), (0, 250, 0, 1));
        // Retired flows never re-emit, even if the pair stays active.
        s.mark_request(0, 1, 4);
        s.sweep(&mut r, 400, 4, |_| (0, Some(250)));
        assert_eq!(r.len(), 6);
    }

    #[test]
    fn flow_spans_stale_pair_stamps_do_not_leak_into_later_flows() {
        let mut r = FlightRecorder::with_capacity(64, 2);
        let mut s = FlowSpans::new(2, 2);
        s.born(&mut r, 0, 0, 0, 0, 1, 100, 0);
        s.mark_request(0, 1, 0);
        s.sweep(&mut r, 0, 0, |_| (100, None));
        // Flow 1 on the same pair is born two epochs later: the epoch-0
        // REQUEST stamp must not be attributed to it.
        s.born(&mut r, 200, 2, 1, 0, 1, 100, 200);
        s.sweep(&mut r, 200, 2, |id| (100, (id == 0).then_some(150)));
        let requests = r
            .events()
            .filter(|e| e.kind == TraceEventKind::FlowRequest)
            .count();
        assert_eq!(requests, 1, "only flow 0 saw the epoch-0 REQUEST");
        assert_eq!(s.live_count(), 1);
    }

    #[test]
    fn flow_span_events_render_with_named_fields() {
        let mut r = FlightRecorder::with_capacity(16, 2);
        let mut s = FlowSpans::new(2, 1);
        s.born(&mut r, 0, 0, 0, 1, 0, 512, 0);
        s.mark_request(1, 0, 0);
        s.sweep(&mut r, 0, 0, |_| (0, Some(90)));
        let text = r.render_ndjson("negotiator");
        assert!(text.contains(
            "\"event\":\"flow_born\",\"epoch\":0,\"t_ns\":0,\"flow\":0,\"src\":1,\"dst\":0,\"bytes\":512"
        ));
        assert!(text.contains("\"event\":\"flow_request\""));
        assert!(text.contains("\"event\":\"flow_first_tx\""));
        assert!(text.contains(
            "\"event\":\"flow_complete\",\"epoch\":0,\"t_ns\":0,\"flow\":0,\"fct_ns\":90"
        ));
        for line in text.lines() {
            Json::parse(line).expect("every span line parses");
        }
    }

    #[test]
    fn rendering_is_deterministic() {
        let build = || {
            let mut r = FlightRecorder::with_capacity(4, 1);
            for i in 0..9 {
                r.record(ev(i, i * 7));
            }
            r.render_ndjson("oblivious")
        };
        assert_eq!(build(), build());
    }
}
