//! Per-destination queues with PIAS-style mice prioritization (§3.1, §3.4.2).
//!
//! Every ToR keeps one queue per destination ToR. Arriving flow data is
//! split across three priority levels by cumulative byte count — the
//! information-agnostic PIAS scheme [3]: the first 1 KB of a flow is
//! highest priority, the next 9 KB middle, the remainder lowest (§4.1).
//! Dequeueing always serves the highest non-empty level; within a level,
//! FIFO. A flow's bytes therefore leave in order (its priority only ever
//! demotes), which is what keeps per-flow delivery in order end-to-end
//! (§3.6.5).
//!
//! With priority queues disabled everything lands on one level, giving the
//! plain FIFO of the "w/o PQ" configurations.

use sim::time::Nanos;
use std::collections::VecDeque;

/// Number of PIAS levels (§4.1 uses three).
pub const PRIORITY_LEVELS: usize = 3;

/// A contiguous run of one flow's bytes at one priority level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// Owning flow.
    pub flow: u64,
    /// Bytes in this segment still queued.
    pub bytes: u64,
    /// When the segment was enqueued (HoL waiting-delay measurements for
    /// the informative-requests variant, Appendix A.2.3).
    pub enqueued: Nanos,
    /// True when the bytes arrived over a relay hop and are being forwarded
    /// (traffic-aware selective relay, Appendix A.2.2) — the intermediate
    /// ToR's relay-buffer accounting needs to see them leave.
    pub relayed: bool,
}

/// One packet's worth of dequeued data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Packet {
    /// Owning flow.
    pub flow: u64,
    /// Payload bytes (≤ the per-packet payload limit).
    pub bytes: u64,
    /// Priority level the bytes came from (0 = highest).
    pub priority: usize,
    /// Whether the bytes were relay-forwarded (see [`Segment::relayed`]).
    pub relayed: bool,
}

/// The per-destination queue of one (source ToR, destination ToR) pair.
#[derive(Debug, Clone, Default)]
pub struct DestQueue {
    levels: [VecDeque<Segment>; PRIORITY_LEVELS],
    level_totals: [u64; PRIORITY_LEVELS],
    total_bytes: u64,
    relayed_bytes: u64,
}

impl DestQueue {
    /// Empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enqueue `bytes` of `flow` at `now`, split across priority levels by
    /// the PIAS `thresholds` (cumulative byte boundaries, e.g. `[1000,
    /// 10000]`). With `pias` false, all bytes go to level 0 (plain FIFO).
    pub fn enqueue_flow(
        &mut self,
        flow: u64,
        bytes: u64,
        now: Nanos,
        pias: bool,
        thresholds: [u64; PRIORITY_LEVELS - 1],
    ) {
        debug_assert!(bytes > 0, "flows carry at least one byte");
        self.total_bytes += bytes;
        if !pias {
            self.level_totals[0] += bytes;
            self.levels[0].push_back(Segment {
                flow,
                bytes,
                enqueued: now,
                relayed: false,
            });
            return;
        }
        let mut remaining = bytes;
        let mut prev_boundary = 0u64;
        for (level, &boundary) in thresholds.iter().enumerate() {
            let cap = boundary - prev_boundary;
            let take = remaining.min(cap);
            if take > 0 {
                self.level_totals[level] += take;
                self.levels[level].push_back(Segment {
                    flow,
                    bytes: take,
                    enqueued: now,
                    relayed: false,
                });
                remaining -= take;
            }
            prev_boundary = boundary;
        }
        if remaining > 0 {
            self.level_totals[PRIORITY_LEVELS - 1] += remaining;
            self.levels[PRIORITY_LEVELS - 1].push_back(Segment {
                flow,
                bytes: remaining,
                enqueued: now,
                relayed: false,
            });
        }
    }

    /// Total queued bytes.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Queued bytes that arrived over a relay hop (forwarding backlog).
    /// Relay qualification subtracts these so already-relayed data does not
    /// trigger further relaying.
    pub fn relayed_bytes(&self) -> u64 {
        self.relayed_bytes
    }

    /// Any data pending?
    pub fn has_data(&self) -> bool {
        self.total_bytes > 0
    }

    /// Bytes queued at one priority level (O(1)).
    pub fn level_bytes(&self, level: usize) -> u64 {
        self.level_totals[level]
    }

    /// Enqueue `bytes` of `flow` directly at `level` — the traffic-oblivious
    /// baseline splits flows itself (its first-KB chunks are bound to a VLB
    /// intermediate instead of queued here).
    pub fn enqueue_at_level(&mut self, flow: u64, bytes: u64, level: usize, now: Nanos) {
        debug_assert!(bytes > 0);
        self.total_bytes += bytes;
        self.level_totals[level] += bytes;
        self.levels[level].push_back(Segment {
            flow,
            bytes,
            enqueued: now,
            relayed: false,
        });
    }

    /// Dequeue one packet of at most `max_payload` bytes from a specific
    /// priority level.
    pub fn dequeue_level_packet(&mut self, level: usize, max_payload: u64) -> Option<Packet> {
        debug_assert!(max_payload > 0);
        let q = &mut self.levels[level];
        let seg = q.front_mut()?;
        let take = seg.bytes.min(max_payload);
        seg.bytes -= take;
        let (flow, relayed) = (seg.flow, seg.relayed);
        if seg.bytes == 0 {
            q.pop_front();
        }
        self.total_bytes -= take;
        self.level_totals[level] -= take;
        if relayed {
            self.relayed_bytes -= take;
        }
        Some(Packet {
            flow,
            bytes: take,
            priority: level,
            relayed,
        })
    }

    /// Enqueue time of the head-of-line segment at `level`, if any
    /// (Appendix A.2.3's weighted HoL waiting delay).
    pub fn hol_enqueued(&self, level: usize) -> Option<Nanos> {
        self.levels[level].front().map(|s| s.enqueued)
    }

    /// Dequeue one packet of at most `max_payload` bytes from the highest
    /// non-empty priority level. One packet carries bytes of one flow only
    /// (a short segment yields a short packet — the slot still costs full
    /// slot time, as on the wire).
    pub fn dequeue_packet(&mut self, max_payload: u64) -> Option<Packet> {
        debug_assert!(max_payload > 0);
        for (priority, level) in self.levels.iter_mut().enumerate() {
            if let Some(seg) = level.front_mut() {
                let take = seg.bytes.min(max_payload);
                seg.bytes -= take;
                let (flow, relayed) = (seg.flow, seg.relayed);
                if seg.bytes == 0 {
                    level.pop_front();
                }
                self.total_bytes -= take;
                self.level_totals[priority] -= take;
                if relayed {
                    self.relayed_bytes -= take;
                }
                return Some(Packet {
                    flow,
                    bytes: take,
                    priority,
                    relayed,
                });
            }
        }
        None
    }

    /// Enqueue relay-forwarded bytes at the lowest priority level (the
    /// intermediate ToR side of traffic-aware selective relay; relayed data
    /// never outranks the intermediate's own traffic).
    pub fn enqueue_relay(&mut self, flow: u64, bytes: u64, now: Nanos) {
        debug_assert!(bytes > 0);
        self.total_bytes += bytes;
        self.relayed_bytes += bytes;
        self.level_totals[PRIORITY_LEVELS - 1] += bytes;
        self.levels[PRIORITY_LEVELS - 1].push_back(Segment {
            flow,
            bytes,
            enqueued: now,
            relayed: true,
        });
    }

    /// Dequeue one packet from the *lowest* priority level only — used by
    /// the traffic-aware selective relay variant, which relays elephant
    /// (lowest-priority) data exclusively (Appendix A.2.2).
    pub fn dequeue_lowest_packet(&mut self, max_payload: u64) -> Option<Packet> {
        let level = &mut self.levels[PRIORITY_LEVELS - 1];
        let seg = level.front_mut()?;
        let take = seg.bytes.min(max_payload);
        seg.bytes -= take;
        let (flow, relayed) = (seg.flow, seg.relayed);
        if seg.bytes == 0 {
            level.pop_front();
        }
        self.total_bytes -= take;
        self.level_totals[PRIORITY_LEVELS - 1] -= take;
        if relayed {
            self.relayed_bytes -= take;
        }
        Some(Packet {
            flow,
            bytes: take,
            priority: PRIORITY_LEVELS - 1,
            relayed,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TH: [u64; 2] = [1_000, 10_000];

    #[test]
    fn pias_splits_a_large_flow_across_levels() {
        let mut q = DestQueue::new();
        q.enqueue_flow(7, 50_000, 0, true, TH);
        assert_eq!(q.level_bytes(0), 1_000);
        assert_eq!(q.level_bytes(1), 9_000);
        assert_eq!(q.level_bytes(2), 40_000);
        assert_eq!(q.total_bytes(), 50_000);
    }

    #[test]
    fn small_flow_stays_at_top_priority() {
        let mut q = DestQueue::new();
        q.enqueue_flow(1, 800, 0, true, TH);
        assert_eq!(q.level_bytes(0), 800);
        assert_eq!(q.level_bytes(1), 0);
    }

    #[test]
    fn mid_size_flow_spans_two_levels() {
        let mut q = DestQueue::new();
        q.enqueue_flow(1, 5_000, 0, true, TH);
        assert_eq!(q.level_bytes(0), 1_000);
        assert_eq!(q.level_bytes(1), 4_000);
        assert_eq!(q.level_bytes(2), 0);
    }

    #[test]
    fn without_pias_everything_is_fifo() {
        let mut q = DestQueue::new();
        q.enqueue_flow(1, 50_000, 0, false, TH);
        q.enqueue_flow(2, 500, 1, false, TH);
        assert_eq!(q.level_bytes(0), 50_500);
        // Elephant 1 fully drains before mice 2 — head-of-line blocking.
        let p = q.dequeue_packet(1_115).unwrap();
        assert_eq!(p.flow, 1);
    }

    #[test]
    fn pias_lets_late_mice_bypass_earlier_elephant_tail() {
        let mut q = DestQueue::new();
        q.enqueue_flow(1, 50_000, 0, true, TH); // elephant first
        q.enqueue_flow(2, 500, 1, true, TH); // mice later
                                             // Elephant's first 1 KB is level 0 and FIFO-ahead of the mice…
        assert_eq!(q.dequeue_packet(1_115).unwrap().flow, 1);
        // …but the mice's 500 B now outranks the elephant's levels 1/2.
        let p = q.dequeue_packet(1_115).unwrap();
        assert_eq!((p.flow, p.bytes, p.priority), (2, 500, 0));
    }

    #[test]
    fn dequeue_respects_packet_size_and_flow_boundaries() {
        let mut q = DestQueue::new();
        q.enqueue_flow(1, 2_500, 0, true, TH);
        // Level 0 holds 1000 B: one full packet caps at that segment.
        let p = q.dequeue_packet(1_115).unwrap();
        assert_eq!((p.flow, p.bytes, p.priority), (1, 1_000, 0));
        let p = q.dequeue_packet(1_115).unwrap();
        assert_eq!((p.flow, p.bytes, p.priority), (1, 1_115, 1));
        let p = q.dequeue_packet(1_115).unwrap();
        assert_eq!((p.flow, p.bytes, p.priority), (1, 385, 1));
        assert!(q.dequeue_packet(1_115).is_none());
        assert_eq!(q.total_bytes(), 0);
    }

    #[test]
    fn per_flow_byte_order_is_preserved() {
        // Priority only demotes, so a flow's own bytes always leave in order.
        let mut q = DestQueue::new();
        q.enqueue_flow(1, 12_000, 0, true, TH);
        q.enqueue_flow(2, 12_000, 5, true, TH);
        let mut seen = std::collections::BTreeMap::new();
        let mut last_prio: std::collections::BTreeMap<u64, usize> = Default::default();
        while let Some(p) = q.dequeue_packet(1_115) {
            *seen.entry(p.flow).or_insert(0u64) += p.bytes;
            let lp = last_prio.entry(p.flow).or_insert(0);
            assert!(p.priority >= *lp, "flow priority must only demote");
            *lp = p.priority;
        }
        assert_eq!(seen[&1], 12_000);
        assert_eq!(seen[&2], 12_000);
    }

    #[test]
    fn hol_enqueue_times() {
        let mut q = DestQueue::new();
        assert_eq!(q.hol_enqueued(0), None);
        q.enqueue_flow(1, 20_000, 42, true, TH);
        assert_eq!(q.hol_enqueued(0), Some(42));
        assert_eq!(q.hol_enqueued(2), Some(42));
    }

    #[test]
    fn dequeue_lowest_skips_mice_levels() {
        let mut q = DestQueue::new();
        q.enqueue_flow(1, 50_000, 0, true, TH);
        q.enqueue_flow(2, 500, 0, true, TH);
        let p = q.dequeue_lowest_packet(1_115).unwrap();
        assert_eq!((p.flow, p.priority), (1, 2));
        assert_eq!(q.total_bytes(), 50_500 - 1_115);
    }
}
