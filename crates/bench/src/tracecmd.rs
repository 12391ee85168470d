//! The `paper trace <file.ndjson>` summarizer: render the sections of a
//! flight-recorder trace (parsed by `metrics::trace::parse`) as a
//! human-readable digest — per-section event histogram (top-K, most
//! frequent first), the per-phase convergence timeline from the `phase`
//! events, and overflow warnings when the ring dropped events. Pure
//! sections in, text out: unit-testable without files.

use std::collections::BTreeMap;

use metrics::trace::{TraceEventKind, TraceSection};

/// How many event kinds the histogram lists per section.
const TOP_K: usize = 8;

fn fmt_bytes(bytes: u64) -> String {
    match bytes {
        b if b >= 1 << 30 => format!("{:.2} GiB", b as f64 / (1u64 << 30) as f64),
        b if b >= 1 << 20 => format!("{:.2} MiB", b as f64 / (1u64 << 20) as f64),
        b if b >= 1 << 10 => format!("{:.2} KiB", b as f64 / (1u64 << 10) as f64),
        b => format!("{b} B"),
    }
}

/// Summarize parsed trace sections.
pub fn render(sections: &[TraceSection]) -> String {
    let mut out = String::new();
    for s in sections {
        out.push_str(&format!(
            "## {} — {} events ({} dropped)\n",
            s.system,
            s.events.len(),
            s.dropped
        ));
        if s.dropped > 0 {
            out.push_str(&format!(
                "   WARNING: ring overflowed; the oldest {} events were overwritten\n",
                s.dropped
            ));
        }
        let mut counts: BTreeMap<&str, u64> = BTreeMap::new();
        for ev in &s.events {
            *counts.entry(ev.kind.name()).or_insert(0) += 1;
        }
        // Most frequent first; the stable sort keeps ties in name order.
        let mut ranked: Vec<(&str, u64)> = counts.into_iter().collect();
        ranked.sort_by_key(|&(_, count)| std::cmp::Reverse(count));
        out.push_str("   top events:\n");
        if ranked.is_empty() {
            out.push_str("     (none recorded)\n");
        }
        for (name, count) in ranked.into_iter().take(TOP_K) {
            out.push_str(&format!("     {count:>8}  {name}\n"));
        }
        // `phase` payload: a = phase, b = delivered, c = backlog, d = partitioned ToRs.
        let phases: Vec<_> = s
            .events
            .iter()
            .filter(|e| e.kind == TraceEventKind::Phase)
            .collect();
        if !phases.is_empty() {
            out.push_str("   convergence timeline:\n");
            out.push_str("     phase       t_ms     delivered       backlog  part_tors\n");
            let mut prev_delivered = 0u64;
            for ev in phases {
                let delta = ev.b.saturating_sub(prev_delivered);
                prev_delivered = ev.b;
                out.push_str(&format!(
                    "     {:>5} {:>10.3} {:>13} {:>13} {:>10}   (+{} this phase)\n",
                    ev.a,
                    ev.at as f64 / 1e6,
                    fmt_bytes(ev.b),
                    fmt_bytes(ev.c),
                    ev.d,
                    fmt_bytes(delta),
                ));
            }
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use metrics::trace::parse;

    fn summarize(text: &str) -> String {
        render(&parse(text).unwrap())
    }

    const SAMPLE: &str = concat!(
        "{\"event\":\"trace_start\",\"schema_version\":2,\"system\":\"nego/parallel\",\"capacity\":16384}\n",
        "{\"event\":\"sched\",\"epoch\":1,\"t_ns\":5000,\"requests\":4,\"grants\":3,\"accepts\":3}\n",
        "{\"event\":\"sched\",\"epoch\":2,\"t_ns\":10000,\"requests\":2,\"grants\":2,\"accepts\":2}\n",
        "{\"event\":\"control_drop\",\"epoch\":2,\"t_ns\":10000,\"dropped\":1,\"total\":1}\n",
        "{\"event\":\"phase\",\"epoch\":3,\"t_ns\":15000,\"phase\":0,\"delivered_bytes\":2048,\"backlog_bytes\":512,\"partitioned_tors\":0}\n",
        "{\"event\":\"trace_end\",\"system\":\"nego/parallel\",\"events\":4,\"dropped\":0}\n",
    );

    #[test]
    fn summarizes_histogram_and_timeline() {
        let out = summarize(SAMPLE);
        assert!(
            out.contains("nego/parallel — 4 events (0 dropped)"),
            "{out}"
        );
        // sched (2) ranks above control_drop (1) and phase (1).
        let sched = out.find("sched").unwrap();
        let drop = out.find("control_drop").unwrap();
        assert!(sched < drop, "{out}");
        assert!(out.contains("convergence timeline"), "{out}");
        assert!(out.contains("2.00 KiB"), "{out}");
        assert!(!out.contains("WARNING"), "{out}");
    }

    #[test]
    fn overflow_warns() {
        let text = SAMPLE.replace("\"events\":4,\"dropped\":0", "\"events\":4,\"dropped\":9");
        let out = summarize(&text);
        assert!(out.contains("WARNING"), "{out}");
        assert!(out.contains("oldest 9 events"), "{out}");
    }

    #[test]
    fn multi_section_traces_render_each_engine() {
        let second = SAMPLE.replace("nego/parallel", "oblivious/parallel");
        let out = summarize(&format!("{SAMPLE}{second}"));
        assert!(out.contains("## nego/parallel"), "{out}");
        assert!(out.contains("## oblivious/parallel"), "{out}");
    }
}
