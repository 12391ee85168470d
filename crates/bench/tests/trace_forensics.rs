//! Trace-forensics output stability: `paper trace query` over the
//! committed golden trace must render exactly the committed expected
//! text. The golden (`tests/fixtures/golden_trace.ndjson`) is a
//! hand-written schema-v2 trace exercising every event kind across both
//! engine sections; the expectation pins the forensics report format so
//! the CI `trace-forensics` step and any tooling that scrapes the
//! report never drift silently. Refresh the expectation only on a
//! deliberate format change:
//!
//! ```text
//! paper trace query crates/bench/tests/fixtures/golden_trace.ndjson \
//!   --top-fct 3 > crates/bench/tests/fixtures/golden_trace_query.txt
//! ```

use std::path::PathBuf;

use bench::traceq;
use metrics::trace::{self, TraceEventKind};

fn fixture(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn golden_query_output_is_pinned() {
    let golden = fixture("golden_trace.ndjson");
    let expected = fixture("golden_trace_query.txt");
    let opts = traceq::QueryOpts {
        top_fct: Some(3),
        ..Default::default()
    };
    let got = traceq::query(&golden, &opts).expect("golden trace queries");
    assert_eq!(
        got.trim_end(),
        expected.trim_end(),
        "trace-query report drifted from the committed expectation; if \
         deliberate, refresh tests/fixtures/golden_trace_query.txt (see \
         the module doc)"
    );
}

#[test]
fn golden_trace_is_self_consistent() {
    let golden = fixture("golden_trace.ndjson");
    let t = trace::parse(&golden).expect("golden trace parses strictly");
    assert_eq!(t.len(), 2, "one section per engine");
    assert!(t.iter().all(|s| s.dropped == 0));
    // The fixture is canonical: parse → render reproduces it byte for byte.
    let rendered: String = t.iter().map(|s| s.render_ndjson()).collect();
    assert_eq!(rendered, golden, "golden trace does not round-trip");
    // Every event kind in the schema appears somewhere in the golden, so
    // the fixture keeps exercising the full vocabulary.
    for kind in [
        "sched",
        "control_drop",
        "detector",
        "fault",
        "backlog_watermark",
        "phase",
        "flow_born",
        "flow_request",
        "flow_grant",
        "flow_accept",
        "flow_first_tx",
        "flow_complete",
    ] {
        let kind = TraceEventKind::from_name(kind).unwrap();
        assert!(
            t.iter().flat_map(|s| &s.events).any(|e| e.kind == kind),
            "golden trace lost event kind {}",
            kind.name()
        );
    }
    // Self-diff: identical inputs must report no divergence.
    let outcome = traceq::diff("golden", &golden, "golden", &golden, 3);
    assert!(!outcome.divergent, "{}", outcome.report);
}
