//! Flight-recorder determinism: the traced NDJSON for a scenario must be
//! byte-identical at any `--workers` count — the recorder only ever
//! observes fully-merged per-epoch state, so intra-run sharding can never
//! leak into trace bytes. This is the same guarantee the result document
//! already carries, extended to the observability plane: `paper scenario
//! --trace` on one machine and a daemon trace on another must `cmp`
//! equal. The causal flow-lifecycle span events ride the same discipline
//! (stamped from dirty *sets*, emitted in flow-id order), so the full
//! span timeline is pinned by the same byte comparison.
//!
//! Coverage: an injected-fault scenario (`gray_control_plane` — gray
//! control-plane drops, detector FP transitions), an adversarial one
//! (`greedy_tor`), and `ci_smoke`, which pins no `engines` list and so
//! runs *both* engines (negotiator + oblivious) through the recorder.
//! On top, `paper trace diff` self-tests: identical runs produce no
//! divergence, and a seed perturbation is pinned to its first divergent
//! event with the right coordinates.

use std::path::PathBuf;

use bench::scenario::{execute_traced, load};
use bench::traceq;
use metrics::trace::TraceEventKind;

fn scenarios_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../scenarios")
        .canonicalize()
        .expect("workspace scenarios/ directory")
}

/// Trace one scenario at several worker counts; all byte-identical.
fn assert_worker_invariant(file: &str) -> String {
    let compiled = load(&scenarios_dir().join(file)).expect("scenario compiles");
    let (report1, trace1, _) = execute_traced(&compiled, None, 1, None);
    for workers in [2, 8] {
        let (report, trace, _) = execute_traced(&compiled, None, workers, None);
        assert_eq!(
            trace1, trace,
            "{file}: trace bytes differ between --workers 1 and --workers {workers}"
        );
        assert_eq!(
            bench::scenario::deterministic_document(&report1),
            bench::scenario::deterministic_document(&report),
            "{file}: result document differs at --workers {workers}"
        );
    }
    trace1
}

/// The negotiator's full causal span vocabulary must appear: flows are
/// born, negotiate (REQUEST → GRANT → ACCEPT), move bytes, and complete.
fn assert_negotiator_spans(trace: &str, file: &str) {
    for kind in [
        "flow_born",
        "flow_request",
        "flow_grant",
        "flow_accept",
        "flow_first_tx",
        "flow_complete",
    ] {
        assert!(
            trace.contains(&format!("\"event\":\"{kind}\"")),
            "{file}: no {kind} span event in the trace"
        );
    }
}

#[test]
fn gray_control_plane_trace_is_worker_invariant() {
    let trace = assert_worker_invariant("gray_control_plane.json");
    assert!(trace.contains("\"event\":\"trace_start\""), "{trace}");
    assert!(trace.contains("\"event\":\"trace_end\""));
    // The gray phase drops control messages and flips the detector; both
    // event kinds must appear for the scenario to be exercising the
    // recorder at all.
    assert!(
        trace.contains("\"event\":\"control_drop\""),
        "gray failure must record control-message drops"
    );
    assert!(
        trace.contains("\"event\":\"detector\""),
        "gray failure must record detector FP/FN transitions"
    );
    assert!(trace.contains("\"event\":\"phase\""));
    assert_negotiator_spans(&trace, "gray_control_plane.json");
}

#[test]
fn greedy_tor_trace_is_worker_invariant() {
    let trace = assert_worker_invariant("greedy_tor.json");
    assert!(trace.contains("\"event\":\"sched\""));
    assert!(trace.contains("\"event\":\"phase\""));
    assert_negotiator_spans(&trace, "greedy_tor.json");
}

#[test]
fn both_engines_trace_is_worker_invariant() {
    // ci_smoke pins no engine list, so it runs negotiator AND oblivious;
    // the trace carries one section per engine, in engine order.
    let trace = assert_worker_invariant("ci_smoke.json");
    let starts = trace.matches("\"event\":\"trace_start\"").count();
    assert_eq!(starts, 2, "one section per engine:\n{trace}");
    assert!(trace.contains("\"system\":\"nego/parallel\""), "{trace}");
    assert!(
        trace.contains("\"system\":\"oblivious/parallel\""),
        "{trace}"
    );
    // ci_smoke injects link failures; the fault activations must be
    // visible in at least one engine's section.
    assert!(trace.contains("\"event\":\"fault\""), "{trace}");
    // The oblivious engine has no control plane: its section carries
    // born/first_tx/complete spans but never a negotiation milestone.
    let parsed = metrics::trace::parse(&trace).expect("trace parses");
    // A live trace is canonical: parse → render reproduces it byte for byte.
    let rendered: String = parsed.iter().map(|s| s.render_ndjson()).collect();
    assert_eq!(rendered, trace, "ci_smoke trace does not round-trip");
    let oblivious = parsed
        .iter()
        .find(|s| s.system.starts_with("oblivious"))
        .expect("oblivious section");
    assert!(
        oblivious
            .events
            .iter()
            .any(|e| e.kind == TraceEventKind::FlowComplete),
        "oblivious flows must complete"
    );
    for absent in [
        TraceEventKind::FlowRequest,
        TraceEventKind::FlowGrant,
        TraceEventKind::FlowAccept,
    ] {
        assert!(
            oblivious.events.iter().all(|e| e.kind != absent),
            "oblivious engine has no control plane, found {}",
            absent.name()
        );
    }
    // Every completed flow's milestones are causally ordered.
    for section in &parsed {
        for row in traceq::flow_rows(section) {
            let (Some(born), Some(done)) = (row.born, row.complete) else {
                continue;
            };
            assert!(
                born <= done,
                "{}: flow {} born after done",
                section.system,
                row.flow
            );
            for epoch in [row.request, row.grant, row.accept, row.first_tx]
                .into_iter()
                .flatten()
            {
                assert!(
                    born <= epoch && epoch <= done,
                    "{}: flow {} milestone {epoch} outside [{born}, {done}]",
                    section.system,
                    row.flow
                );
            }
        }
    }
}

#[test]
fn repeated_runs_are_reproducible() {
    // Same scenario, same worker count, fresh engines: identical bytes.
    let compiled = load(&scenarios_dir().join("greedy_tor.json")).expect("scenario compiles");
    let (_, a, _) = execute_traced(&compiled, None, 2, None);
    let (_, b, _) = execute_traced(&compiled, None, 2, None);
    assert_eq!(a, b);
}

#[test]
fn trace_capacity_shapes_only_the_trace() {
    // A deliberately tiny ring (the CLI minimum) overflows on a real
    // scenario: drops are declared in the footer, the summary and
    // document stay byte-identical to the default-capacity run.
    let compiled = load(&scenarios_dir().join("greedy_tor.json")).expect("scenario compiles");
    let (full_report, full, full_dropped) = execute_traced(&compiled, None, 1, None);
    let (small_report, small, small_dropped) = execute_traced(&compiled, None, 1, Some(1024));
    assert_eq!(
        bench::scenario::deterministic_document(&full_report),
        bench::scenario::deterministic_document(&small_report),
        "ring capacity must never reach the result document"
    );
    assert_eq!(full_dropped, 0, "default ring must not overflow");
    assert!(
        small_dropped > 0,
        "1Ki ring must overflow on greedy_tor:\n{}",
        small.lines().last().unwrap_or("")
    );
    // The recorders' count is the one the footers declare.
    for (text, dropped) in [(&full, full_dropped), (&small, small_dropped)] {
        let sections = metrics::trace::parse(text).expect("trace parses");
        assert_eq!(sections.iter().map(|s| s.dropped).sum::<u64>(), dropped);
    }
    assert!(
        small.contains("\"capacity\":1024"),
        "header declares the ring size"
    );
    // A capacity-limited trace is still worker-invariant.
    let (_, small8, _) = execute_traced(&compiled, None, 8, Some(1024));
    assert_eq!(small, small8);
}

#[test]
fn diff_of_identical_runs_reports_no_divergence() {
    let compiled = load(&scenarios_dir().join("greedy_tor.json")).expect("scenario compiles");
    let (_, a, _) = execute_traced(&compiled, None, 1, None);
    let (_, b, _) = execute_traced(&compiled, None, 4, None);
    let outcome = traceq::diff("workers1", &a, "workers4", &b, 3);
    assert!(!outcome.divergent, "{}", outcome.report);
    assert!(outcome.report.contains("identical"), "{}", outcome.report);
}

#[test]
fn diff_pins_a_seed_perturbation_to_its_first_divergent_event() {
    // Perturb the workload seed: the traces share the header, then split
    // at the first event the changed workload reaches. The diff must
    // exit divergent and name that event with epoch + kind coordinates.
    let dir = scenarios_dir();
    let text = std::fs::read_to_string(dir.join("greedy_tor.json")).expect("scenario file");
    let a = load(&dir.join("greedy_tor.json")).expect("scenario compiles");
    let spec = bench::scenario::parse_scenario(&text).expect("parses");
    let perturbed = text.replace(
        &format!("\"seed\": {}", spec.seed),
        &format!("\"seed\": {}", spec.seed + 1),
    );
    assert_ne!(text, perturbed, "seed field must be present to perturb");
    let b = bench::scenario::compile(
        bench::scenario::parse_scenario(&perturbed).expect("parses"),
        &dir,
    )
    .expect("compiles");
    let (_, trace_a, _) = execute_traced(&a, None, 1, None);
    let (_, trace_b, _) = execute_traced(&b, None, 1, None);
    let outcome = traceq::diff("seed", &trace_a, "seed+1", &trace_b, 3);
    assert!(outcome.divergent, "seed change must diverge the trace");
    assert!(
        outcome.report.contains("first divergent event"),
        "{}",
        outcome.report
    );
    // The headline names the event: epoch + kind on both sides.
    assert!(
        outcome.report.contains("a = epoch ") && outcome.report.contains("b = epoch "),
        "{}",
        outcome.report
    );
    // Line-exact location: the named line index really is the first
    // difference between the two traces.
    let (la, lb): (Vec<&str>, Vec<&str>) = (trace_a.lines().collect(), trace_b.lines().collect());
    let first = (0..la.len().min(lb.len()))
        .find(|&i| la[i] != lb[i])
        .expect("traces differ");
    assert!(
        outcome
            .report
            .contains(&format!("diverge at line {}", first + 1)),
        "{}",
        outcome.report
    );
}
