//! The traced pass behind the per-layer metrics: the benchmark calls each
//! layer's public functions itself, inside spans, and checks that what it
//! gets is byte-identical to what `paper scenario` writes.

use std::path::Path;

use bench::scenario::{deterministic_document, execute_with_progress, CompiledScenario};
use bench::sweep::SweepReport;
use metrics::trace::FlightRecorder;
use metrics::{PhaseProbe, DEFAULT_TRACE_CAPACITY};
use negotiator::stats::SchedStats;
use negotiator::{NegotiatorConfig, NegotiatorSim, SimOptions};
use oblivious::{ObliviousConfig, ObliviousSim};
use scenario::series::{phase_stats, render_stats, stats_to_json};
use scenario::EngineKind;

use crate::spans::Tracer;
use crate::workloads::{paper_scenario, Ctx};
use crate::Outcome;

/// Span names of one engine's layer.
struct Names {
    pass: &'static str,
    construct: &'static str,
    run: &'static str,
    stats: &'static str,
}

fn names(engine: EngineKind) -> Names {
    match engine {
        EngineKind::Negotiator => Names {
            pass: "negotiator.pass",
            construct: "negotiator.construct",
            run: "negotiator.run",
            stats: "negotiator.stats",
        },
        EngineKind::Oblivious => Names {
            pass: "oblivious.pass",
            construct: "oblivious.construct",
            run: "oblivious.run",
            stats: "oblivious.stats",
        },
    }
}

/// What one engine run produced, in the forms the result document holds.
struct EngineRun {
    block: String,
    series: metrics::Json,
    summary: String,
    match_ratio: Option<f64>,
    sched: Option<SchedStats>,
    run_s: f64,
    phase_stats_s: f64,
    rss_rise_bytes: f64,
}

impl EngineRun {
    /// The parts of the run a result document carries, for comparison.
    fn report(&self) -> (&str, &metrics::Json, &str, Option<f64>) {
        (&self.block, &self.series, &self.summary, self.match_ratio)
    }
}

/// The engine seed `scenario::build_runs` derives from the scenario seed.
/// The byte-identity check below fails if the two ever disagree.
const ENGINE_SEED_SALT: u64 = 0xDC0C_0FFE;

/// Drive one engine through its public API as `scenario::build_runs`
/// does, with spans around construction, the run, the statistics and the
/// per-phase series; `record` attaches the flight recorder.
fn drive(
    tracer: &mut Tracer,
    engine: EngineKind,
    compiled: &CompiledScenario,
    workers: usize,
    record: bool,
) -> EngineRun {
    let spec = &compiled.spec;
    let trace = &compiled.trace;
    let n = names(engine);
    let system = engine.label(spec.topology);
    let recorder = || FlightRecorder::with_capacity(DEFAULT_TRACE_CAPACITY, spec.net.n_tors);
    let probe = || PhaseProbe::new(compiled.boundaries.clone());
    let seed = spec.seed ^ ENGINE_SEED_SALT;
    let rss_before = rss_bytes();
    tracer.span(n.pass, |t| {
        let (summary, sched, match_ratio, series, run_s, phase_stats_s, rss_rise_bytes) =
            match engine {
                EngineKind::Negotiator => {
                    let mut cfg = NegotiatorConfig::paper_default(spec.net.clone());
                    cfg.seed = seed;
                    let options = SimOptions {
                        mode: spec.mode,
                        workers,
                        ..SimOptions::default()
                    };
                    let mut sim = t.span(n.construct, |_| {
                        NegotiatorSim::with_options(cfg, spec.topology, options)
                    });
                    for (at, action) in &compiled.failures {
                        sim.schedule_failure(*at, action.clone());
                    }
                    for (at, action) in &compiled.injections {
                        sim.schedule_fault(*at, action.clone());
                    }
                    sim.set_phase_probe(probe());
                    if record {
                        sim.set_recorder(recorder());
                    }
                    let (mut report, run_s) = timed(t, n.run, || sim.run(trace, compiled.duration));
                    let rss_rise_bytes = rss_bytes() - rss_before;
                    let (summary, sched, match_ratio) = t.span(n.stats, |_| {
                        (
                            report.summary(),
                            *sim.stats(),
                            sim.match_recorder().overall_ratio(),
                        )
                    });
                    let (series, phase_stats_s) = timed(t, "metrics.phase_stats", || {
                        let probe = sim.phase_probe().expect("probe attached");
                        phase_stats(compiled, trace, sim.tracker(), probe.snapshots())
                    });
                    let sched = Some(sched);
                    (
                        summary,
                        sched,
                        match_ratio,
                        series,
                        run_s,
                        phase_stats_s,
                        rss_rise_bytes,
                    )
                }
                EngineKind::Oblivious => {
                    let mut cfg = ObliviousConfig::paper_default(spec.net.clone());
                    cfg.seed = seed;
                    let mut sim = t.span(n.construct, |_| ObliviousSim::new(cfg, spec.topology));
                    sim.set_workers(workers);
                    for (at, action) in &compiled.failures {
                        sim.schedule_failure(*at, action.clone());
                    }
                    for (at, action) in &compiled.injections {
                        sim.schedule_fault(*at, action.clone());
                    }
                    sim.set_phase_probe(probe());
                    if record {
                        sim.set_recorder(recorder());
                    }
                    let (mut report, run_s) = timed(t, n.run, || sim.run(trace, compiled.duration));
                    let rss_rise_bytes = rss_bytes() - rss_before;
                    let summary = t.span(n.stats, |_| report.summary());
                    let (series, phase_stats_s) = timed(t, "metrics.phase_stats", || {
                        let probe = sim.phase_probe().expect("probe attached");
                        phase_stats(compiled, trace, sim.tracker(), probe.snapshots())
                    });
                    (
                        summary,
                        None,
                        None,
                        series,
                        run_s,
                        phase_stats_s,
                        rss_rise_bytes,
                    )
                }
            };
        EngineRun {
            block: render_stats(&system, &series),
            series: stats_to_json(&series),
            summary: summary.to_json().render(),
            match_ratio,
            sched,
            run_s,
            phase_stats_s,
            rss_rise_bytes,
        }
    })
}

/// Run `f` in span `name` and return its result with the span's seconds.
fn timed<T>(tracer: &mut Tracer, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    let out = tracer.span(name, |_| f());
    let secs = tracer.spans().last().expect("span just closed").secs();
    (out, secs)
}

/// Resident set size of this process, from `/proc/self/status`.
fn rss_bytes() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb * 1024.0)
}

/// One engine's per-layer sums over the traced scenarios.
#[derive(Default)]
pub struct EngineTotals {
    /// Run seconds at the workload's worker count, untraced.
    pub run_s: f64,
    /// Run seconds with one shard worker.
    pub run_w1_s: f64,
    /// Run seconds with two shard workers.
    pub run_w2_s: f64,
    /// Run seconds with the flight recorder attached.
    pub run_traced_s: f64,
    /// ToR pairs × epochs simulated by the one-worker runs.
    pub pair_epochs: f64,
    /// Scenarios the engine ran in.
    pub scenarios: usize,
}

/// Per-layer sums over every traced scenario.
#[derive(Default)]
pub struct Totals {
    /// Scenarios traced.
    pub scenarios: usize,
    /// `scenario::parse_scenario` + `scenario::compile` seconds.
    pub parse_compile_s: f64,
    /// Flows in the compiled traces.
    pub flows: f64,
    /// `series::phase_stats` seconds, at the workload's worker count.
    pub phase_stats_s: f64,
    /// `deterministic_document` seconds.
    pub render_s: f64,
    /// Span bookkeeping seconds of the traced passes.
    pub trace_overhead_s: f64,
    /// Negotiator runs.
    pub negotiator: EngineTotals,
    /// Oblivious runs.
    pub oblivious: EngineTotals,
    /// Negotiator scheduler counters, summed.
    pub sched: SchedStats,
    /// RSS rise across the first negotiator construct + run, per pair.
    pub rss_bytes_per_pair: Option<f64>,
}

/// Trace one scenario: parse and compile it, drive each engine at one and
/// two shard workers and with the recorder attached, execute and render
/// it through `bench::scenario`, and run `paper scenario` on the same
/// file. Every report must match byte for byte. Returns the document.
pub fn scenario_pass(
    ctx: &Ctx,
    tracer: &mut Tracer,
    index: usize,
    file: &Path,
    workers: usize,
    totals: &mut Totals,
    out: &mut Outcome,
) -> Result<String, String> {
    let text = std::fs::read_to_string(file).map_err(|e| format!("{}: {e}", file.display()))?;
    let base = file.parent().unwrap_or(Path::new("."));
    let spans_before = tracer.spans().len();
    let bookkeeping_before = tracer.bookkeeping_secs();
    let traced = tracer.request(index as u64, "scenario", |t| {
        let spec = t.span("scenario.parse", |_| scenario::parse_scenario(&text))?;
        let compiled = t.span("scenario.compile", |_| scenario::compile(spec, base))?;
        let mut runs = Vec::new();
        for &engine in &compiled.spec.engines {
            let w1 = drive(t, engine, &compiled, 1, false);
            let w2 = drive(t, engine, &compiled, 2, false);
            let recorded = drive(t, engine, &compiled, workers, true);
            runs.push((engine, w1, w2, recorded));
        }
        let report = t.span("bench.execute", |_| {
            execute_with_progress(&compiled, None, workers)
        });
        let document = t.span("bench.render", |_| deterministic_document(&report));
        Ok::<_, String>((compiled, runs, report, document))
    })?;
    let (compiled, runs, report, document) = traced;
    let spans = &tracer.spans()[spans_before..];
    let secs = |name: &str| -> f64 {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.secs())
            .sum()
    };
    let cli = paper_scenario(ctx, file, &compiled.spec.name, workers)?;
    out.check(
        cli.success,
        format_args!("paper scenario {} exited with an error", file.display()),
    );
    out.check(
        cli.document.as_deref() == Some(document.as_str()),
        format_args!(
            "{}: bench::scenario document differs from paper scenario output",
            file.display()
        ),
    );
    check_runs(&report, &runs, workers, out, file);

    let spec = &compiled.spec;
    let pairs = (spec.net.n_tors * spec.net.n_tors) as f64;
    totals.scenarios += 1;
    totals.parse_compile_s += secs("scenario.parse") + secs("scenario.compile");
    totals.flows += compiled.trace.len() as f64;
    totals.render_s += secs("bench.render");
    totals.trace_overhead_s += tracer.bookkeeping_secs() - bookkeeping_before;
    for (engine, w1, w2, recorded) in &runs {
        let at_w = if workers == 1 { w1 } else { w2 };
        totals.phase_stats_s += at_w.phase_stats_s;
        let e = match engine {
            EngineKind::Negotiator => {
                if let Some(s) = &at_w.sched {
                    add_sched(&mut totals.sched, s);
                }
                if totals.rss_bytes_per_pair.is_none() {
                    totals.rss_bytes_per_pair = Some(w1.rss_rise_bytes / pairs);
                }
                &mut totals.negotiator
            }
            EngineKind::Oblivious => &mut totals.oblivious,
        };
        e.run_s += at_w.run_s;
        e.run_w1_s += w1.run_s;
        e.run_w2_s += w2.run_s;
        e.run_traced_s += recorded.run_s;
        e.pair_epochs += pairs * spec.total_epochs() as f64;
        e.scenarios += 1;
    }
    Ok(document)
}

/// Each engine report the benchmark drove must equal the one
/// `bench::scenario` assembled from `scenario::build_runs`, at any worker
/// count and with or without the recorder.
fn check_runs(
    report: &SweepReport,
    runs: &[(EngineKind, EngineRun, EngineRun, EngineRun)],
    workers: usize,
    out: &mut Outcome,
    file: &Path,
) {
    out.check(
        report.results.len() == runs.len(),
        format_args!("{}: engine count differs", file.display()),
    );
    for (result, (engine, w1, w2, recorded)) in report.results.iter().zip(runs) {
        let summary = result.metrics.report.as_ref().map(|s| s.to_json().render());
        let built = (
            result.block(),
            result.metrics.series.as_ref(),
            summary.as_deref(),
            result.metrics.match_ratio,
        );
        for (label, run) in [("w1", w1), ("w2", w2), ("recorded", recorded)] {
            let (block, series, summary, ratio) = run.report();
            out.check(
                built == (block, Some(series), Some(summary), ratio),
                format_args!(
                    "{}: {engine:?} {label} (workers {workers}) report differs from build_runs",
                    file.display()
                ),
            );
        }
    }
}

fn add_sched(sum: &mut SchedStats, s: &SchedStats) {
    sum.grants_issued += s.grants_issued;
    sum.accepts_made += s.accepts_made;
    sum.scheduled_packets += s.scheduled_packets;
    sum.overscheduled_slots += s.overscheduled_slots;
    sum.unmatched_slots += s.unmatched_slots;
}
