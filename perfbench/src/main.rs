//! The repository benchmark. See `README.md` beside this package for the
//! workloads, the metrics and how to run it.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed`, and the end-to-end metrics (`--trace 0`) or the
//! per-layer metrics (`--trace 1`). A failed output check exits 1 after
//! printing it; a run that cannot measure exits 2 without printing it.

mod child;
mod http;
mod layers;
mod prom;
mod scenarios;
mod spans;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::fmt::Display;
use std::process::ExitCode;

use metrics::Json;

/// End-to-end metrics, measured with tracing off, with their units.
const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_mice_fct_p99_us", "us"),
    ("sim_goodput", "ratio"),
    ("submit_p50_ms", "ms"),
    ("submit_p90_ms", "ms"),
    ("jobs_per_s", "1/s"),
    ("healthz_p50_ms", "ms"),
];

/// Per-layer metrics, measured by the traced run, with their units.
const PER_LAYER: [(&str, &str); 22] = [
    ("scenario.parse_compile_s", "s"),
    ("scenario.flows", "count"),
    ("negotiator.run_s", "s"),
    ("negotiator.ns_per_pair_epoch", "ns"),
    ("negotiator.rss_bytes_per_pair", "B"),
    ("oblivious.run_s", "s"),
    ("oblivious.ns_per_pair_epoch", "ns"),
    ("sim.shard_speedup.negotiator", "ratio"),
    ("sim.shard_speedup.oblivious", "ratio"),
    ("metrics.phase_stats_s", "s"),
    ("metrics.recorder_ratio.negotiator", "ratio"),
    ("metrics.recorder_ratio.oblivious", "ratio"),
    ("bench.render_s", "s"),
    ("bench.trace_overhead_s", "s"),
    ("bench.cache_lookup_ms", "ms"),
    ("bench.cache_store_ms", "ms"),
    ("bench.cache_hit_ratio", "ratio"),
    ("service.execute_mean_ms", "ms"),
    ("service.wait_ms", "ms"),
    ("negotiator.accepts_per_grant", "ratio"),
    ("negotiator.unmatched_slot_share", "ratio"),
    ("negotiator.overscheduled_slot_share", "ratio"),
];

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 1024-ToR parallel fabric, negotiator only, through `paper scenario`.
    Kernel1024,
    /// 128-ToR thin-clos under faults, both engines, through `paper scenario`.
    FaultsThinclos128,
    /// Small jobs from a closed loop against `paper serve`.
    DaemonSmallJobs,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::Kernel1024,
        Workload::FaultsThinclos128,
        Workload::DaemonSmallJobs,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Kernel1024 => "kernel_1024",
            Workload::FaultsThinclos128 => "faults_thinclos_128",
            Workload::DaemonSmallJobs => "daemon_small_jobs",
        }
    }

    /// Intra-run shard workers (`--workers`) the program runs with.
    pub fn workers(self) -> usize {
        match self {
            Workload::FaultsThinclos128 => 2,
            Workload::Kernel1024 | Workload::DaemonSmallJobs => 1,
        }
    }
}

/// What one run counted and measured.
#[derive(Default)]
pub struct Outcome {
    /// Operations and output checks attempted.
    pub attempted: u64,
    /// Of those, the ones that failed.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
    /// Samples behind the timed metrics, for the report on stderr.
    pub samples: Vec<(&'static str, Vec<f64>)>,
}

impl Outcome {
    /// Count one operation or check; report it on stderr when it failed.
    pub fn check(&mut self, ok: bool, what: impl Display) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: FAILED {what}");
        }
    }

    /// Record metric `name`.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.insert(name.into(), value);
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload '{value}'"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed '{value}'"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds '{value}'"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got '{value}'")),
                })
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(workloads::DEFAULT_SEED),
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    match run() {
        Ok(outcome) if outcome.failed == 0 => ExitCode::SUCCESS,
        Ok(_) => ExitCode::from(1),
        Err(error) => {
            eprintln!("perfbench: {error}");
            ExitCode::from(2)
        }
    }
}

fn run() -> Result<Outcome, String> {
    let args = parse_args()?;
    let target = child::target_dir()?;
    let paper = child::build_paper(&target)?;
    let work = target.join("perfbench").join(format!(
        "{}-seed{}-trace{}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let ctx = workloads::Ctx {
        paper,
        work,
        seed: args.seed,
        seconds: args.seconds,
    };
    let mut outcome = Outcome::default();
    let table: &[(&str, &str)] = if args.trace {
        let mut tracer = spans::Tracer::new();
        match args.workload {
            Workload::DaemonSmallJobs => workloads::daemon_traced(&ctx, &mut tracer, &mut outcome)?,
            cli => workloads::cli_traced(cli, &ctx, &mut tracer, &mut outcome)?,
        }
        let path = ctx.work.join("spans.ndjson");
        tracer
            .write_ndjson(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("perfbench: spans in {}; self time by span:", path.display());
        for (name, secs) in spans::self_secs_by_name(tracer.spans()) {
            eprintln!("  {name:<36} {secs:>12.6} s");
        }
        &PER_LAYER
    } else {
        match args.workload {
            Workload::DaemonSmallJobs => workloads::daemon_untraced(&ctx, &mut outcome)?,
            cli => workloads::cli_untraced(cli, &ctx, &mut outcome)?,
        }
        &END_TO_END
    };
    println!("{}", result_line(&outcome, table)?);
    Ok(outcome)
}

/// The result object, after a readable table of the same numbers on
/// stderr.
fn result_line(outcome: &Outcome, table: &[(&str, &str)]) -> Result<String, String> {
    let mut metrics = Json::object();
    for &(name, unit) in table {
        let value = *outcome
            .metrics
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        eprintln!("  {name:<36} {value:>16.6} {unit}");
        let mut metric = Json::object();
        metric.push("value", value).push("unit", unit);
        metrics.push(name, metric);
    }
    for (what, values) in &outcome.samples {
        let n = values.len();
        let tail = stats::tail_percentile(n).map_or("none".to_string(), |p| format!("p{p}"));
        let spread = stats::spread(values).unwrap_or(f64::NAN);
        eprintln!("  {n} {what}: interquartile spread {spread:.4} of the median; highest percentile with 10 samples beyond: {tail}");
    }
    let error_rate = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    eprintln!(
        "  error_rate {error_rate} ({} of {} failed)",
        outcome.failed, outcome.attempted
    );
    let mut line = Json::object();
    line.push("correct", outcome.failed == 0)
        .push("attempted", outcome.attempted)
        .push("failed", outcome.failed)
        .push("metrics", metrics);
    Ok(line.render_compact())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn declared(section: &str) -> Vec<(String, String)> {
        let path = child::repo_root().join("BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        doc.get(section)
            .and_then(Json::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |k| m.get(k).and_then(Json::as_str).expect("name and unit");
                (field("name").to_string(), field("unit").to_string())
            })
            .collect()
    }

    fn table(t: &[(&str, &str)]) -> Vec<(String, String)> {
        t.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn reported_metrics_are_the_declared_ones() {
        assert_eq!(declared("end_to_end"), table(&END_TO_END));
        assert_eq!(declared("per_layer"), table(&PER_LAYER));
    }

    #[test]
    fn workload_names_are_the_declared_ones() {
        let path = child::repo_root().join("BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let names: Vec<&str> = doc
            .get("workloads")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|w| w.get("name").unwrap().as_str().unwrap())
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names, ours);
    }
}
