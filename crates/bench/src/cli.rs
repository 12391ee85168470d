//! Command-line parsing for the `paper` binary, separated out so the
//! validation rules are unit-testable.

use std::path::PathBuf;

use crate::experiments::{find_experiment, Args, EXPERIMENTS};
use metrics::trace::TraceEventKind;

/// Default daemon address for `paper serve` / `paper submit`.
pub const DEFAULT_ADDR: &str = "127.0.0.1:7470";

/// Smallest accepted `--trace-capacity`: below 1Ki events the ring drops
/// the convergence timeline on even trivial runs, which makes every
/// downstream forensics answer misleading.
pub const MIN_TRACE_CAPACITY: usize = 1024;

/// Default `--context` lines each side of a `paper trace diff` divergence.
pub const DEFAULT_DIFF_CONTEXT: usize = 3;

/// A parsed `paper trace` subcommand: summary, forensic query, or diff.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceCmd {
    /// `paper trace <file>` — render the section summary.
    Summary(PathBuf),
    /// `paper trace query <file>` — filter and aggregate events.
    Query(PathBuf),
    /// `paper trace diff <a> <b>` — locate the first divergent event.
    Diff(PathBuf, PathBuf),
}

/// A parsed `paper` invocation.
#[derive(Debug, Clone)]
pub struct Cli {
    /// `paper list` — print the registry and exit (`--json` for the
    /// machine-readable form).
    pub list: bool,
    /// `paper lint` — run the determinism linter over the workspace
    /// (`--json` for the machine-readable findings document).
    pub lint: bool,
    /// `paper scenario <file.json>...` — run declarative scenario files
    /// (a batch dedupes identical runs before dispatch).
    pub scenario: Vec<PathBuf>,
    /// `paper serve` — run the scenario-serving daemon.
    pub serve: bool,
    /// `paper submit <file.json>` — submit a scenario to a daemon.
    pub submit: Option<PathBuf>,
    /// `paper trace …` — summarize, query or diff flight-recorder traces.
    pub trace_cmd: Option<TraceCmd>,
    /// Write flight-recorder NDJSON for scenario runs (`--trace PATH`; a
    /// multi-file batch writes one suffixed file per scenario).
    pub trace: Option<PathBuf>,
    /// Fail `paper trace <file>` when the recorder dropped events
    /// (`--strict`).
    pub trace_strict: bool,
    /// Event-kind filter for `paper trace query` (`--kind NAME`).
    pub trace_kind: Option<TraceEventKind>,
    /// ToR filter for `paper trace query` (`--tor N`; matches `tor`,
    /// `src` and `dst` fields).
    pub trace_tor: Option<u64>,
    /// Flow filter for `paper trace query` (`--flow N`; prints the
    /// flow's span timeline).
    pub trace_flow: Option<u64>,
    /// Inclusive epoch-range filter for `paper trace query`
    /// (`--epoch A..B`, or a single epoch `--epoch N`).
    pub trace_epochs: Option<(u64, u64)>,
    /// Report the slowest-N completed flows in `paper trace query`
    /// (`--top-fct N`).
    pub trace_top_fct: Option<usize>,
    /// Aligned-context lines each side of a `paper trace diff` divergence
    /// (`--context N`).
    pub trace_context: usize,
    /// Flight-recorder ring capacity per engine (`--trace-capacity N`,
    /// power of two ≥ 1Ki; `paper serve` and `--trace` runs only). Purely
    /// an observability knob: never enters results, hashes or cache keys.
    pub trace_capacity: Option<usize>,
    /// Daemon log verbosity for `paper serve`
    /// (`--log-level error|info|debug`, default `info`). Kept as the raw
    /// token here; the service layer owns the typed level.
    pub log_level: String,
    /// Daemon address for `serve`/`submit` (`--addr HOST:PORT`).
    pub addr: String,
    /// Job priority for `submit` (`--priority N`, higher runs earlier).
    pub priority: i64,
    /// Experiment ids to run, in request order (`all` expands here).
    pub ids: Vec<String>,
    /// Harness parameters (duration, loads; seed is taken from `seeds`).
    pub args: Args,
    /// Workload seeds — one full sweep per seed (`--seed N` or
    /// `--seeds A,B,C`).
    pub seeds: Vec<u64>,
    /// Worker threads for the sweep engine (`--jobs N`, default: available
    /// parallelism).
    pub jobs: usize,
    /// Intra-run shard workers per simulation (`--workers N`, default 1).
    /// Purely a wall-clock knob: output is byte-identical at any value.
    pub workers: usize,
    /// Write `results/<id>.json` files (`--json`).
    pub json: bool,
    /// Attach wall-clock metadata to written JSON (`--no-timing` clears
    /// it, yielding the fully deterministic document).
    pub timing: bool,
    /// Consult/populate the content-addressed result cache on scenario
    /// runs (`--no-cache` disables both directions).
    pub cache: bool,
    /// Output directory for `--json` (`--out DIR`, default `results`).
    pub out: PathBuf,
}

/// Parse and validate `argv` (without the program name).
pub fn parse(argv: Vec<String>) -> Result<Cli, String> {
    let mut cli = Cli {
        list: false,
        lint: false,
        scenario: Vec::new(),
        serve: false,
        submit: None,
        trace_cmd: None,
        trace: None,
        trace_strict: false,
        trace_kind: None,
        trace_tor: None,
        trace_flow: None,
        trace_epochs: None,
        trace_top_fct: None,
        trace_context: DEFAULT_DIFF_CONTEXT,
        trace_capacity: None,
        log_level: "info".to_string(),
        addr: DEFAULT_ADDR.to_string(),
        priority: 0,
        ids: Vec::new(),
        args: Args::default(),
        seeds: Vec::new(),
        jobs: sim::pool::default_jobs(),
        workers: 1,
        json: false,
        timing: true,
        cache: true,
        out: PathBuf::from("results"),
    };
    let mut addr_set = false;
    let mut priority_set = false;
    let mut log_level_set = false;
    // Flags a scenario file pins itself (scenarios carry their own seed,
    // loads and horizon, so accepting these would silently lie).
    let mut harness_flags: Vec<&'static str> = Vec::new();
    let mut context_set = false;
    let mut it = argv.into_iter().peekable();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--duration-ms" => {
                let v = value(&mut it, "--duration-ms")?;
                let ms: f64 = v
                    .parse()
                    .map_err(|_| format!("--duration-ms: '{v}' is not a number"))?;
                if !ms.is_finite() || ms <= 0.0 {
                    return Err(format!("--duration-ms: {ms} must be > 0"));
                }
                cli.args.duration = (ms * 1e6) as u64;
                harness_flags.push("--duration-ms");
            }
            "--seed" => {
                let v = value(&mut it, "--seed")?;
                cli.seeds = vec![v
                    .parse()
                    .map_err(|_| format!("--seed: '{v}' is not an integer"))?];
                harness_flags.push("--seed");
            }
            "--seeds" => {
                let v = value(&mut it, "--seeds")?;
                cli.seeds = v
                    .split(',')
                    .map(|s| {
                        s.parse()
                            .map_err(|_| format!("--seeds: '{s}' is not an integer"))
                    })
                    .collect::<Result<_, _>>()?;
                if cli.seeds.is_empty() {
                    return Err("--seeds: need at least one seed".into());
                }
                harness_flags.push("--seeds");
            }
            "--loads" => {
                let v = value(&mut it, "--loads")?;
                cli.args.loads = v.split(',').map(parse_load).collect::<Result<_, _>>()?;
                harness_flags.push("--loads");
            }
            "scenario" => {
                let v = value(&mut it, "scenario")?;
                cli.scenario.push(PathBuf::from(v));
            }
            "serve" => cli.serve = true,
            "trace" => {
                if cli.trace_cmd.is_some() {
                    return Err("trace: one trace file per invocation".into());
                }
                cli.trace_cmd = Some(match it.peek().map(String::as_str) {
                    Some("query") => {
                        it.next();
                        TraceCmd::Query(PathBuf::from(value(&mut it, "trace query")?))
                    }
                    Some("diff") => {
                        it.next();
                        let a = PathBuf::from(value(&mut it, "trace diff")?);
                        let b = PathBuf::from(value(&mut it, "trace diff")?);
                        TraceCmd::Diff(a, b)
                    }
                    _ => TraceCmd::Summary(PathBuf::from(value(&mut it, "trace")?)),
                });
            }
            "submit" => {
                let v = value(&mut it, "submit")?;
                if cli.submit.is_some() {
                    return Err("submit: one scenario file per submission".into());
                }
                cli.submit = Some(PathBuf::from(v));
            }
            "--addr" => {
                cli.addr = value(&mut it, "--addr")?;
                if !cli.addr.contains(':') {
                    return Err(format!("--addr: '{}' is not HOST:PORT", cli.addr));
                }
                addr_set = true;
            }
            "--priority" => {
                let v = value(&mut it, "--priority")?;
                cli.priority = v
                    .parse()
                    .map_err(|_| format!("--priority: '{v}' is not an integer"))?;
                priority_set = true;
            }
            "--no-timing" => cli.timing = false,
            "--no-cache" => cli.cache = false,
            "--trace" => cli.trace = Some(PathBuf::from(value(&mut it, "--trace")?)),
            "--strict" => cli.trace_strict = true,
            "--kind" => {
                let v = value(&mut it, "--kind")?;
                cli.trace_kind =
                    Some(TraceEventKind::from_name(&v).map_err(|e| format!("--kind: {e}"))?);
            }
            "--tor" => {
                let v = value(&mut it, "--tor")?;
                cli.trace_tor = Some(
                    v.parse()
                        .map_err(|_| format!("--tor: '{v}' is not a ToR index"))?,
                );
            }
            "--flow" => {
                let v = value(&mut it, "--flow")?;
                cli.trace_flow = Some(
                    v.parse()
                        .map_err(|_| format!("--flow: '{v}' is not a flow id"))?,
                );
            }
            "--epoch" => {
                let v = value(&mut it, "--epoch")?;
                cli.trace_epochs = Some(parse_epoch_range(&v)?);
            }
            "--top-fct" => {
                let v = value(&mut it, "--top-fct")?;
                let n: usize = v
                    .parse()
                    .map_err(|_| format!("--top-fct: '{v}' is not an integer"))?;
                if n == 0 {
                    return Err("--top-fct: need at least 1 flow".into());
                }
                cli.trace_top_fct = Some(n);
            }
            "--context" => {
                let v = value(&mut it, "--context")?;
                cli.trace_context = v
                    .parse()
                    .map_err(|_| format!("--context: '{v}' is not an integer"))?;
                context_set = true;
            }
            "--trace-capacity" => {
                let v = value(&mut it, "--trace-capacity")?;
                let n: usize = v
                    .parse()
                    .map_err(|_| format!("--trace-capacity: '{v}' is not an integer"))?;
                if n < MIN_TRACE_CAPACITY || !n.is_power_of_two() {
                    return Err(format!(
                        "--trace-capacity: {n} must be a power of two ≥ {MIN_TRACE_CAPACITY}"
                    ));
                }
                cli.trace_capacity = Some(n);
            }
            "--log-level" => {
                let v = value(&mut it, "--log-level")?;
                if !matches!(v.as_str(), "error" | "info" | "debug") {
                    return Err(format!(
                        "--log-level: unknown level '{v}' (expected error, info or debug)"
                    ));
                }
                cli.log_level = v;
                log_level_set = true;
            }
            "--jobs" => {
                let v = value(&mut it, "--jobs")?;
                let jobs: usize = v
                    .parse()
                    .map_err(|_| format!("--jobs: '{v}' is not an integer"))?;
                if jobs == 0 {
                    return Err("--jobs: need at least 1 worker".into());
                }
                cli.jobs = jobs;
            }
            "--workers" => {
                let v = value(&mut it, "--workers")?;
                let workers: usize = v
                    .parse()
                    .map_err(|_| format!("--workers: '{v}' is not an integer"))?;
                if workers == 0 {
                    return Err("--workers: need at least 1 shard worker".into());
                }
                cli.workers = workers;
                cli.args.workers = workers;
            }
            "--json" => cli.json = true,
            "--out" => cli.out = PathBuf::from(value(&mut it, "--out")?),
            "list" => cli.list = true,
            "lint" => cli.lint = true,
            "all" => cli
                .ids
                .extend(EXPERIMENTS.iter().map(|e| e.id().to_string())),
            flag if flag.starts_with("--") => {
                return Err(format!("unknown flag '{flag}'"));
            }
            id => {
                // Once `scenario` has been seen, further positionals are
                // scenario files (`paper scenario a.json b.json`).
                if !cli.scenario.is_empty() {
                    cli.scenario.push(PathBuf::from(id));
                } else if find_experiment(id).is_none() {
                    return Err(format!("unknown experiment '{id}' — try `paper list`"));
                } else {
                    cli.ids.push(id.to_string());
                }
            }
        }
    }
    if !cli.scenario.is_empty() {
        if !cli.ids.is_empty() {
            return Err("scenario runs cannot be mixed with experiment ids".into());
        }
        if let Some(flag) = harness_flags.first() {
            return Err(format!(
                "{flag}: a scenario file pins its own seed, loads and duration — edit the file instead"
            ));
        }
    }
    // The serving pair and the linter are their own modes: no experiment
    // ids, no local scenario runs alongside.
    let modes = [
        cli.serve,
        cli.submit.is_some(),
        cli.lint,
        cli.trace_cmd.is_some(),
        !cli.scenario.is_empty() || !cli.ids.is_empty() || cli.list,
    ];
    if modes.iter().filter(|&&m| m).count() > 1 {
        return Err(
            "serve/submit/lint/trace cannot be mixed with experiment, scenario or list invocations"
                .into(),
        );
    }
    if addr_set && !cli.serve && cli.submit.is_none() {
        return Err("--addr only applies to `paper serve` / `paper submit`".into());
    }
    if priority_set && cli.submit.is_none() {
        return Err("--priority only applies to `paper submit`".into());
    }
    if log_level_set && !cli.serve {
        return Err("--log-level only applies to `paper serve`".into());
    }
    if cli.trace.is_some() && cli.scenario.is_empty() {
        return Err("--trace records flight-recorder output for `paper scenario` runs only".into());
    }
    if cli.trace_capacity.is_some() && !cli.serve && cli.trace.is_none() {
        return Err(
            "--trace-capacity only applies to `paper serve` and `--trace` scenario runs".into(),
        );
    }
    if cli.trace_strict && !matches!(cli.trace_cmd, Some(TraceCmd::Summary(_))) {
        return Err("--strict only applies to `paper trace <file>` summaries".into());
    }
    let query_filters = [
        ("--kind", cli.trace_kind.is_some()),
        ("--tor", cli.trace_tor.is_some()),
        ("--flow", cli.trace_flow.is_some()),
        ("--epoch", cli.trace_epochs.is_some()),
        ("--top-fct", cli.trace_top_fct.is_some()),
    ];
    if !matches!(cli.trace_cmd, Some(TraceCmd::Query(_))) {
        if let Some((flag, _)) = query_filters.iter().find(|(_, set)| *set) {
            return Err(format!("{flag} only applies to `paper trace query`"));
        }
    }
    if context_set && !matches!(cli.trace_cmd, Some(TraceCmd::Diff(_, _))) {
        return Err("--context only applies to `paper trace diff`".into());
    }
    if cli.workers != 1 && (cli.submit.is_some() || cli.lint || cli.list) {
        return Err("--workers only applies to local runs and `paper serve`".into());
    }
    if cli.seeds.is_empty() {
        cli.seeds = vec![cli.args.seed];
    }
    Ok(cli)
}

/// Parse one `--loads` entry: a percentage in (0, 100], returned as a
/// fraction. Loads outside that range used to be silently accepted and
/// produced meaningless sweeps; now they error out.
fn parse_load(s: &str) -> Result<f64, String> {
    let pct: f64 = s
        .trim()
        .parse()
        .map_err(|_| format!("--loads: '{s}' is not a number"))?;
    if !pct.is_finite() || pct <= 0.0 || pct > 100.0 {
        return Err(format!(
            "--loads: {pct}% is out of range — loads are percentages in (0, 100]"
        ));
    }
    Ok(pct / 100.0)
}

/// Parse an `--epoch` filter: inclusive `A..B`, or a single epoch `N`.
fn parse_epoch_range(s: &str) -> Result<(u64, u64), String> {
    let (lo, hi) = s.split_once("..").unwrap_or((s, s));
    let parse = |part: &str| {
        part.parse::<u64>()
            .map_err(|_| format!("--epoch: '{s}' is not an epoch N or a range A..B"))
    };
    let (lo, hi) = (parse(lo)?, parse(hi)?);
    if lo > hi {
        return Err(format!("--epoch: {lo}..{hi} is an empty range"));
    }
    Ok((lo, hi))
}

fn value(it: &mut impl Iterator<Item = String>, flag: &str) -> Result<String, String> {
    it.next().ok_or_else(|| format!("{flag} needs a value"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_strs(args: &[&str]) -> Result<Cli, String> {
        parse(args.iter().map(|s| s.to_string()).collect())
    }

    #[test]
    fn parses_a_full_invocation() {
        let cli = parse_strs(&[
            "fig9",
            "table2",
            "--duration-ms",
            "0.5",
            "--loads",
            "10,50,100",
            "--jobs",
            "2",
            "--json",
            "--out",
            "results/current",
            "--seed",
            "7",
        ])
        .unwrap();
        assert_eq!(cli.ids, vec!["fig9", "table2"]);
        assert_eq!(cli.args.duration, 500_000);
        assert_eq!(cli.args.loads, vec![0.10, 0.50, 1.00]);
        assert_eq!(cli.jobs, 2);
        assert!(cli.json);
        assert_eq!(cli.out, PathBuf::from("results/current"));
        assert_eq!(cli.seeds, vec![7]);
    }

    #[test]
    fn all_expands_to_the_registry() {
        let cli = parse_strs(&["all"]).unwrap();
        assert_eq!(cli.ids.len(), EXPERIMENTS.len());
        assert_eq!(cli.seeds, vec![crate::runs::SEED]);
    }

    #[test]
    fn loads_must_be_percentages_in_range() {
        // The old parser accepted these silently; they must error now.
        let err = parse_strs(&["fig9", "--loads", "0"]).unwrap_err();
        assert!(err.contains("out of range"), "{err}");
        let err = parse_strs(&["fig9", "--loads", "150"]).unwrap_err();
        assert!(err.contains("out of range"), "{err}");
        let err = parse_strs(&["fig9", "--loads", "50,-10"]).unwrap_err();
        assert!(err.contains("out of range"), "{err}");
        let err = parse_strs(&["fig9", "--loads", "abc"]).unwrap_err();
        assert!(err.contains("not a number"), "{err}");
        // 100% inclusive, tiny loads fine.
        let cli = parse_strs(&["fig9", "--loads", "0.1,100"]).unwrap();
        assert_eq!(cli.args.loads, vec![0.001, 1.0]);
    }

    #[test]
    fn rejects_bad_flags_ids_and_values() {
        assert!(parse_strs(&["--nope"])
            .unwrap_err()
            .contains("unknown flag"));
        assert!(parse_strs(&["fig99"])
            .unwrap_err()
            .contains("unknown experiment"));
        assert!(parse_strs(&["--jobs", "0"])
            .unwrap_err()
            .contains("at least 1"));
        assert!(parse_strs(&["--jobs"])
            .unwrap_err()
            .contains("needs a value"));
        assert!(parse_strs(&["--duration-ms", "-1"])
            .unwrap_err()
            .contains("> 0"));
        // 0 would yield an empty trace and NaN ratio cells; reject it too.
        assert!(parse_strs(&["--duration-ms", "0"])
            .unwrap_err()
            .contains("> 0"));
        assert!(parse_strs(&["--seeds", "1,x"])
            .unwrap_err()
            .contains("not an integer"));
    }

    #[test]
    fn workers_flag_parses_and_validates() {
        let cli = parse_strs(&["fig9", "--workers", "4"]).unwrap();
        assert_eq!(cli.workers, 4);
        assert_eq!(cli.args.workers, 4);
        let cli = parse_strs(&["fig9"]).unwrap();
        assert_eq!(cli.workers, 1, "defaults to sequential");
        let cli = parse_strs(&["scenario", "x.json", "--workers", "8"]).unwrap();
        assert_eq!(cli.workers, 8);
        let cli = parse_strs(&["serve", "--workers", "2"]).unwrap();
        assert_eq!(cli.workers, 2);
        assert!(parse_strs(&["fig9", "--workers", "0"])
            .unwrap_err()
            .contains("at least 1"));
        assert!(parse_strs(&["fig9", "--workers", "x"])
            .unwrap_err()
            .contains("not an integer"));
        let err = parse_strs(&["submit", "a.json", "--workers", "2"]).unwrap_err();
        assert!(err.contains("--workers only applies"), "{err}");
    }

    #[test]
    fn seeds_sweep() {
        let cli = parse_strs(&["fig9", "--seeds", "1,2,3"]).unwrap();
        assert_eq!(cli.seeds, vec![1, 2, 3]);
    }

    #[test]
    fn scenario_subcommand_parses_with_harness_flags() {
        let cli = parse_strs(&[
            "scenario",
            "scenarios/rolling_failures.json",
            "--jobs",
            "4",
            "--json",
            "--out",
            "results/current",
        ])
        .unwrap();
        assert_eq!(
            cli.scenario,
            vec![PathBuf::from("scenarios/rolling_failures.json")]
        );
        assert_eq!(cli.jobs, 4);
        assert!(cli.json);
        assert!(cli.timing && cli.cache, "timing and cache default on");
        assert!(cli.ids.is_empty());
    }

    #[test]
    fn scenario_accepts_a_batch_of_files() {
        // Both spellings: repeated keyword and bare positionals after the
        // first `scenario`.
        for argv in [
            &[
                "scenario",
                "a.json",
                "scenario",
                "b.json",
                "--no-timing",
                "--no-cache",
            ][..],
            &["scenario", "a.json", "b.json", "--no-timing", "--no-cache"],
        ] {
            let cli = parse_strs(argv).unwrap();
            assert_eq!(
                cli.scenario,
                vec![PathBuf::from("a.json"), PathBuf::from("b.json")],
                "{argv:?}"
            );
            assert!(!cli.timing);
            assert!(!cli.cache);
        }
    }

    #[test]
    fn serve_and_submit_parse_with_their_flags() {
        let cli = parse_strs(&["serve", "--addr", "0.0.0.0:9000", "--jobs", "3"]).unwrap();
        assert!(cli.serve);
        assert_eq!(cli.addr, "0.0.0.0:9000");
        assert_eq!(cli.jobs, 3);
        let cli = parse_strs(&["submit", "scenarios/ci_smoke.json", "--priority", "-2"]).unwrap();
        assert_eq!(cli.submit, Some(PathBuf::from("scenarios/ci_smoke.json")));
        assert_eq!(cli.priority, -2);
        assert_eq!(cli.addr, DEFAULT_ADDR);
    }

    #[test]
    fn lint_is_its_own_mode() {
        let cli = parse_strs(&["lint"]).unwrap();
        assert!(cli.lint && !cli.json);
        let cli = parse_strs(&["lint", "--json"]).unwrap();
        assert!(cli.lint && cli.json);
        let err = parse_strs(&["lint", "fig9"]).unwrap_err();
        assert!(err.contains("cannot be mixed"), "{err}");
        let err = parse_strs(&["lint", "serve"]).unwrap_err();
        assert!(err.contains("cannot be mixed"), "{err}");
        let err = parse_strs(&["lint", "list"]).unwrap_err();
        assert!(err.contains("cannot be mixed"), "{err}");
    }

    #[test]
    fn serve_submit_validation() {
        let err = parse_strs(&["serve", "fig9"]).unwrap_err();
        assert!(err.contains("cannot be mixed"), "{err}");
        let err = parse_strs(&["submit", "a.json", "scenario", "b.json"]).unwrap_err();
        assert!(err.contains("cannot be mixed"), "{err}");
        let err = parse_strs(&["serve", "list"]).unwrap_err();
        assert!(err.contains("cannot be mixed"), "{err}");
        let err = parse_strs(&["fig9", "--addr", "1.2.3.4:5"]).unwrap_err();
        assert!(err.contains("--addr only applies"), "{err}");
        let err = parse_strs(&["serve", "--priority", "1"]).unwrap_err();
        assert!(err.contains("--priority only applies"), "{err}");
        let err = parse_strs(&["serve", "--addr", "noport"]).unwrap_err();
        assert!(err.contains("not HOST:PORT"), "{err}");
        let err = parse_strs(&["submit", "a.json", "submit", "b.json"]).unwrap_err();
        assert!(err.contains("one scenario file per submission"), "{err}");
    }

    #[test]
    fn trace_flag_applies_to_scenario_runs_only() {
        let cli = parse_strs(&["scenario", "a.json", "--trace", "out.ndjson"]).unwrap();
        assert_eq!(cli.trace, Some(PathBuf::from("out.ndjson")));
        // A batch records one suffixed file per scenario.
        let cli = parse_strs(&["scenario", "a.json", "b.json", "--trace", "t.ndjson"]).unwrap();
        assert_eq!(cli.trace, Some(PathBuf::from("t.ndjson")));
        assert_eq!(cli.scenario.len(), 2);
        let err = parse_strs(&["fig9", "--trace", "t"]).unwrap_err();
        assert!(err.contains("scenario"), "{err}");
        let err = parse_strs(&["--trace"]).unwrap_err();
        assert!(err.contains("needs a value"), "{err}");
    }

    #[test]
    fn trace_subcommand_is_its_own_mode() {
        let cli = parse_strs(&["trace", "results/run.ndjson"]).unwrap();
        assert_eq!(
            cli.trace_cmd,
            Some(TraceCmd::Summary(PathBuf::from("results/run.ndjson")))
        );
        let err = parse_strs(&["trace", "a.ndjson", "trace", "b.ndjson"]).unwrap_err();
        assert!(err.contains("one trace file"), "{err}");
        let err = parse_strs(&["trace", "a.ndjson", "fig9"]).unwrap_err();
        assert!(err.contains("cannot be mixed"), "{err}");
        assert!(parse_strs(&["trace"])
            .unwrap_err()
            .contains("needs a value"));
    }

    #[test]
    fn trace_query_parses_its_filters() {
        let cli = parse_strs(&[
            "trace",
            "query",
            "t.ndjson",
            "--kind",
            "flow_grant",
            "--tor",
            "3",
            "--flow",
            "17",
            "--epoch",
            "10..20",
            "--top-fct",
            "5",
            "--json",
        ])
        .unwrap();
        assert_eq!(
            cli.trace_cmd,
            Some(TraceCmd::Query(PathBuf::from("t.ndjson")))
        );
        assert_eq!(cli.trace_kind, Some(TraceEventKind::FlowGrant));
        let err = parse_strs(&["trace", "query", "t.ndjson", "--kind", "flow_grnat"]).unwrap_err();
        assert!(err.contains("unknown event kind 'flow_grnat'"), "{err}");
        assert!(err.contains("valid kinds: sched,"), "{err}");
        assert_eq!(cli.trace_tor, Some(3));
        assert_eq!(cli.trace_flow, Some(17));
        assert_eq!(cli.trace_epochs, Some((10, 20)));
        assert_eq!(cli.trace_top_fct, Some(5));
        assert!(cli.json);
        // A bare epoch is the single-epoch range.
        let cli = parse_strs(&["trace", "query", "t.ndjson", "--epoch", "7"]).unwrap();
        assert_eq!(cli.trace_epochs, Some((7, 7)));
        let err = parse_strs(&["trace", "query", "t.ndjson", "--epoch", "9..2"]).unwrap_err();
        assert!(err.contains("empty range"), "{err}");
        let err = parse_strs(&["trace", "query", "t.ndjson", "--epoch", "x"]).unwrap_err();
        assert!(err.contains("not an epoch"), "{err}");
        let err = parse_strs(&["trace", "query", "t.ndjson", "--top-fct", "0"]).unwrap_err();
        assert!(err.contains("at least 1"), "{err}");
        // Filters are query-only.
        let err = parse_strs(&["trace", "t.ndjson", "--kind", "sched"]).unwrap_err();
        assert!(err.contains("--kind only applies"), "{err}");
        let err = parse_strs(&["fig9", "--top-fct", "3"]).unwrap_err();
        assert!(err.contains("--top-fct only applies"), "{err}");
    }

    #[test]
    fn trace_diff_parses_two_files_and_context() {
        let cli = parse_strs(&["trace", "diff", "a.ndjson", "b.ndjson"]).unwrap();
        assert_eq!(
            cli.trace_cmd,
            Some(TraceCmd::Diff(
                PathBuf::from("a.ndjson"),
                PathBuf::from("b.ndjson")
            ))
        );
        assert_eq!(cli.trace_context, DEFAULT_DIFF_CONTEXT);
        let cli = parse_strs(&["trace", "diff", "a", "b", "--context", "7"]).unwrap();
        assert_eq!(cli.trace_context, 7);
        assert!(parse_strs(&["trace", "diff", "a.ndjson"])
            .unwrap_err()
            .contains("needs a value"));
        let err = parse_strs(&["trace", "a.ndjson", "--context", "2"]).unwrap_err();
        assert!(err.contains("--context only applies"), "{err}");
    }

    #[test]
    fn trace_strict_is_summary_only() {
        let cli = parse_strs(&["trace", "t.ndjson", "--strict"]).unwrap();
        assert!(cli.trace_strict);
        let err = parse_strs(&["trace", "diff", "a", "b", "--strict"]).unwrap_err();
        assert!(err.contains("--strict only applies"), "{err}");
        let err = parse_strs(&["fig9", "--strict"]).unwrap_err();
        assert!(err.contains("--strict only applies"), "{err}");
    }

    #[test]
    fn trace_capacity_validates_and_is_gated() {
        let cli = parse_strs(&[
            "scenario",
            "a.json",
            "--trace",
            "t",
            "--trace-capacity",
            "4096",
        ])
        .unwrap();
        assert_eq!(cli.trace_capacity, Some(4096));
        let cli = parse_strs(&["serve", "--trace-capacity", "1024"]).unwrap();
        assert_eq!(cli.trace_capacity, Some(1024));
        for bad in ["0", "100", "512", "3000"] {
            let err = parse_strs(&[
                "scenario",
                "a.json",
                "--trace",
                "t",
                "--trace-capacity",
                bad,
            ])
            .unwrap_err();
            assert!(err.contains("power of two"), "{bad}: {err}");
        }
        let err = parse_strs(&["fig9", "--trace-capacity", "4096"]).unwrap_err();
        assert!(err.contains("--trace-capacity only applies"), "{err}");
        let err = parse_strs(&["scenario", "a.json", "--trace-capacity", "4096"]).unwrap_err();
        assert!(err.contains("--trace-capacity only applies"), "{err}");
    }

    #[test]
    fn log_level_parses_and_is_serve_only() {
        let cli = parse_strs(&["serve", "--log-level", "debug"]).unwrap();
        assert_eq!(cli.log_level, "debug");
        let cli = parse_strs(&["serve"]).unwrap();
        assert_eq!(cli.log_level, "info", "defaults to info");
        let err = parse_strs(&["serve", "--log-level", "loud"]).unwrap_err();
        assert!(err.contains("unknown level"), "{err}");
        let err = parse_strs(&["fig9", "--log-level", "debug"]).unwrap_err();
        assert!(err.contains("--log-level only applies"), "{err}");
    }

    #[test]
    fn scenario_rejects_experiment_mixes_and_pinned_flags() {
        let err = parse_strs(&["fig9", "scenario", "x.json"]).unwrap_err();
        assert!(err.contains("cannot be mixed"), "{err}");
        for flag in [
            &["scenario", "x.json", "--seed", "3"][..],
            &["scenario", "x.json", "--seeds", "1,2"],
            &["scenario", "x.json", "--loads", "50"],
            &["scenario", "x.json", "--duration-ms", "1"],
        ] {
            let err = parse_strs(flag).unwrap_err();
            assert!(err.contains("pins its own"), "{flag:?}: {err}");
        }
        assert!(parse_strs(&["scenario"])
            .unwrap_err()
            .contains("needs a value"));
    }
}
