//! Regenerate the paper's tables and figures — and serve them.
//!
//! ```text
//! paper <experiment-id>... [--duration-ms N] [--loads 10,50,100] [--seed N]
//!       [--jobs N] [--workers N] [--json] [--no-timing] [--out DIR] [--seeds A,B,C]
//! paper all --jobs 8 --json --out results/
//! paper scenario <file.json>... [--jobs N] [--workers N] [--json] [--no-timing] [--no-cache] [--out DIR]
//! paper scenario <file.json>... --trace out.ndjson [--trace-capacity N] [--workers N] [--json] [--out DIR]
//! paper serve [--addr HOST:PORT] [--jobs N] [--workers N] [--out DIR] [--log-level error|info|debug] [--trace-capacity N]
//! paper submit <file.json> [--addr HOST:PORT] [--priority N]
//! paper trace <file.ndjson> [--strict]
//! paper trace query <file.ndjson> [--kind NAME] [--tor N] [--flow N] [--epoch A..B] [--top-fct N] [--json]
//! paper trace diff <a.ndjson> <b.ndjson> [--context N]
//! paper list [--json]
//! paper lint [--json]
//! ```
//!
//! Experiments expand into independent runs executed across `--jobs`
//! worker threads, and each simulation can shard its per-ToR phase work
//! across `--workers` intra-run threads; output is byte-identical at any
//! job or worker count. `--json`
//! writes one machine-readable `results/<id>.json` per experiment
//! (schema: see `bench::results`), which `bench-diff` compares across
//! revisions to gate CI on regressions. `paper scenario` runs declarative
//! scenario files through the same machinery, deduping identical runs in
//! a batch and sharing the content-addressed result cache in `<out>/cache`
//! with the daemon. `paper serve` / `paper submit` are the serving pair:
//! a long-running daemon that queues submissions, streams per-phase
//! progress and returns results byte-identical to the offline
//! `--json --no-timing` form (wire protocol: README "Service").

use std::path::{Path, PathBuf};

use bench::cache::{CacheEntry, ResultCache};
use bench::experiments::{find_experiment, Args, Experiment, EXPERIMENTS};
use bench::{cli, results, scenario, sweep};
use metrics::Json;
use service::library::library_json;

fn main() {
    let parsed = cli::parse(std::env::args().skip(1).collect());
    let cli = match parsed {
        Ok(cli) => cli,
        Err(error) => {
            eprintln!("error: {error}\n");
            usage();
            std::process::exit(2);
        }
    };
    if cli.list {
        list(&cli);
        return;
    }
    if cli.lint {
        run_lint(&cli);
        return;
    }
    if cli.serve {
        let log_level = match service::LogLevel::parse(&cli.log_level) {
            Ok(level) => level,
            Err(error) => {
                // The CLI parser validates the token; this only fires if
                // the two lists ever drift apart.
                eprintln!("error: {error}");
                std::process::exit(2);
            }
        };
        let config = service::ServeConfig {
            addr: cli.addr.clone(),
            jobs: cli.jobs,
            workers: cli.workers,
            out: cli.out.clone(),
            scenarios_dir: Path::new("scenarios").to_path_buf(),
            log_level,
            trace_capacity: cli.trace_capacity,
        };
        if let Err(error) = service::serve_forever(config) {
            eprintln!("error: {error}");
            std::process::exit(1);
        }
        return;
    }
    if let Some(cmd) = &cli.trace_cmd {
        run_trace_cmd(cmd, &cli);
        return;
    }
    if let Some(path) = &cli.submit {
        submit(path, &cli);
        return;
    }
    if !cli.scenario.is_empty() {
        run_scenarios(&cli);
        return;
    }
    if cli.ids.is_empty() {
        usage();
        std::process::exit(2);
    }
    run_experiments(&cli);
}

fn run_experiments(cli: &cli::Cli) {
    let exps: Vec<&'static dyn Experiment> = cli
        .ids
        .iter()
        .map(|id| find_experiment(id).expect("ids validated by the parser"))
        .collect();
    let multi_seed = cli.seeds.len() > 1;
    for &seed in &cli.seeds {
        let args = Args {
            seed,
            ..cli.args.clone()
        };
        println!(
            "# NegotiaToR reproduction — duration {} ms per run, loads {:?}, seed {seed}\n",
            args.duration as f64 / 1e6,
            args.loads.iter().map(|l| l * 100.0).collect::<Vec<_>>(),
        );
        eprintln!("[{} experiments across {} jobs]", exps.len(), cli.jobs);
        let started = std::time::Instant::now();
        let reports = sweep::run_sweep(&exps, &args, cli.jobs);
        for report in &reports {
            println!("{}", report.rendered);
            eprintln!(
                "[{}: {} runs, {:.1}s simulated-run time]",
                report.id,
                report.results.len(),
                report.runs_wall_secs()
            );
        }
        if cli.json {
            write_json(cli, &reports, multi_seed);
        }
        eprintln!(
            "[sweep of {} experiments done in {:.1?}]",
            reports.len(),
            started.elapsed()
        );
    }
}

/// What one scenario of the batch resolved to.
enum Plan {
    /// Served from the content-addressed cache, no simulation.
    Cached(CacheEntry),
    /// Index into the freshly simulated batch.
    Fresh(usize),
}

/// Run a batch of scenario files: validate + compile everything up front
/// (any problem exits before a single epoch simulates), serve what the
/// content-addressed cache already has, dedupe identical runs among the
/// rest, execute on the shared pool, and populate the cache for next
/// time (and for the daemon).
fn run_scenarios(cli: &cli::Cli) {
    if cli.trace.is_some() {
        return run_traced_scenario(cli);
    }
    let compiled: Vec<_> = cli
        .scenario
        .iter()
        .map(|path| match scenario::load(path) {
            Ok(compiled) => compiled,
            Err(error) => {
                eprintln!("error: {error}");
                std::process::exit(2);
            }
        })
        .collect();
    let cache = ResultCache::new(cli.out.join("cache"));
    // Cache entries hold the deterministic (timing-free) document, so a
    // hit can only substitute for a run whose output carries no timing —
    // `--json` without `--no-timing` must simulate to measure wall time,
    // or the same command would write different schemas hot vs cold.
    let lookup = cli.cache && !(cli.json && cli.timing);
    let mut plans = Vec::with_capacity(compiled.len());
    let mut to_run = Vec::new();
    for c in &compiled {
        let hash = c.content_hash();
        match lookup.then(|| cache.lookup(hash)).flatten() {
            Some(entry) => {
                eprintln!(
                    "[scenario '{}': cache hit {} — skipping {} runs]",
                    c.spec.name,
                    ::scenario::hash::hex(hash),
                    c.spec.engines.len()
                );
                plans.push(Plan::Cached(entry));
            }
            None => {
                plans.push(Plan::Fresh(to_run.len()));
                to_run.push(c.clone());
            }
        }
    }
    let started = std::time::Instant::now();
    let outcome = if to_run.is_empty() {
        None
    } else {
        let runs: usize = to_run.iter().map(|c| c.spec.engines.len()).sum();
        eprintln!(
            "[{} scenario(s), {} runs across {} jobs]",
            to_run.len(),
            runs,
            cli.jobs
        );
        let outcome = scenario::run_batch(&to_run, cli.jobs, cli.workers);
        if outcome.coalesced > 0 {
            eprintln!(
                "[coalesced {} duplicate run(s) — identical content hash, simulated once]",
                outcome.coalesced
            );
        }
        Some(outcome)
    };
    // Populate the cache from the fresh reports (a batch can contain the
    // same scenario twice; store each hash once).
    if let Some(outcome) = &outcome {
        let mut stored = std::collections::HashSet::new();
        for (c, report) in to_run.iter().zip(&outcome.reports) {
            let hash = c.content_hash();
            if cli.cache && stored.insert(hash) {
                let entry = CacheEntry {
                    scenario: c.spec.name.clone(),
                    rendered: report.rendered.clone(),
                    document: scenario::deterministic_document(report),
                };
                if let Err(error) = cache.store(hash, &entry) {
                    eprintln!(
                        "error: caching {}: {error}",
                        cache.entry_path(hash).display()
                    );
                }
            }
        }
    }
    // Emit in input order: rendered text always, JSON files on --json.
    let fresh_report = |i: &usize| -> &sweep::SweepReport {
        &outcome.as_ref().expect("fresh plans imply a batch").reports[*i]
    };
    for plan in &plans {
        match plan {
            Plan::Cached(entry) => println!("{}", entry.rendered),
            Plan::Fresh(i) => println!("{}", fresh_report(i).rendered),
        }
    }
    if cli.json {
        for plan in &plans {
            match plan {
                Plan::Cached(entry) => {
                    let path = cli.out.join(format!("scenario-{}.json", entry.scenario));
                    if let Err(error) = std::fs::create_dir_all(&cli.out)
                        .and_then(|()| std::fs::write(&path, entry.document.as_bytes()))
                    {
                        eprintln!("error: writing {}: {error}", path.display());
                        std::process::exit(1);
                    }
                    eprintln!("[wrote {} (from cache)]", path.display());
                }
                Plan::Fresh(i) => {
                    write_json(cli, std::slice::from_ref(fresh_report(i)), false);
                }
            }
        }
    }
    eprintln!("[scenario batch done in {:.1?}]", started.elapsed());
}

/// `paper scenario <file>... --trace out.ndjson`: the traced scenario
/// path. Tracing requires simulating (a cache hit has no recorder), so
/// the cache lookup is bypassed — but the entries are still stored, and
/// the daemon's `GET /jobs/<id>/trace` for the same scenario is
/// byte-identical because both call `bench::scenario::execute_traced`.
/// A multi-file batch writes one trace per scenario, the given path
/// suffixed with each scenario's name (`t.ndjson` → `t-<name>.ndjson`).
fn run_traced_scenario(cli: &cli::Cli) {
    let compiled: Vec<_> = cli
        .scenario
        .iter()
        .map(|path| match scenario::load(path) {
            Ok(compiled) => compiled,
            Err(error) => {
                eprintln!("error: {error}");
                std::process::exit(2);
            }
        })
        .collect();
    let trace_path = cli.trace.as_ref().expect("checked by the parser");
    let multi = compiled.len() > 1;
    let started = std::time::Instant::now();
    let write = |path: &Path, bytes: &[u8]| -> std::io::Result<()> {
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, bytes)
    };
    for c in &compiled {
        eprintln!(
            "[scenario '{}': tracing {} run(s) — cache lookup bypassed]",
            c.spec.name,
            c.spec.engines.len()
        );
        let (report, trace, _) = scenario::execute_traced(c, None, cli.workers, cli.trace_capacity);
        let out_path = if multi {
            suffixed_trace_path(trace_path, &c.spec.name)
        } else {
            trace_path.clone()
        };
        if let Err(error) = write(&out_path, trace.as_bytes()) {
            eprintln!("error: writing {}: {error}", out_path.display());
            std::process::exit(1);
        }
        eprintln!(
            "[wrote {} ({} bytes of flight-recorder NDJSON)]",
            out_path.display(),
            trace.len()
        );
        if cli.cache {
            let cache = ResultCache::new(cli.out.join("cache"));
            let entry = CacheEntry {
                scenario: c.spec.name.clone(),
                rendered: report.rendered.clone(),
                document: scenario::deterministic_document(&report),
            };
            if let Err(error) = cache.store(c.content_hash(), &entry) {
                eprintln!("error: caching {}: {error}", c.spec.name);
            }
        }
        println!("{}", report.rendered);
        if cli.json {
            write_json(cli, std::slice::from_ref(&report), false);
        }
    }
    eprintln!("[traced scenario batch done in {:.1?}]", started.elapsed());
}

/// `t.ndjson` + scenario `storm` → `t-storm.ndjson`, so a batch's traces
/// land side by side without clobbering each other.
fn suffixed_trace_path(base: &Path, name: &str) -> PathBuf {
    let stem = base.file_stem().and_then(|s| s.to_str()).unwrap_or("trace");
    let file = match base.extension().and_then(|e| e.to_str()) {
        Some(ext) => format!("{stem}-{name}.{ext}"),
        None => format!("{stem}-{name}"),
    };
    base.with_file_name(file)
}

/// `paper trace …`: summarize, query or diff flight-recorder NDJSON.
fn run_trace_cmd(cmd: &cli::TraceCmd, cli: &cli::Cli) {
    let read = |path: &Path| -> String {
        match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(error) => {
                eprintln!("error: {}: {error}", path.display());
                std::process::exit(2);
            }
        }
    };
    match cmd {
        cli::TraceCmd::Summary(path) => {
            let text = read(path);
            let sections = match metrics::trace::parse(&text) {
                Ok(sections) => sections,
                Err(error) => {
                    eprintln!("error: {}: {error}", path.display());
                    std::process::exit(1);
                }
            };
            print!("{}", bench::tracecmd::render(&sections));
            let dropped: u64 = sections.iter().map(|s| s.dropped).sum();
            if cli.trace_strict && dropped > 0 {
                eprintln!(
                    "error: {}: {dropped} event(s) dropped by ring overflow (--strict)",
                    path.display()
                );
                std::process::exit(1);
            }
        }
        cli::TraceCmd::Query(path) => {
            let text = read(path);
            let opts = bench::traceq::QueryOpts {
                kind: cli.trace_kind,
                tor: cli.trace_tor,
                flow: cli.trace_flow,
                epochs: cli.trace_epochs,
                top_fct: cli.trace_top_fct,
                json: cli.json,
            };
            match bench::traceq::query(&text, &opts) {
                Ok(out) if out.ends_with('\n') => print!("{out}"),
                Ok(out) => println!("{out}"),
                Err(error) => {
                    eprintln!("error: {}: {error}", path.display());
                    std::process::exit(1);
                }
            }
        }
        cli::TraceCmd::Diff(a, b) => {
            let (text_a, text_b) = (read(a), read(b));
            let outcome = bench::traceq::diff(
                &a.display().to_string(),
                &text_a,
                &b.display().to_string(),
                &text_b,
                cli.trace_context,
            );
            print!("{}", outcome.report);
            if outcome.divergent {
                std::process::exit(1);
            }
        }
    }
}

/// `paper submit`: send one scenario file to a daemon, stream progress to
/// stderr, and print the result document (byte-identical to the offline
/// `--json --no-timing` form) on stdout.
fn submit(path: &Path, cli: &cli::Cli) {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(error) => {
            eprintln!("error: {}: {error}", path.display());
            std::process::exit(2);
        }
    };
    let outcome = service::submit(&cli.addr, &text, cli.priority, |event| {
        let kind = event.get("event").and_then(Json::as_str).unwrap_or("?");
        match kind {
            "phase" => {
                let get = |k: &str| event.get(k).and_then(Json::as_f64).unwrap_or(-1.0);
                eprintln!(
                    "[phase {}/{} '{}' done ({})]",
                    get("phase") as i64 + 1,
                    get("phases") as i64,
                    event.get("label").and_then(Json::as_str).unwrap_or("?"),
                    event.get("system").and_then(Json::as_str).unwrap_or("?"),
                );
            }
            _ => eprintln!("[{}]", event.render_compact()),
        }
    });
    match outcome {
        Ok(outcome) => {
            eprintln!(
                "[result: {}]",
                match outcome.disposition {
                    service::Disposition::CacheHit => "cache hit — served without simulating",
                    service::Disposition::Simulated => "simulated",
                    service::Disposition::Coalesced => {
                        "coalesced onto an identical in-flight job"
                    }
                }
            );
            print!("{}", outcome.document);
        }
        Err(error) => {
            eprintln!("error: {error}");
            std::process::exit(1);
        }
    }
}

/// `paper lint`: scan the workspace for determinism-invariant violations
/// (rules and zones: README "Static analysis"). Exit 0 when clean, 1 on
/// findings, 2 when the scan itself cannot run.
fn run_lint(cli: &cli::Cli) {
    let root = Path::new(".");
    if !root.join("crates").is_dir() {
        eprintln!("error: lint: run from the workspace root (no crates/ directory here)");
        std::process::exit(2);
    }
    let report = match lint::scan_workspace(root) {
        Ok(report) => report,
        Err(error) => {
            eprintln!("error: lint: {error}");
            std::process::exit(2);
        }
    };
    if cli.json {
        println!("{}", lint::render_json(&report).render());
    } else {
        print!("{}", lint::render_text(&report));
    }
    if !report.findings.is_empty() {
        std::process::exit(1);
    }
}

fn list(cli: &cli::Cli) {
    if cli.json {
        // Machine-readable: experiments + the scenario library, one
        // document, so clients can discover everything a daemon can run.
        let mut doc = Json::object();
        let mut experiments = Vec::new();
        for exp in EXPERIMENTS {
            let mut e = Json::object();
            e.push("id", exp.id()).push("artifact", exp.artifact());
            experiments.push(e);
        }
        doc.push("experiments", Json::Arr(experiments));
        let library = library_json(Path::new("scenarios"));
        doc.push(
            "scenarios",
            library
                .get("scenarios")
                .cloned()
                .unwrap_or(Json::Arr(Vec::new())),
        );
        println!("{}", doc.render());
        return;
    }
    for exp in EXPERIMENTS {
        println!("{:<8} {}", exp.id(), exp.artifact());
    }
    list_scenarios(Path::new("scenarios"));
}

fn write_json(cli: &cli::Cli, reports: &[sweep::SweepReport], multi_seed: bool) {
    let timing_jobs = cli.timing.then_some(cli.jobs);
    match results::write_reports(&cli.out, reports, timing_jobs, multi_seed) {
        Ok(paths) => {
            for path in paths {
                eprintln!("[wrote {}]", path.display());
            }
        }
        Err(error) => {
            eprintln!("error: writing {}: {error}", cli.out.display());
            std::process::exit(1);
        }
    }
}

/// Enumerate the scenario library next to the experiment registry, one
/// line per file with its description — or its validation error, so a
/// broken library file is visible right in `paper list`. The entries are
/// the same ones `paper list --json` and `GET /scenarios` serve
/// (`service::library`), so the human and machine listings can never
/// disagree.
fn list_scenarios(dir: &Path) {
    let library = library_json(dir);
    let entries = library
        .get("scenarios")
        .and_then(Json::as_array)
        .unwrap_or(&[]);
    if entries.is_empty() {
        return;
    }
    println!("\nscenarios (paper scenario <file>):");
    for entry in entries {
        let path = entry.get("path").and_then(Json::as_str).unwrap_or("?");
        let line = match entry.get("error").and_then(Json::as_str) {
            Some(error) => format!("INVALID — {error}"),
            None => entry
                .get("description")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string(),
        };
        println!("{path:<36} {line}");
    }
}

fn usage() {
    eprintln!(
        "usage: paper <experiment-id>|all|list [--duration-ms N] [--loads 10,50,100]\n\
         \u{20}      [--seed N | --seeds A,B,C] [--jobs N] [--workers N] [--json] [--no-timing] [--out DIR]\n\
         \u{20}      paper scenario <file.json>... [--jobs N] [--workers N] [--json] [--no-timing] [--no-cache] [--out DIR]\n\
         \u{20}      paper scenario <file.json>... --trace out.ndjson [--trace-capacity N] [--workers N] [--json] [--out DIR]\n\
         \u{20}      paper serve [--addr HOST:PORT] [--jobs N] [--workers N] [--out DIR] [--log-level error|info|debug] [--trace-capacity N]\n\
         \u{20}      paper submit <file.json> [--addr HOST:PORT] [--priority N]\n\
         \u{20}      paper trace <file.ndjson> [--strict]\n\
         \u{20}      paper trace query <file.ndjson> [--kind NAME] [--tor N] [--flow N] [--epoch A..B] [--top-fct N] [--json]\n\
         \u{20}      paper trace diff <a.ndjson> <b.ndjson> [--context N]\n\
         \u{20}      paper list [--json]\n\
         \u{20}      paper lint [--json]"
    );
    eprintln!("experiments:");
    for exp in EXPERIMENTS {
        eprintln!("  {:<8} {}", exp.id(), exp.artifact());
    }
}
