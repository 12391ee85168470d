//! The three workloads, untraced (end-to-end metrics) and traced
//! (per-layer metrics).

use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use metrics::Json;

use crate::child::{self, Exit};
use crate::http::{self, Response};
use crate::layers::{self, Totals};
use crate::scenarios;
use crate::spans::{self, Tracer};
use crate::stats::{mean, median, quantile};
use crate::{Outcome, Workload};

/// The seed whose result documents are pinned below.
pub const DEFAULT_SEED: u64 = 1;

/// FNV-1a digests of the result documents at [`DEFAULT_SEED`]: the
/// scenario document of each CLI workload, and the concatenated
/// documents of the daemon's offline sample.
fn pinned_digest(workload: Workload) -> &'static str {
    match workload {
        Workload::Kernel1024 => "34de3506a641c467",
        Workload::FaultsThinclos128 => "2ec36a9aa5e3e10c",
        Workload::DaemonSmallJobs => "5c077ca794009dd4",
    }
}

/// `bench::scenario::load` calls timed for `setup_s` on CLI workloads
/// before each `paper scenario` run, so the samples spread over the whole
/// measured loop and a slow spell of the host hits them as it hits the runs.
const LOADS_PER_RUN: usize = 5;
/// Daemon start-ups timed for `setup_s`; the last one serves the load.
const STARTS: usize = 9;
/// `paper scenario` runs a CLI workload makes at least.
const MIN_RUNS: usize = 3;
/// `GET /healthz` probes of the idle daemon on CLI workloads.
const HEALTHZ_PROBES: usize = 25;
/// Closed-loop clients of the daemon workload (the host's core count).
const CLIENTS: usize = 2;
/// Distinct daemon bodies re-run offline: six of every shape.
const SAMPLE: usize = 30;
/// Distinct daemon bodies whose served documents give the daemon's
/// `sim_*` metrics: enough that one small fabric's heavy-tailed goodput
/// averages out, few enough that a 30 s loop serves them all (a loop that
/// serves fewer fails a check).
const SIM_BODIES: usize = 300;

/// Where a run finds the program and keeps its files.
pub struct Ctx {
    /// The `paper` binary.
    pub paper: PathBuf,
    /// A fresh directory for this run's files.
    pub work: PathBuf,
    /// Workload seed.
    pub seed: u64,
    /// How long the measured loop runs.
    pub seconds: f64,
}

impl Ctx {
    fn write(&self, name: &str, text: &str) -> Result<PathBuf, String> {
        let path = self.work.join(name);
        std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(path)
    }

    fn dir(&self, name: &str) -> Result<PathBuf, String> {
        let path = self.work.join(name);
        std::fs::create_dir_all(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(path)
    }
}

/// One `paper scenario` run.
pub struct CliRun {
    /// Exited with status 0.
    pub success: bool,
    /// Spawn to reap.
    pub wall_s: f64,
    /// Peak RSS of the process.
    pub peak_rss_mb: f64,
    /// The result document it wrote.
    pub document: Option<String>,
}

/// Run `paper scenario <file> --json --no-timing --no-cache --jobs 1
/// --workers <workers>` and read back the document it writes.
pub fn paper_scenario(
    ctx: &Ctx,
    file: &Path,
    name: &str,
    workers: usize,
) -> Result<CliRun, String> {
    let out = ctx.dir("out")?;
    let (exit, wall_s) = child::run_timed(
        Command::new(&ctx.paper)
            .arg("scenario")
            .arg(file)
            .args([
                "--json",
                "--no-timing",
                "--no-cache",
                "--jobs",
                "1",
                "--workers",
            ])
            .arg(workers.to_string())
            .arg("--out")
            .arg(&out),
    )
    .map_err(|e| format!("running {}: {e}", ctx.paper.display()))?;
    let path = out.join(format!("scenario-{name}.json"));
    let document = std::fs::read_to_string(&path).ok();
    let _ = std::fs::remove_file(&path);
    Ok(CliRun {
        success: exit.success,
        wall_s,
        peak_rss_mb: exit.peak_rss_mb,
        document,
    })
}

/// Negotiator mice p99 FCT (µs) and normalized goodput of a document.
fn negotiator_sim(document: &str) -> Option<(f64, f64)> {
    let doc = Json::parse(document).ok()?;
    let run = doc.get("runs")?.as_array()?.iter().find(|r| {
        r.get("system")
            .and_then(Json::as_str)
            .is_some_and(|s| s.starts_with("nego/"))
    })?;
    let m = run.get("metrics")?;
    let p99_ns = m.get("mice")?.get("p99_ns")?.as_f64()?;
    let goodput = m.get("goodput")?.get("normalized")?.as_f64()?;
    Some((p99_ns / 1e3, goodput))
}

fn digest(documents: &[&[u8]]) -> String {
    let mut h = scenario::StableHasher::new();
    for d in documents {
        h.write_u64(d.len() as u64).write(d);
    }
    scenario::hash::hex(h.finish())
}

/// At the default seed, the documents must hash to the pinned digest.
fn check_pinned(workload: Workload, seed: u64, documents: &[&[u8]], out: &mut Outcome) {
    if seed == DEFAULT_SEED {
        let got = digest(documents);
        out.check(
            got == pinned_digest(workload),
            format_args!(
                "{}: documents hash to {got}, pinned {}",
                workload.name(),
                pinned_digest(workload)
            ),
        );
    }
}

fn workload_file(ctx: &Ctx, workload: Workload) -> Result<PathBuf, String> {
    let text = match workload {
        Workload::Kernel1024 => scenarios::kernel_1024(ctx.seed),
        Workload::FaultsThinclos128 => scenarios::faults_thinclos_128(ctx.seed),
        Workload::DaemonSmallJobs => unreachable!("the daemon workload has no single file"),
    };
    ctx.write(&format!("{}.json", workload.name()), &text)
}

/// A `paper serve` child. Dropping it kills and reaps the process.
pub struct Daemon {
    child: Option<Child>,
    /// Where it listens.
    pub addr: SocketAddr,
}

impl Daemon {
    /// Start a daemon with one job worker over a fresh results directory
    /// (a cold cache); returns it with the seconds from spawn to its
    /// first `200` on `/healthz`.
    pub fn start(ctx: &Ctx, out_dir: &str) -> Result<(Daemon, f64), String> {
        let out = ctx.dir(out_dir)?;
        let addr = TcpListener::bind("127.0.0.1:0")
            .and_then(|l| l.local_addr())
            .map_err(|e| format!("picking a port: {e}"))?;
        let started = Instant::now();
        let child = Command::new(&ctx.paper)
            .arg("serve")
            .arg("--addr")
            .arg(addr.to_string())
            .args([
                "--jobs",
                "1",
                "--workers",
                "1",
                "--log-level",
                "error",
                "--out",
            ])
            .arg(&out)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()
            .map_err(|e| format!("starting paper serve: {e}"))?;
        let mut daemon = Daemon {
            child: Some(child),
            addr,
        };
        loop {
            if let Ok(r) = http::request(addr, "GET", "/healthz", b"") {
                if r.status == 200 {
                    return Ok((daemon, started.elapsed().as_secs_f64()));
                }
            }
            let exited = daemon
                .child
                .as_mut()
                .and_then(|c| c.try_wait().ok().flatten());
            if let Some(status) = exited {
                daemon.child = None;
                return Err(format!("paper serve exited before answering: {status}"));
            }
            if started.elapsed() > Duration::from_secs(30) {
                return Err("paper serve did not answer /healthz within 30 s".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Ask the daemon to drain and exit, then reap it.
    pub fn stop(mut self) -> Result<Exit, String> {
        let r = http::request(self.addr, "POST", "/shutdown", b"")?;
        if r.status != 200 {
            return Err(format!("POST /shutdown answered {}", r.status));
        }
        let child = self.child.take().expect("a running daemon");
        child::reap(child).map_err(|e| format!("reaping paper serve: {e}"))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// `paper scenario` on one CLI workload, repeated for the run's seconds,
/// plus an idle daemon probed on `/healthz`.
pub fn cli_untraced(workload: Workload, ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let file = workload_file(ctx, workload)?;
    let (mut setups, mut loads_s) = (Vec::new(), 0.0);
    let (mut walls, mut rss, mut first) = (Vec::new(), 0.0f64, None::<String>);
    let started = Instant::now();
    while walls.len() < MIN_RUNS || started.elapsed().as_secs_f64() < ctx.seconds {
        for _ in 0..LOADS_PER_RUN {
            let loaded = Instant::now();
            let compiled = bench::scenario::load(&file)?;
            let secs = loaded.elapsed().as_secs_f64();
            std::hint::black_box(compiled);
            setups.push(secs);
            loads_s += secs;
        }
        let run = paper_scenario(ctx, &file, workload.name(), workload.workers())?;
        let same = match (&first, &run.document) {
            (None, Some(doc)) => {
                first = Some(doc.clone());
                true
            }
            (Some(a), Some(b)) => a == b,
            (_, None) => false,
        };
        out.check(
            run.success && same,
            format_args!(
                "paper scenario run {} failed or changed its output",
                walls.len()
            ),
        );
        walls.push(run.wall_s);
        rss = rss.max(run.peak_rss_mb);
    }
    let loop_s = started.elapsed().as_secs_f64() - loads_s;
    let first = first.ok_or("paper scenario wrote no document")?;
    check_pinned(workload, ctx.seed, &[first.as_bytes()], out);
    let (fct, goodput) = negotiator_sim(&first).ok_or("document has no negotiator run")?;

    let (daemon, _) = Daemon::start(ctx, "probe")?;
    let mut healthz = Vec::new();
    for _ in 0..HEALTHZ_PROBES {
        let r = http::request(daemon.addr, "GET", "/healthz", b"")?;
        out.check(
            r.status == 200,
            format_args!("GET /healthz answered {}", r.status),
        );
        healthz.push(r.secs);
    }
    let probe_exit = daemon.stop()?;
    out.check(probe_exit.success, "paper serve exited with an error");

    out.set("setup_s", median(&setups).expect("loads ran"));
    out.set("wall_s", median(&walls).expect("runs ran"));
    out.set("peak_rss_mb", rss);
    out.set("sim_mice_fct_p99_us", fct);
    out.set("sim_goodput", goodput);
    out.set("submit_p50_ms", median(&walls).expect("runs ran") * 1e3);
    out.set(
        "submit_p90_ms",
        quantile(&walls, 0.9).expect("runs ran") * 1e3,
    );
    out.set("jobs_per_s", walls.len() as f64 / loop_s);
    out.set(
        "healthz_p50_ms",
        median(&healthz).expect("probes ran") * 1e3,
    );
    out.samples.push(("paper scenario run seconds", walls));
    Ok(())
}

/// One closed-loop submission and the health check after it.
struct Submission {
    body: usize,
    post: Result<Response, String>,
    healthz: Result<Response, String>,
}

/// Drive the daemon from [`CLIENTS`] closed-loop clients for the run's
/// seconds: each submits a body with `POST /jobs?wait=1`, then checks
/// `GET /healthz`. With a tracer, each submission is a request of spans.
fn closed_loop(ctx: &Ctx, addr: SocketAddr, tracer: Option<&mut Tracer>) -> (Vec<Submission>, f64) {
    let next = AtomicUsize::new(0);
    let started = Instant::now();
    let client = |mut tracer: Option<Tracer>| {
        let mut done = Vec::new();
        loop {
            if started.elapsed().as_secs_f64() >= ctx.seconds {
                return (done, tracer);
            }
            let item = next.fetch_add(1, Ordering::Relaxed);
            let body = scenarios::body_of_item(item);
            let text = scenarios::daemon_body(ctx.seed, body);
            let submit = |mut t: Option<&mut Tracer>| {
                let post = spans::maybe(t.as_deref_mut(), "http.post_jobs", || {
                    http::request(addr, "POST", "/jobs?wait=1", text.as_bytes())
                });
                let healthz = spans::maybe(t, "http.healthz", || {
                    http::request(addr, "GET", "/healthz", b"")
                });
                Submission {
                    body,
                    post,
                    healthz,
                }
            };
            done.push(match tracer.as_mut() {
                Some(t) => t.request(item as u64, "client.submission", |t| submit(Some(t))),
                None => submit(None),
            });
        }
    };
    let forks: Vec<Option<Tracer>> = (0..CLIENTS)
        .map(|_| tracer.as_ref().map(|t| t.fork()))
        .collect();
    let results: Vec<(Vec<Submission>, Option<Tracer>)> = std::thread::scope(|scope| {
        let client = &client;
        let handles: Vec<_> = forks
            .into_iter()
            .map(|fork| scope.spawn(move || client(fork)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let elapsed = started.elapsed().as_secs_f64();
    let mut all = Vec::new();
    let mut tracer = tracer;
    for (subs, fork) in results {
        all.extend(subs);
        if let (Some(t), Some(fork)) = (tracer.as_deref_mut(), fork) {
            t.absorb(fork);
        }
    }
    (all, elapsed)
}

/// What the closed loop's responses held.
struct Served {
    /// The first document served per distinct body.
    documents: Vec<Option<Vec<u8>>>,
    /// Latency of every successful submission.
    submit: Vec<f64>,
    /// Latency of the submissions that ran the scenario (cache misses).
    runs: Vec<f64>,
    /// Latency of every health check.
    healthz: Vec<f64>,
}

/// Check every response of the loop.
fn check_loop(subs: &[Submission], out: &mut Outcome) -> Served {
    let bodies = subs.iter().map(|s| s.body + 1).max().unwrap_or(0);
    let mut served = Served {
        documents: vec![None; bodies],
        submit: Vec::new(),
        runs: Vec::new(),
        healthz: Vec::new(),
    };
    let mut cache = std::collections::BTreeMap::new();
    for s in subs {
        match &s.post {
            Ok(r) if r.status == 200 => {
                let first = served.documents[s.body].get_or_insert_with(|| r.body.clone());
                out.check(
                    *first == r.body,
                    format_args!("body {} was served two different documents", s.body),
                );
                let disposition = r.header("X-Cache").unwrap_or("none");
                if disposition == "miss" {
                    served.runs.push(r.secs);
                }
                *cache.entry(disposition.to_string()).or_insert(0) += 1;
                served.submit.push(r.secs);
            }
            Ok(r) => out.check(false, format_args!("POST /jobs answered {}", r.status)),
            Err(e) => out.check(false, format_args!("POST /jobs: {e}")),
        }
        match &s.healthz {
            Ok(r) => {
                out.check(
                    r.status == 200,
                    format_args!("GET /healthz answered {}", r.status),
                );
                served.healthz.push(r.secs);
            }
            Err(e) => out.check(false, format_args!("GET /healthz: {e}")),
        }
    }
    eprintln!("perfbench: cache dispositions {cache:?}");
    served
}

/// The daemon's offline sample: the first [`SAMPLE`] distinct bodies,
/// written to files and run through `paper scenario`; every document must
/// equal what the daemon served.
fn offline_sample(ctx: &Ctx, served: &[Option<Vec<u8>>], out: &mut Outcome) -> Result<(), String> {
    let mut docs: Vec<&[u8]> = Vec::new();
    for (index, doc) in served.iter().enumerate().take(SAMPLE) {
        let Some(doc) = doc else { continue };
        let file = ctx.write(
            &format!("body-{index}.json"),
            &scenarios::daemon_body(ctx.seed, index),
        )?;
        let name = scenarios::SHAPES[index % scenarios::SHAPES.len()];
        let run = paper_scenario(ctx, &file, name, 1)?;
        out.check(
            run.success && run.document.as_deref().map(str::as_bytes) == Some(doc.as_slice()),
            format_args!("body {index}: daemon document differs from paper scenario"),
        );
        docs.push(doc);
    }
    check_sample_size(docs.len(), SAMPLE, "offline sample", out);
    if docs.len() == SAMPLE {
        check_pinned(Workload::DaemonSmallJobs, ctx.seed, &docs, out);
    }
    Ok(())
}

/// A check that the loop served all `want` distinct bodies a check or a
/// metric is defined over, so a short run fails instead of quietly
/// covering fewer.
fn check_sample_size(got: usize, want: usize, what: &str, out: &mut Outcome) {
    out.check(
        got == want,
        format_args!("{what}: only {got} of {want} distinct bodies were served"),
    );
}

/// The daemon under a closed loop of small jobs.
pub fn daemon_untraced(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let mut setups = Vec::new();
    let mut daemon = None;
    for k in 0..STARTS {
        let (d, secs) = Daemon::start(ctx, &format!("serve-{k}"))?;
        setups.push(secs);
        if let Some(earlier) = daemon.replace(d) {
            let exit = Daemon::stop(earlier)?;
            out.check(exit.success, "paper serve exited with an error");
        }
    }
    let daemon = daemon.expect("STARTS > 0");
    let (subs, loop_s) = closed_loop(ctx, daemon.addr, None);
    let exit = daemon.stop()?;
    out.check(exit.success, "paper serve exited with an error");
    let served = check_loop(&subs, out);
    offline_sample(ctx, &served.documents, out)?;
    let sims: Vec<(f64, f64)> = served
        .documents
        .iter()
        .flatten()
        .take(SIM_BODIES)
        .map(|doc| {
            let doc = std::str::from_utf8(doc).map_err(|_| "a served document is not UTF-8")?;
            negotiator_sim(doc).ok_or("a served document has no negotiator run")
        })
        .collect::<Result<_, _>>()?;
    check_sample_size(sims.len(), SIM_BODIES, "sim_* metrics", out);
    let need = |v: Option<f64>, what: &str| v.ok_or_else(|| format!("no {what} measured"));
    let Served {
        submit,
        runs,
        healthz,
        ..
    } = served;

    out.set("setup_s", need(median(&setups), "daemon start")?);
    // Here one run from scenario to result document is a submission the
    // cache missed: it compiled, simulated, rendered and stored.
    out.set("wall_s", need(median(&runs), "cache-missing submission")?);
    out.set("peak_rss_mb", exit.peak_rss_mb);
    let fcts: Vec<f64> = sims.iter().map(|s| s.0).collect();
    let goodputs: Vec<f64> = sims.iter().map(|s| s.1).collect();
    out.set("sim_mice_fct_p99_us", need(mean(&fcts), "document")?);
    out.set("sim_goodput", need(mean(&goodputs), "document")?);
    out.set("submit_p50_ms", need(median(&submit), "submission")? * 1e3);
    out.set(
        "submit_p90_ms",
        need(quantile(&submit, 0.9), "submission")? * 1e3,
    );
    out.set("jobs_per_s", submit.len() as f64 / loop_s);
    out.set(
        "healthz_p50_ms",
        need(median(&healthz), "health check")? * 1e3,
    );
    out.samples.push(("submission seconds", submit));
    out.samples.push(("cache-missing submission seconds", runs));
    Ok(())
}

/// The traced pass of a CLI workload: its one scenario.
pub fn cli_traced(
    workload: Workload,
    ctx: &Ctx,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    let file = workload_file(ctx, workload)?;
    let mut totals = Totals::default();
    let document =
        layers::scenario_pass(ctx, tracer, 0, &file, workload.workers(), &mut totals, out)?;
    check_pinned(workload, ctx.seed, &[document.as_bytes()], out);
    insert_layers(&totals, out);
    // This path bypasses the daemon and its cache.
    for name in [
        "bench.cache_lookup_ms",
        "bench.cache_store_ms",
        "bench.cache_hit_ratio",
        "service.execute_mean_ms",
        "service.wait_ms",
    ] {
        out.set(name, 0.0);
    }
    Ok(())
}

/// The traced pass of the daemon workload: the closed loop with spans
/// around every HTTP call, a `/metrics` scrape, then the offline sample
/// traced in process.
pub fn daemon_traced(ctx: &Ctx, tracer: &mut Tracer, out: &mut Outcome) -> Result<(), String> {
    let (daemon, _) = Daemon::start(ctx, "serve")?;
    let (subs, _) = closed_loop(ctx, daemon.addr, Some(tracer));
    let scrape = tracer.span("http.metrics", |_| {
        http::request(daemon.addr, "GET", "/metrics", b"")
    })?;
    let exit = daemon.stop()?;
    out.check(exit.success, "paper serve exited with an error");
    out.check(
        scrape.status == 200,
        format_args!("GET /metrics answered {}", scrape.status),
    );
    let served = check_loop(&subs, out);
    let text = String::from_utf8_lossy(&scrape.body);
    let get = |series: &str| {
        crate::prom::value(&text, series).ok_or_else(|| format!("/metrics has no {series}"))
    };
    let per_call_ms = |stage: &str| -> Result<f64, String> {
        let calls = get(&format!("paper_stage_calls_total{{stage=\"{stage}\"}}"))?;
        let secs = get(&format!("paper_stage_seconds_total{{stage=\"{stage}\"}}"))?;
        Ok(if calls > 0.0 { secs / calls * 1e3 } else { 0.0 })
    };
    let hits = get("paper_cache_hits_total")?;
    let misses = get("paper_cache_misses_total")?;
    let execute_ms = per_call_ms("execute")?;
    let submit_p50_ms = median(&served.submit).ok_or("no submission succeeded")? * 1e3;

    let mut totals = Totals::default();
    let mut documents = Vec::new();
    for (index, doc) in served.documents.iter().enumerate().take(SAMPLE) {
        let Some(doc) = doc else { continue };
        let file = ctx.write(
            &format!("body-{index}.json"),
            &scenarios::daemon_body(ctx.seed, index),
        )?;
        let document = layers::scenario_pass(ctx, tracer, index, &file, 1, &mut totals, out)?;
        out.check(
            document.as_bytes() == doc.as_slice(),
            format_args!("body {index}: daemon document differs from bench::scenario"),
        );
        documents.push(document);
    }
    check_sample_size(documents.len(), SAMPLE, "traced sample", out);
    if documents.len() == SAMPLE {
        let docs: Vec<&[u8]> = documents.iter().map(String::as_bytes).collect();
        check_pinned(Workload::DaemonSmallJobs, ctx.seed, &docs, out);
    }
    insert_layers(&totals, out);
    out.set("bench.cache_lookup_ms", per_call_ms("cache_lookup")?);
    out.set("bench.cache_store_ms", per_call_ms("cache_store")?);
    out.set("bench.cache_hit_ratio", hits / (hits + misses).max(1.0));
    out.set("service.execute_mean_ms", execute_ms);
    out.set("service.wait_ms", submit_p50_ms - execute_ms);
    Ok(())
}

/// The per-layer metrics every workload derives from its traced
/// scenarios; means are per scenario.
fn insert_layers(t: &Totals, out: &mut Outcome) {
    let k = t.scenarios.max(1) as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let slots =
        (t.sched.scheduled_packets + t.sched.overscheduled_slots + t.sched.unmatched_slots) as f64;
    out.set("scenario.parse_compile_s", t.parse_compile_s / k);
    out.set("scenario.flows", t.flows / k);
    out.set("metrics.phase_stats_s", t.phase_stats_s / k);
    out.set("bench.render_s", t.render_s / k);
    out.set("bench.trace_overhead_s", t.trace_overhead_s / k);
    for (e, name) in [(&t.negotiator, "negotiator"), (&t.oblivious, "oblivious")] {
        let per = e.scenarios.max(1) as f64;
        out.set(format!("{name}.run_s"), e.run_s / per);
        out.set(
            format!("{name}.ns_per_pair_epoch"),
            ratio(e.run_w1_s * 1e9, e.pair_epochs),
        );
        out.set(
            format!("sim.shard_speedup.{name}"),
            ratio(e.run_w1_s, e.run_w2_s),
        );
        out.set(
            format!("metrics.recorder_ratio.{name}"),
            ratio(e.run_traced_s, e.run_s),
        );
    }
    out.set(
        "negotiator.rss_bytes_per_pair",
        t.rss_bytes_per_pair.unwrap_or(0.0),
    );
    out.set(
        "negotiator.accepts_per_grant",
        ratio(t.sched.accepts_made as f64, t.sched.grants_issued as f64),
    );
    out.set(
        "negotiator.unmatched_slot_share",
        ratio(t.sched.unmatched_slots as f64, slots),
    );
    out.set(
        "negotiator.overscheduled_slot_share",
        ratio(t.sched.overscheduled_slots as f64, slots),
    );
}
