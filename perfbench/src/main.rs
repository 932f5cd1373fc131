//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fleet_point|scale_topn|refresh_ingest --seed N --seconds S --trace 0|1
//! ```
//!
//! Brings up two CFSF shards and a router on loopback TCP in this process,
//! drives them closed-loop from request streams generated from `--seed`,
//! checks every answer against the in-process model, and prints a report
//! followed by one JSON result line. `--trace 0` reports the end-to-end
//! metrics; `--trace 1` is the separate traced run that records spans
//! around each layer call, replays the streams at each layer boundary,
//! and reports the per-layer metrics. `perfbench/README.md` lists which
//! end-to-end metric each layer metric should move, on which workload.

mod check;
mod drive;
mod fleet;
mod ledger;
mod report;
mod stats;
mod streams;
mod trace;

use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cf_matrix::UserId;
use cf_serve::router::shard_for_user;
use cfsf_core::Cfsf;

use check::{Oracle, Verdict};
use drive::{latencies, Answer, Outcome, Window, WriterRun};
use fleet::{Fleet, Inputs, Rating, Workload, OFFLINE_THREADS, SHARDS};
use report::Report;
use stats::{median_of, Summary};
use streams::{stream, Mix, Req};
use trace::SpanLog;

/// The end-to-end metrics of an untraced run, as `BENCHMARK.json` lists
/// them.
const END_TO_END: &[&str] = &[
    "setup_s",
    "throughput_rps",
    "latency_p50_us",
    "latency_p90_us",
    "mae",
];

/// The per-layer metrics of a traced run, as `BENCHMARK.json` lists them.
const PER_LAYER: &[&str] = &[
    "similarity.gis_build_s",
    "cluster.kmeans_s",
    "cluster.smooth_s",
    "cluster.icluster_s",
    "matrix.planes_build_s",
    "matrix.plane_bytes",
    "core.fit_s",
    "core.persist_save_s",
    "core.persist_load_s",
    "core.model_bytes",
    "core.select_miss_p50_us",
    "core.select_miss_p99_us",
    "core.select_hit_p50_us",
    "core.cache_hit_ratio",
    "core.predict_p50_us",
    "core.predict_p99_us",
    "core.predict_ref_p50_us",
    "core.kernel_speedup",
    "core.topn_p50_us",
    "serve.shard_predict_p50_us",
    "serve.router_predict_p50_us",
    "serve.wire_us",
    "serve.router_hop_us",
    "serve.shard_topn_p50_us",
    "serve.router_topn_p50_us",
    "serve.scatter_gain",
    "serve.router_shed",
    "serve.router_retries",
    "serve.router_errors",
    "bench.trace_overhead",
];

/// Requests in each client's stream (it cycles when a window outruns it).
const STREAM_LEN: usize = 1 << 18;
/// Untimed closed-loop traffic before a timed window.
const WARMUP: Duration = Duration::from_millis(500);
/// Batches the `refresh_ingest` writer splits its rating stream into.
const REFRESH_BATCHES: usize = 12;
/// Requests checked after `refresh_ingest` goes idle, and holdout cells
/// the kernel check compares.
const IDLE_CHECK: usize = 4096;
/// Distinct users whose `scale_topn` answers are checked: a scale-sized
/// top-10 costs tens of milliseconds in process.
const SCALE_TOPN_CHECKED: usize = 48;
/// Predict requests per layer in the traced replay.
const REPLAY_PREDICTS: usize = 20_000;
/// Selection samples per kind (miss, hit) in the traced replay.
const SELECT_SAMPLES: usize = 2000;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload fleet_point|scale_topn|refresh_ingest \
                     --seed N --seconds S --trace 0|1";

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let at = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(at + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    let workload =
        Workload::parse(workload).ok_or_else(|| format!("unknown workload {workload}"))?;
    let num = |flag: &str| -> Result<u64, String> {
        get(flag)?.parse().map_err(|e| format!("{flag}: {e}"))
    };
    let seconds = num("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let trace = match num("--trace")? {
        0 => false,
        1 => true,
        t => return Err(format!("--trace must be 0 or 1, not {t}")),
    };
    Ok(Args {
        workload,
        seed: num("--seed")?,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

/// Counter value from the process-wide registry every layer reports to.
fn counter(name: &str) -> u64 {
    cf_obs::global().counter(name).get()
}

/// Router counters whose deltas the traced run reports per attempted
/// request, as `(metric, counters summed)`.
const ROUTER_COUNTERS: [(&str, &[&str]); 3] = [
    (
        "serve.router_shed",
        &["router.shed_busy", "router.shed_down"],
    ),
    ("serve.router_retries", &["router.retries"]),
    (
        "serve.router_errors",
        &["router.request_errors", "router.shard_io_errors"],
    ),
];

fn router_counts() -> Vec<u64> {
    ROUTER_COUNTERS
        .iter()
        .map(|(_, names)| names.iter().map(|n| counter(n)).sum())
        .collect()
}

fn run(args: &Args) -> Result<bool, String> {
    let w = args.workload;
    let seed = args.seed;
    let (users, items) = w.shape();
    let config = w.config();
    println!(
        "perfbench {} seed={seed} seconds={} trace={}",
        w.name(),
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "  host: nproc={} (reported, not used); threads: offline={OFFLINE_THREADS} \
         client_connections={} writer={} shards={SHARDS}",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        w.clients(),
        usize::from(w == Workload::RefreshIngest)
    );
    println!(
        "  dataset: {users} users x {items} items; model: K={} M={} C={} plane_precision={:?}",
        config.k, config.m, config.clusters, config.plane_precision
    );
    let inputs = Inputs::generate(w, seed);
    println!(
        "  inputs: {} training ratings, {} holdout cells, {} withheld ratings",
        inputs.train.num_ratings(),
        inputs.holdout.len(),
        inputs.withheld.len()
    );
    let mut log = SpanLog::new(Instant::now(), 0);
    let mut report = Report::default();

    let fleet = set_up(args, &inputs, &mut log, &mut report)?;
    // Every shard selects neighbours for the users it owns, then a short
    // untimed window warms sockets, pools and threads.
    for (s, shard) in fleet.shards.iter().enumerate() {
        let model = shard.current();
        for u in (0..users as u32).filter(|&u| shard_for_user(u, SHARDS) == s) {
            model.top_k_users(UserId::new(u));
        }
    }
    let streams: Vec<Vec<Req>> = (0..w.clients() as u64)
        .map(|c| stream(seed, c, users as u32, items as u32, w.mix(), STREAM_LEN))
        .collect();
    drive::window(&fleet, &streams, WARMUP.as_secs_f64(), None, None)
        .map_err(|e| format!("warm-up: {e}"))?;

    let batch_len = inputs.withheld.len().div_ceil(REFRESH_BATCHES).max(1);
    let batches: Vec<&[Rating]> = inputs.withheld.chunks(batch_len).collect();
    let counts_before = router_counts();
    let secs = args.seconds as f64;
    let (main, overhead) = if args.trace {
        traced_windows(&fleet, &streams, &batches, secs, &mut log, &mut report)?
    } else {
        let writes = (w == Workload::RefreshIngest).then_some(&batches[..]);
        let main = drive::window(&fleet, &streams, secs, writes, None)
            .map_err(|e| format!("window: {e}"))?;
        (main, None)
    };
    let checked = correctness(
        w,
        &fleet,
        &inputs,
        &streams,
        &main,
        batches.len(),
        &mut report,
    )?;
    end_to_end(w, &main, &checked, &mut report);

    if let Some(overhead) = overhead {
        for ((name, _), (now, before)) in ROUTER_COUNTERS
            .iter()
            .zip(router_counts().into_iter().zip(counts_before))
        {
            report.value(
                name,
                (now - before) as f64 / checked.attempted as f64,
                "ratio",
            );
        }
        report.value("bench.trace_overhead", overhead, "ratio");
        layer_ledger(w, seed, &fleet, &mut log, &mut report)?;
    }
    fleet.shutdown();
    if args.trace {
        let path =
            std::path::Path::new("perfbench/spans").join(format!("{}-seed{seed}.jsonl", w.name()));
        log.write_jsonl(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        report.line(format!(
            "{} spans written to {}",
            log.spans().len(),
            path.display()
        ));
    }

    let correct = checked.sound && checked.failed == 0;
    let wanted = if args.trace { PER_LAYER } else { END_TO_END };
    let (line, missing) = report.result_line(correct, checked.attempted, checked.failed, wanted);
    if !missing.is_empty() {
        return Err(format!(
            "no measurement for {} (too few samples for the percentile rule?)",
            missing.join(", ")
        ));
    }
    println!("{line}");
    Ok(correct)
}

/// Brings up the fleet. Untraced: once untimed, then several times,
/// reporting the median as `setup_s` and keeping the last fleet. Traced: once, with spans, after
/// timing the offline stages one by one.
fn set_up(
    args: &Args,
    inputs: &Inputs,
    log: &mut SpanLog,
    report: &mut Report,
) -> Result<Fleet, String> {
    let w = args.workload;
    let healing = w == Workload::RefreshIngest;
    let start = |spans| {
        Fleet::start(&inputs.train, w.config(), healing, spans)
            .map_err(|e| format!("fleet set-up: {e}"))
    };
    if args.trace {
        ledger::offline_stages(&inputs.train, &w.config(), log, report);
        let (fleet, t) = start(Some(&mut *log))?;
        report.value("core.fit_s", t.fit_s, "s");
        report.value("core.persist_save_s", t.save_s, "s");
        report.value("core.persist_load_s", t.load_s, "s");
        report.value("core.model_bytes", t.model_bytes as f64, "bytes");
        report.value("matrix.plane_bytes", t.plane_bytes as f64, "bytes");
        let untimed = log
            .spans()
            .iter()
            .find(|s| s.name == "setup")
            .and_then(|s| log.self_time_ns(s.id))
            .unwrap_or(0);
        report.line(format!(
            "setup (traced, one pass) {:.4} s, {:.4} s of it outside the timed calls",
            t.total_s,
            untimed as f64 * 1e-9
        ));
        return Ok(fleet);
    }
    let mut totals = Vec::new();
    // Set-up 0 is not counted: a process's first second runs on a host
    // that is still ramping up, at up to half speed on the 2-vCPU VM the
    // bounds were set on.
    for rep in 0..=w.setup_repeats() {
        let (fleet, t) = start(None)?;
        report.line(format!(
            "setup {rep}{}: {:.4} s (fit {:.4}, save {:.4}, load {:.4}, model {} bytes)",
            if rep == 0 {
                " (warm-up, not counted)"
            } else {
                ""
            },
            t.total_s,
            t.fit_s,
            t.save_s,
            t.load_s,
            t.model_bytes
        ));
        if rep > 0 {
            totals.push(t.total_s);
        }
        if rep == w.setup_repeats() {
            report.value("setup_s", median_of(&totals).unwrap_or(f64::NAN), "s");
            return Ok(fleet);
        }
        // One fleet at a time: a scale-sized model is hundreds of MB.
        fleet.shutdown();
    }
    unreachable!("every workload sets up at least once")
}

/// The traced run's windows: untraced then traced with the same traffic,
/// half the run each (their throughput ratio is the cost of the spans),
/// then on `refresh_ingest` the writer window, traced. Returns the last
/// window and the overhead ratio.
fn traced_windows(
    fleet: &Fleet,
    streams: &[Vec<Req>],
    batches: &[&[Rating]],
    secs: f64,
    log: &mut SpanLog,
    report: &mut Report,
) -> Result<(Window, Option<f64>), String> {
    let window = |secs: f64, writes: Option<&[&[Rating]]>, log: Option<&mut SpanLog>| {
        drive::window(fleet, streams, secs, writes, log).map_err(|e| format!("window: {e}"))
    };
    let plain = window(secs / 2.0, None, None)?;
    let mut cache = CacheCounts::now();
    let traced = window(secs / 2.0, None, Some(&mut *log))?;
    let overhead = traced.throughput() / plain.throughput();
    let main = if batches.is_empty() {
        traced
    } else {
        cache = CacheCounts::now();
        window(secs, Some(batches), Some(log))?
    };
    cache.report_since(report);
    Ok((main, Some(overhead)))
}

/// What the correctness checks found.
struct Checked {
    /// Router requests sent: the timed window, the idle check, the `mae`
    /// pass.
    attempted: usize,
    /// Failed requests plus answers the checks rejected.
    failed: usize,
    /// No other check failed: kernel tolerance, writer, final generations.
    sound: bool,
    /// MAE of the router's answers on the holdout cells.
    mae: f64,
}

/// Checks the window's answers against the in-process model, the fast
/// kernel against the reference kernel, and runs the `mae` pass. On
/// `refresh_ingest` the answers are checked once the fleet is idle on its
/// final generation.
fn correctness(
    w: Workload,
    fleet: &Fleet,
    inputs: &Inputs,
    streams: &[Vec<Req>],
    main: &Window,
    batches: usize,
    report: &mut Report,
) -> Result<Checked, String> {
    let answers = main.answers();
    let idle = &streams[0][..IDLE_CHECK.min(streams[0].len())];
    let current: Vec<Arc<Cfsf>> = fleet.shards.iter().map(|s| s.current()).collect();
    let mut sound = true;
    let mut attempted = answers.len();
    let (mut oracle, mut verdict) = if let Some(wr) = &main.writer {
        // Window answers came from whichever generation was live.
        let failed = answers
            .iter()
            .filter(|a| matches!(a.outcome, Outcome::Failed))
            .count();
        let mut oracle = Oracle::new(current.clone());
        let outcomes = check::router_pass(fleet.router_addr, idle, w.clients())
            .map_err(|e| format!("idle check: {e}"))?;
        attempted += idle.len();
        let verdict = check::check(&mut oracle, idle.iter().copied().zip(&outcomes), usize::MAX);
        // Both shards applied the same stream in the same batches, so
        // they must hold the same final model.
        let split = check::disagreements(&current[0], &current[1], idle);
        let gens: Vec<u64> = fleet
            .shards
            .iter()
            .filter_map(|s| s.healing().map(|h| h.generation()))
            .collect();
        report.line(format!(
            "final generations {gens:?}; shards disagree on {split} of {} idle requests; \
             writer refused {} calls",
            idle.len(),
            wr.errors
        ));
        sound &= split == 0 && wr.errors == 0 && gens.iter().all(|&g| g == batches as u64);
        (oracle, Verdict { failed, ..verdict })
    } else {
        let mut oracle = Oracle::new(vec![Arc::clone(&fleet.reference)]);
        let topn_users = if w == Workload::ScaleTopn {
            SCALE_TOPN_CHECKED
        } else {
            usize::MAX
        };
        let pairs = answers.iter().map(|a| (a.req, &a.outcome));
        let verdict = check::check(&mut oracle, pairs, topn_users);
        (oracle, verdict)
    };
    // Holdout cells: every workload has them, `scale_topn` no predicts.
    let cells: Vec<Req> = inputs
        .holdout
        .iter()
        .take(IDLE_CHECK)
        .map(|c| Req::Predict {
            user: c.user.raw(),
            item: c.item.raw(),
        })
        .collect();
    let (k_checked, k_bad, k_worst) = check::kernel_tolerance(&current[0], &cells);
    report.line(format!(
        "kernel check: {k_checked} predicts, {k_bad} outside plane_quant_step+1e-9 = {:.3e} \
         (worst {k_worst:.3e})",
        current[0].plane_quant_step() + 1e-9
    ));
    sound &= k_bad == 0;
    let mae = check::mae_pass(fleet.router_addr, &inputs.holdout, &mut oracle, w.clients())
        .map_err(|e| format!("mae pass: {e}"))?;
    attempted += mae.attempted;
    verdict = verdict.add(mae.verdict);
    report.line(format!(
        "correctness: {} answers checked, {} mismatches, {} failed requests",
        verdict.checked, verdict.mismatches, verdict.failed
    ));
    Ok(Checked {
        attempted,
        failed: verdict.failed + verdict.mismatches,
        sound,
        mae: mae.mae,
    })
}

/// The end-to-end metrics, and the report lines beside them.
fn end_to_end(w: Workload, main: &Window, checked: &Checked, report: &mut Report) {
    let answers = main.answers();
    let main_topn = w == Workload::ScaleTopn;
    report.line(
        Summary::of(&latencies(&answers, main_topn)).describe("latency (whole window)", "us"),
    );
    report.line(format!(
        "throughput (whole window) {:.3} 1/s",
        main.throughput()
    ));
    let sl = drive::sliced(&answers, main.elapsed_s(), main_topn);
    report.line(format!(
        "{} slice(s) of {:.2} s; the next three are medians over slices",
        sl.count, sl.len_s
    ));
    report.value("throughput_rps", sl.rps, "1/s");
    report.value("latency_p50_us", sl.p50, "us");
    report.value("latency_p90_us", sl.p90, "us");
    for (topn, name) in [(false, "predict"), (true, "topn")] {
        let lat = latencies(&answers, topn);
        if !lat.is_empty() {
            report.latency(name, &Summary::of(&lat), "us");
        }
    }
    let frac = |n: usize, of: usize| n as f64 / of.max(1) as f64;
    report.value(
        "failed_frac",
        frac(checked.failed, checked.attempted),
        "ratio",
    );
    let degraded = answers
        .iter()
        .filter(|a| matches!(a.outcome, Outcome::Predicted { fallback: true, .. }))
        .count();
    let answered = answers
        .iter()
        .filter(|a| !matches!(a.outcome, Outcome::Failed))
        .count();
    report.value("degraded_frac", frac(degraded, answered), "ratio");
    report.value("mae", checked.mae, "rating");
    if let Some(wr) = &main.writer {
        refresh_lines(report, wr, &answers);
    }
}

/// Neighbour-cache counter readings.
struct CacheCounts(u64, u64);

impl CacheCounts {
    fn now() -> Self {
        Self(
            counter("online.neighbor_cache.hit"),
            counter("online.neighbor_cache.miss"),
        )
    }

    /// `core.cache_hit_ratio` over the counts since `self`.
    fn report_since(self, report: &mut Report) {
        let now = Self::now();
        let (hit, miss) = (now.0 - self.0, now.1 - self.1);
        report.line(format!("neighbour cache: {hit} hits, {miss} misses"));
        report.value(
            "core.cache_hit_ratio",
            hit as f64 / (hit + miss).max(1) as f64,
            "ratio",
        );
    }
}

/// The `refresh_ingest` writer's numbers: `refresh_s`, rebuild times by
/// kind, `add_rating` latency, and the predict tail while a rebuild is in
/// flight against between rebuilds.
fn refresh_lines(report: &mut Report, wr: &WriterRun, answers: &[&Answer]) {
    let secs: Vec<f64> = wr.rebuilds.iter().map(|r| r.secs).collect();
    report.value("refresh_s", median_of(&secs).unwrap_or(f64::NAN), "s");
    for (full, name) in [
        (false, "refresh.rebuild_partial_s"),
        (true, "refresh.rebuild_full_s"),
    ] {
        let v: Vec<f64> = wr
            .rebuilds
            .iter()
            .filter(|r| r.full == full)
            .map(|r| r.secs)
            .collect();
        if let Some(m) = median_of(&v) {
            report.value(name, m, "s");
        }
        report.line(format!("{name} n={}", v.len()));
    }
    report.latency("refresh.add_rating", &Summary::of(&wr.add_rating_us), "us");
    let split = |during: bool| -> Vec<f64> {
        answers
            .iter()
            .filter(|a| a.during_rebuild == during && !matches!(a.outcome, Outcome::Failed))
            .map(|a| a.lat_us)
            .collect()
    };
    let (during, between) = (Summary::of(&split(true)), Summary::of(&split(false)));
    report.line(during.describe("predict during rebuild", "us"));
    report.line(between.describe("predict between rebuilds", "us"));
    match (during.exact(0.99), between.exact(0.99)) {
        (Some(d), Some(b)) => report.value("refresh.p99_ratio", d / b, "ratio"),
        _ => report.line("refresh.p99_ratio: too few samples for p99 on one side"),
    }
}

/// The traced run's layer replay and, on `scale_topn`, the paper-shape
/// ratio against a paper-scale model fitted from the same seed.
fn layer_ledger(
    w: Workload,
    seed: u64,
    fleet: &Fleet,
    log: &mut SpanLog,
    report: &mut Report,
) -> Result<(), String> {
    let (users, items) = w.shape();
    let replay_seed = seed ^ 0x00AB_1E5E;
    let predicts = stream(
        replay_seed,
        0,
        users as u32,
        items as u32,
        Mix::Point { topn_every: 0 },
        REPLAY_PREDICTS,
    );
    let topn_mix = match w {
        Workload::ScaleTopn => Mix::UniformTopN,
        _ => Mix::Point { topn_every: 1 },
    };
    let topn_len = if w == Workload::ScaleTopn { 40 } else { 200 };
    let topns = stream(
        replay_seed,
        1,
        users as u32,
        items as u32,
        topn_mix,
        topn_len,
    );
    let mut distinct: Vec<u32> = predicts
        .iter()
        .map(|r| match *r {
            Req::Predict { user, .. } | Req::TopN { user } => user,
        })
        .collect();
    distinct.sort_unstable();
    distinct.dedup();
    // The in-process layer is shard 0's own model object, so each layer
    // below it serves exactly the same model.
    let model = fleet.shards[0].current();
    ledger::selection(&model, &distinct, SELECT_SAMPLES, log, report);
    if !ledger::layers(fleet, &model, &predicts, &topns, log, report) {
        return Err("a layer replay request failed".into());
    }
    if w == Workload::ScaleTopn {
        // The same replay on a paper-scale model: the paper's claim is
        // that the online cost is O(M·K), independent of the user count.
        let paper = Inputs::generate(Workload::FleetPoint, seed);
        let model = Cfsf::fit(&paper.train, Workload::FleetPoint.config())
            .map_err(|e| format!("paper-scale fit: {e}"))?;
        let (pu, pi) = Workload::FleetPoint.shape();
        let small = stream(
            replay_seed,
            0,
            pu as u32,
            pi as u32,
            Mix::Point { topn_every: 0 },
            REPLAY_PREDICTS,
        );
        let at_paper = ledger::core_predict(&model, &small, log);
        report.line(at_paper.describe("core.predict (paper scale)", "us"));
        if let (Some(big), Some(small)) = (report.get("core.predict_p50_us"), at_paper.median()) {
            report.value("core.predict_scale_ratio", big / small, "ratio");
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The names `BENCHMARK.json` lists in `section`, in order.
    fn names(json: &str, section: &str) -> Vec<String> {
        let start = json
            .find(&format!("\"{section}\""))
            .unwrap_or_else(|| panic!("no {section} in BENCHMARK.json"));
        let body = &json[start..];
        let body = &body[..body.find(']').expect("section closes")];
        body.match_indices("\"name\": \"")
            .map(|(at, key)| {
                let rest = &body[at + key.len()..];
                rest[..rest.find('"').expect("name closes")].to_string()
            })
            .collect()
    }

    #[test]
    fn reported_metrics_are_the_ones_benchmark_json_lists() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(names(&json, "workloads"), Workload::ALL.map(Workload::name));
        assert_eq!(names(&json, "end_to_end"), END_TO_END);
        assert_eq!(names(&json, "per_layer"), PER_LAYER);
    }
}
