//! The repository benchmark: end-to-end and per-layer metrics of the
//! FReaC Cache reproduction on three workloads.
//!
//! ```text
//! freac-perfbench --workload <overload_shed|churn_cluster|figures|all>
//!                 --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each iteration of a workload runs in a fresh child process (the same
//! executable with `--child`), so every iteration pays the process-wide
//! mapping cache cold and reports its own peak RSS. The parent repeats
//! iterations for `--seconds`, cycling through [`TRACES`] traces derived
//! from the seed, checks every iteration's outputs, and prints the
//! medians. With `--trace 1` it alternates traced and untraced iterations
//! and prints the per-layer metrics plus the tracing overhead. The last
//! stdout line is one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`. See `README.md` for the workloads and every metric.

mod figures;
mod pipeline;
mod serve;
mod stats;

use std::fmt::Write as _;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use freac_probe::Json;

/// Independent traces a run derives from its seed; iteration `i` replays
/// trace `i % TRACES`, so a run makes at least `TRACES` iterations (twice
/// as many when traced). Simulated metrics vary by 10-20% from one trace
/// to the next, so a run reports their median over the traces. Odd, so
/// that a traced run, which alternates, runs every trace both ways.
const TRACES: usize = 9;

/// The seed of trace `j` of a run with `seed` (SplitMix64 finaliser).
fn trace_seed(seed: u64, j: usize) -> u64 {
    let mut z = seed.wrapping_add((j as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// End-to-end metrics and their units, in report order.
const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_throughput_mrps", "M/sim_s"),
    ("sim_p50_us", "sim_us"),
    ("sim_p99_us", "sim_us"),
    ("completed_frac", "ratio"),
    ("paper_err_pct", "%"),
];

/// End-to-end metrics computed in simulated time: a pure function of the
/// trace, so every replay of a trace must reproduce them exactly.
const SIMULATED: [&str; 5] = [
    "sim_throughput_mrps",
    "sim_p50_us",
    "sim_p99_us",
    "completed_frac",
    "paper_err_pct",
];

/// Per-layer metrics and their units, grouped by layer (see README.md).
/// A metric of a layer a workload does not run reads 0. The tracing
/// overhead comes last: the run computes it, not an iteration.
const PER_LAYER: [(&str, &str); 58] = [
    ("map.circuit_ms", "ms"),
    ("map.opt_ms", "ms"),
    ("map.techmap_ms", "ms"),
    ("map.fold_schedule_ms", "ms"),
    ("map.fold_compile_ms", "ms"),
    ("map.bitstream_ms", "ms"),
    ("map.plan_compile_ms", "ms"),
    ("map.luts", "count"),
    ("map.fold_steps", "count"),
    ("map.plan_micro_ops", "count"),
    ("fig.area_ms", "ms"),
    ("fig.fig08_ms", "ms"),
    ("fig.fig09_ms", "ms"),
    ("fig.fig10_ms", "ms"),
    ("fig.fig11_ms", "ms"),
    ("fig.fig12_ms", "ms"),
    ("fig.fig13_ms", "ms"),
    ("fig.fig14_ms", "ms"),
    ("fig.fig15_ms", "ms"),
    ("fig.opt_ablation_ms", "ms"),
    ("fig.inclusion_ablation_ms", "ms"),
    ("fig.map_cache_misses", "count"),
    ("fig.map_cache_hit_ratio", "ratio"),
    ("serve.submit_ns_per_req", "ns"),
    ("adm.shed.queue_full", "count"),
    ("adm.shed.displaced", "count"),
    ("adm.shed.cluster_budget", "count"),
    ("adm.shed.tlb_fault", "count"),
    ("serve.run_ms", "ms"),
    ("serve.loop_self_ms", "ms"),
    ("probe.export_ms", "ms"),
    ("probe.keys", "count"),
    ("exec.replay_ms", "ms"),
    ("exec.batch_lane_cycles", "count"),
    ("exec.single_lane_cycles", "count"),
    ("exec.ns_per_lane_cycle", "ns"),
    ("exec.verified", "count"),
    ("batch.dispatches", "count"),
    ("batch.mean_lanes", "count"),
    ("batch.fill_ratio", "ratio"),
    ("batch.single_lane_frac", "ratio"),
    ("slice.busy_frac", "ratio"),
    ("deadline.met_frac", "ratio"),
    ("lat.queue_mean_us", "sim_us"),
    ("lat.queue_p99_us", "sim_us"),
    ("lat.reconfig_mean_us", "sim_us"),
    ("lat.exec_mean_us", "sim_us"),
    ("reconfig.count", "count"),
    ("reconfig.total_us", "sim_us"),
    ("reconfig.per_dispatch", "ratio"),
    ("teardown.reclaim_us", "sim_us"),
    ("autoscale.conversions", "count"),
    ("autoscale.conversion_us", "sim_us"),
    ("route.affinity_hit_ratio", "ratio"),
    ("steal.count", "count"),
    ("steal.per_kreq", "count"),
    ("shard.imbalance", "ratio"),
    ("trace.overhead_s", "s"),
];

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    OverloadShed,
    ChurnCluster,
    Figures,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::OverloadShed,
        Workload::ChurnCluster,
        Workload::Figures,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::OverloadShed => "overload_shed",
            Workload::ChurnCluster => "churn_cluster",
            Workload::Figures => "figures",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Runs one iteration in this process.
    fn iterate(self, seed: u64, traced: bool) -> Iteration {
        match self {
            Workload::OverloadShed => serve::run(
                &serve::overload_shed(serve::OVERLOAD_REQUESTS),
                seed,
                traced,
            ),
            Workload::ChurnCluster => {
                serve::run(&serve::churn_cluster(serve::CHURN_REQUESTS), seed, traced)
            }
            Workload::Figures => figures::run(traced),
        }
    }
}

/// Named metric values, in insertion order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics(Vec<(String, f64)>);

impl Metrics {
    /// Sets `name` to `value`.
    pub fn set(&mut self, name: &str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name.to_owned(), value)),
        }
    }

    /// Adds `value` to `name` (starting from 0).
    pub fn add(&mut self, name: &str, value: f64) {
        let sum = self.get(name).unwrap_or(0.0) + value;
        self.set(name, sum);
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    fn to_json(&self) -> Json {
        Json::Obj(
            self.0
                .iter()
                .map(|(n, v)| (n.clone(), Json::Num(*v)))
                .collect(),
        )
    }

    fn from_json(j: Option<&Json>) -> Result<Self, String> {
        let members = j.and_then(Json::as_obj).ok_or("metrics is not an object")?;
        let mut m = Metrics::default();
        for (name, v) in members {
            m.set(
                name,
                v.as_f64().ok_or(format!("metric {name} is not a number"))?,
            );
        }
        Ok(m)
    }
}

/// What one iteration measured and checked.
#[derive(Debug, Clone, Default)]
pub struct Iteration {
    /// End-to-end metrics.
    pub e2e: Metrics,
    /// Per-layer metrics (traced iterations only).
    pub layers: Metrics,
    /// Digest of the generated inputs.
    pub digest: u64,
    /// Operations attempted: requests submitted, or tables rendered.
    pub attempted: u64,
    /// Operations whose output failed a check.
    pub failed: u64,
    /// Samples behind `sim_p50_us` / `sim_p99_us`.
    pub latency_samples: u64,
    /// Every failed check, described.
    pub errors: Vec<String>,
}

impl Iteration {
    /// Records a failure that ends the iteration early.
    pub fn fail(mut self, error: String) -> Self {
        self.failed += 1;
        self.errors.push(error);
        self
    }

    /// The simulated end-to-end metrics, which must repeat exactly.
    pub fn simulated(&self) -> Vec<(&'static str, Option<f64>)> {
        SIMULATED.iter().map(|&n| (n, self.e2e.get(n))).collect()
    }

    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("e2e".into(), self.e2e.to_json()),
            ("layers".into(), self.layers.to_json()),
            ("digest".into(), Json::UInt(self.digest)),
            ("attempted".into(), Json::UInt(self.attempted)),
            ("failed".into(), Json::UInt(self.failed)),
            ("samples".into(), Json::UInt(self.latency_samples)),
            (
                "errors".into(),
                Json::Arr(self.errors.iter().cloned().map(Json::Str).collect()),
            ),
        ])
    }

    fn from_json(j: &Json) -> Result<Self, String> {
        let uint = |key: &str| {
            j.get(key)
                .and_then(Json::as_u64)
                .ok_or(format!("child result has no '{key}'"))
        };
        Ok(Iteration {
            e2e: Metrics::from_json(j.get("e2e"))?,
            layers: Metrics::from_json(j.get("layers"))?,
            digest: uint("digest")?,
            attempted: uint("attempted")?,
            failed: uint("failed")?,
            latency_samples: uint("samples")?,
            errors: j
                .get("errors")
                .and_then(Json::as_arr)
                .ok_or("child result has no 'errors'")?
                .iter()
                .map(|e| e.as_str().unwrap_or("?").to_owned())
                .collect(),
        })
    }
}

/// The process's peak resident set (`VmHWM`), MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Parsed command line.
struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    child: bool,
}

const USAGE: &str = "usage: freac-perfbench --workload <overload_shed|churn_cluster|figures|all> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        child: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--child" {
            args.child = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value '{value}' for {flag}");
        match flag.as_str() {
            "--workload" if value == "all" => args.workloads = Workload::ALL.to_vec(),
            "--workload" => args.workloads = vec![Workload::parse(&value).ok_or_else(bad)?],
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if args.seconds == 0 {
                    return Err(bad());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument '{flag}'")),
        }
    }
    if args.workloads.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("freac-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.child {
        let it = args.workloads[0].iterate(args.seed, args.trace);
        println!("{}", it.to_json().write());
        return ExitCode::SUCCESS;
    }
    let mut ok = true;
    for &w in &args.workloads {
        ok &= bench(w, &args);
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs one iteration of `w` in a fresh child process with one worker.
fn spawn_iteration(w: Workload, seed: u64, traced: bool) -> Result<Iteration, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args([
            "--child",
            "--workload",
            w.name(),
            "--seed",
            &seed.to_string(),
        ])
        .args(["--trace", if traced { "1" } else { "0" }])
        .env("FREAC_WORKERS", "1")
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    if !out.status.success() {
        return Err(format!("iteration exited with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().ok_or("iteration printed nothing")?;
    Iteration::from_json(&Json::parse(line)?)
}

/// The host fingerprint printed with every result.
fn fingerprint(seed: u64) -> String {
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rustc = Command::new("rustc")
        .arg("-V")
        .stdin(Stdio::null())
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into());
    Json::Obj(vec![
        ("cpus".into(), Json::UInt(cpus as u64)),
        ("rustc".into(), Json::Str(rustc)),
        ("git_rev".into(), Json::Str(git_rev())),
        ("workers".into(), Json::UInt(1)),
        ("seed".into(), Json::UInt(seed)),
    ])
    .write()
}

/// The checked-out commit, read from `.git` in the working directory
/// (`none` outside a git checkout).
fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "none".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    read(&format!(".git/{reference}"))
        .map(|s| s.trim().to_owned())
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_owned)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Repeats iterations of `w` for the configured time, checks them, and
/// prints the report. Returns whether every check passed.
fn bench(w: Workload, args: &Args) -> bool {
    let started = Instant::now();
    let budget = Duration::from_secs(args.seconds);
    let min = if args.trace { 2 * TRACES } else { TRACES };
    let mut errors: Vec<String> = Vec::new();
    // (traced, iteration) pairs. Iteration i replays trace i % TRACES; a
    // traced run alternates, traced first.
    let mut runs: Vec<(bool, Iteration)> = Vec::new();
    while runs.len() < min || started.elapsed() < budget {
        let i = runs.len();
        let traced = args.trace && i.is_multiple_of(2);
        match spawn_iteration(w, trace_seed(args.seed, i % TRACES), traced) {
            Ok(it) => runs.push((traced, it)),
            Err(e) => {
                errors.push(e);
                break;
            }
        }
    }

    for (_, it) in &runs {
        errors.extend(it.errors.iter().cloned());
    }
    let firsts: Vec<&Iteration> = runs.iter().take(TRACES).map(|r| &r.1).collect();
    if firsts.len() < TRACES {
        errors.push(format!("only {} of {TRACES} traces ran", firsts.len()));
    }
    let replays = runs
        .iter()
        .enumerate()
        .map(|(i, r)| (firsts[i % TRACES], &r.1));
    if replays.clone().any(|(a, b)| a.digest != b.digest) {
        errors.push("the same seed generated different inputs".into());
    }
    if replays.clone().any(|(a, b)| a.simulated() != b.simulated()) {
        errors.push("simulated metrics differ between runs of one trace".into());
    }
    let untraced: Vec<&Iteration> = runs.iter().filter(|r| !r.0).map(|r| &r.1).collect();
    let traced: Vec<&Iteration> = runs.iter().filter(|r| r.0).map(|r| &r.1).collect();
    let median_of = |its: &[&Iteration], pick: &dyn Fn(&Iteration) -> Option<f64>| {
        stats::median(&its.iter().filter_map(|it| pick(it)).collect::<Vec<_>>())
    };

    let mut metrics: Vec<(&str, &str, f64)> = Vec::new();
    if args.trace {
        for &(name, unit) in &PER_LAYER[..PER_LAYER.len() - 1] {
            let v = median_of(&traced, &|it| it.layers.get(name)).unwrap_or(0.0);
            metrics.push((name, unit, v));
        }
        let run_s = |its: &[&Iteration]| median_of(its, &|it| it.e2e.get("run_s"));
        match (run_s(&traced), run_s(&untraced)) {
            (Some(t), Some(u)) => metrics.push(("trace.overhead_s", "s", t - u)),
            _ => errors.push("no run_s to compute the tracing overhead from".into()),
        }
    } else {
        let serving_err =
            (w != Workload::Figures).then(|| figures::paper_err_pct(figures::headline_geomeans()));
        for &(name, unit) in &END_TO_END {
            let v = match (name, serving_err) {
                ("paper_err_pct", Some(err)) => Some(err),
                _ if SIMULATED.contains(&name) => median_of(&firsts, &|it| it.e2e.get(name)),
                _ => median_of(&untraced, &|it| it.e2e.get(name)),
            };
            match v {
                Some(v) => metrics.push((name, unit, v)),
                None => errors.push(format!("no iteration measured {name}")),
            }
        }
    }

    let attempted: u64 = runs.iter().map(|(_, it)| it.attempted).sum();
    let failed: u64 = runs.iter().map(|(_, it)| it.failed).sum();
    let correct = errors.is_empty() && failed == 0;
    let samples = firsts
        .iter()
        .map(|it| it.latency_samples)
        .min()
        .unwrap_or(0);

    println!("fingerprint {}", fingerprint(args.seed));
    println!(
        "{} seed {}: {} iterations ({} traced) in {:.1} s, {} attempted, {} failed",
        w.name(),
        args.seed,
        runs.len(),
        traced.len(),
        started.elapsed().as_secs_f64(),
        attempted,
        failed
    );
    for (name, unit, v) in &metrics {
        let note = if name.starts_with("sim_p") {
            format!("  (median over {TRACES} traces of nearest-rank quantiles, >= {samples} samples each)")
        } else {
            String::new()
        };
        println!("  {name:<28} {v:>16.6} {unit}{note}");
    }
    for e in &errors {
        println!("  CHECK FAILED: {e}");
    }

    let mut result = String::new();
    let _ = write!(
        result,
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
        attempted.max(1)
    );
    for (i, (name, unit, v)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = Json::Num(*v).write();
        let _ = write!(
            result,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    result.push_str("}}");
    println!("{result}");
    correct
}
