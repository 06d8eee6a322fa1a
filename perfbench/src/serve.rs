//! The two serving workloads, `overload_shed` and `churn_cluster`: one
//! untimed trace build, a timed set-up and a timed serving phase, then
//! output checks and the simulated metrics read off the report.
//!
//! A traced iteration additionally times the submit loop and the drain
//! separately, times the probe export, and replays every dispatch's
//! functional execution through the benchmark's own copies of the plans
//! (see [`crate::pipeline`]), checking every completion's output hash.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::time::Instant;

use freac_kernels::{all_kernels, KernelId};
use freac_netlist::Value;
use freac_serve::inputs::{hash_outputs, reference_hash, synth_inputs};
use freac_serve::{
    open_loop_trace, AutoscaleConfig, Cluster, ClusterConfig, ClusterReport, Completion, Request,
    RoutePolicy, ServeConfig, ShedReason, StealConfig, TenantSpec,
};

use crate::pipeline::{self, MappedKernel};
use crate::stats::{nearest_rank, sorted};
use crate::{peak_rss_mb, Iteration, Metrics};

/// Every Nth completion is re-executed on the reference evaluator, on
/// every run (traced or not).
pub const VERIFY_STRIDE: usize = 7;

/// Per-tenant requests of `overload_shed` (4 tenants).
pub const OVERLOAD_REQUESTS: u64 = 65_536;

/// Per-tenant requests of `churn_cluster` (4 tenants).
pub const CHURN_REQUESTS: u64 = 8_192;

/// A serving workload: its tenants' traffic, the cluster it runs on, and
/// the paper kernels it registers.
#[derive(Debug, Clone)]
pub struct ServeWorkload {
    /// Open-loop traffic, one spec per tenant.
    pub specs: Vec<TenantSpec>,
    /// The cluster configuration (always one worker).
    pub config: ClusterConfig,
    /// Registered kernels, in registration order.
    pub kernels: Vec<KernelId>,
}

/// The `serve_loadgen` scenario: four AES/GEMM tenants arriving about 45x
/// faster than one shard can serve, so most requests are shed at
/// admission.
pub fn overload_shed(requests: u64) -> ServeWorkload {
    let mut alpha = TenantSpec::new("alpha", "aes", requests);
    alpha.weight = 4;
    alpha.mean_gap_ps = 2_000;
    let mut beta = TenantSpec::new("beta", "gemm", requests);
    beta.weight = 2;
    beta.mean_gap_ps = 3_000;
    let mut gamma = TenantSpec::new("gamma", "aes", requests);
    gamma.mix = vec![("aes".to_owned(), 1), ("gemm".to_owned(), 1)];
    gamma.mean_gap_ps = 2_500;
    gamma.deadline_ps = Some(20_000_000);
    let mut delta = TenantSpec::new("delta", "gemm", requests);
    delta.mix = vec![("aes".to_owned(), 2), ("gemm".to_owned(), 1)];
    delta.mean_gap_ps = 4_000;
    delta.exclusive_permille = 125;
    ServeWorkload {
        specs: vec![alpha, beta, gamma, delta],
        config: ClusterConfig {
            shards: 1,
            shard: ServeConfig::default(),
            workers: 1,
            ..ClusterConfig::default()
        },
        kernels: vec![KernelId::Aes, KernelId::Gemm],
    }
}

/// A sustainable four-shard load over all eleven paper kernels: each
/// tenant skews its mix towards a different kernel, so slices reconfigure
/// often, batches stay narrow, and routing and stealing decide the tail.
pub fn churn_cluster(requests: u64) -> ServeWorkload {
    let kernels = all_kernels();
    let mut specs: Vec<TenantSpec> = ["t0", "t1", "t2", "t3"]
        .iter()
        .enumerate()
        .map(|(t, name)| {
            let mut spec = TenantSpec::new(name, "aes", requests);
            // Tenant t's favourite kernel is 3t; weights fall
            // quadratically with distance from it (122 down to 2).
            spec.mix = kernels
                .iter()
                .enumerate()
                .map(|(j, id)| {
                    let rank = ((j + 11 - 3 * t) % 11) as u64;
                    (id.name().to_lowercase(), (11 - rank).pow(2) + 1)
                })
                .collect();
            // 85 ns, not a rounder 100: there the median latency falls in
            // a sparse stretch of the distribution and moves by about 25%
            // from seed to seed, even as a median over several traces.
            spec.mean_gap_ps = 85_000;
            spec
        })
        .collect();
    specs[1].deadline_ps = Some(20_000_000);
    specs[2].exclusive_permille = 125;
    ServeWorkload {
        specs,
        config: ClusterConfig {
            shards: 4,
            route: RoutePolicy::KernelAffinity { spill_depth: 64 },
            steal: Some(StealConfig::default()),
            autoscale: Some(AutoscaleConfig::default()),
            shard: ServeConfig::default(),
            workers: 1,
            ..ClusterConfig::default()
        },
        kernels: kernels.to_vec(),
    }
}

/// FNV-1a digest of a trace: every field that reaches the server.
pub fn trace_digest(trace: &[Request]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for r in trace {
        feed(r.tenant.as_bytes());
        feed(&r.seq.to_le_bytes());
        feed(r.kernel.as_bytes());
        feed(&r.arrival_ps.to_le_bytes());
        feed(&r.deadline_ps.unwrap_or(u64::MAX).to_le_bytes());
        feed(&[u8::from(r.exclusive)]);
        feed(&r.seed.to_le_bytes());
    }
    h
}

/// Builds the workload's cluster: the timed set-up.
fn setup(w: &ServeWorkload) -> Result<Cluster, String> {
    let mut cluster = Cluster::new(w.config).map_err(|e| format!("cluster config: {e}"))?;
    for &id in &w.kernels {
        cluster
            .register_paper_kernel(id)
            .map_err(|e| format!("register {}: {e}", id.name()))?;
    }
    for s in &w.specs {
        cluster
            .add_tenant(&s.name, s.weight)
            .map_err(|e| format!("add tenant {}: {e}", s.name))?;
    }
    Ok(cluster)
}

/// Runs one iteration of a serving workload.
pub fn run(w: &ServeWorkload, seed: u64, traced: bool) -> Iteration {
    let mut it = Iteration::default();
    let t0 = Instant::now();
    let mut cluster = match setup(w) {
        Ok(c) => c,
        Err(e) => return it.fail(e),
    };
    it.e2e.set("setup_s", t0.elapsed().as_secs_f64());

    let trace = open_loop_trace(&w.specs, seed, 1);
    it.digest = trace_digest(&trace);
    let submitted = trace.len();
    it.attempted = submitted as u64;
    let exclusive: HashSet<(String, u64)> = if traced {
        trace
            .iter()
            .filter(|r| r.exclusive)
            .map(|r| (r.tenant.clone(), r.seq))
            .collect()
    } else {
        HashSet::new()
    };

    let t1 = Instant::now();
    for req in trace {
        if let Err(e) = cluster.submit(req) {
            return it.fail(format!("submit: {e}"));
        }
    }
    let t_submitted = Instant::now();
    let report = match cluster.run_to_completion() {
        Ok(r) => r,
        Err(e) => return it.fail(format!("run_to_completion: {e}")),
    };
    let t_done = Instant::now();
    it.e2e.set("run_s", (t_done - t1).as_secs_f64());
    if let Some(mb) = peak_rss_mb() {
        it.e2e.set("peak_rss_mb", mb);
    }

    check(&cluster, &report, submitted, &mut it);
    simulated_e2e(&report, submitted, &mut it);

    if traced {
        let l = &mut it.layers;
        l.set(
            "serve.submit_ns_per_req",
            (t_submitted - t1).as_nanos() as f64 / submitted.max(1) as f64,
        );
        let run_ms = (t_done - t_submitted).as_secs_f64() * 1e3;
        l.set("serve.run_ms", run_ms);
        let t_export = Instant::now();
        let exported = freac_probe::to_counters_json(&report.probes);
        l.set("probe.export_ms", t_export.elapsed().as_secs_f64() * 1e3);
        std::hint::black_box(exported);
        let p = &report.probes;
        l.set(
            "probe.keys",
            (p.counters().count() + p.gauges().count() + p.histograms().count()) as f64,
        );
        simulated_layers(&report, submitted, l);

        let mapped = pipeline::map_kernels(&w.kernels, l);
        let replay = replay(&cluster, &report, &mapped, &exclusive);
        let l = &mut it.layers;
        l.set("exec.replay_ms", replay.elapsed_ms);
        l.set("serve.loop_self_ms", run_ms - replay.elapsed_ms);
        l.set("exec.batch_lane_cycles", replay.batch_lane_cycles as f64);
        l.set("exec.single_lane_cycles", replay.single_lane_cycles as f64);
        let lane_cycles = replay.batch_lane_cycles + replay.single_lane_cycles;
        l.set(
            "exec.ns_per_lane_cycle",
            replay.elapsed_ms * 1e6 / lane_cycles.max(1) as f64,
        );
        l.set("exec.verified", replay.verified as f64);
        it.failed += replay.mismatches;
        for e in replay.errors {
            it.errors.push(e);
        }
        if replay.verified != report.completions.len() as u64 {
            it.errors.push(format!(
                "replay verified {} of {} completions",
                replay.verified,
                report.completions.len()
            ));
        }
    }
    it
}

/// The output checks every run makes, outside the timed window.
fn check(cluster: &Cluster, report: &ClusterReport, submitted: usize, it: &mut Iteration) {
    let (done, shed) = (report.completions.len(), report.sheds.len());
    if done + shed != submitted {
        it.failed += submitted.abs_diff(done + shed) as u64;
        it.errors.push(format!(
            "conservation: {done} completed + {shed} shed != {submitted} submitted"
        ));
    }
    for v in freac_probe::check(&report.probes) {
        it.failed += 1;
        it.errors.push(format!("probe law: {v:?}"));
    }
    let bad_split = report
        .completions
        .iter()
        .filter(|c| c.queue_wait_ps() + c.reconfig_ps + c.exec_ps != c.latency_ps())
        .count();
    if bad_split > 0 {
        it.failed += bad_split as u64;
        it.errors.push(format!(
            "{bad_split} completions where queue wait + reconfig + exec != latency"
        ));
    }
    let mut mismatches = 0u64;
    for c in report.completions.iter().step_by(VERIFY_STRIDE) {
        let golden = cluster
            .kernel_netlist(&c.kernel)
            .zip(cluster.kernel_func_cycles(&c.kernel))
            .map(|(net, cycles)| reference_hash(net, c.seed, cycles));
        match golden {
            Some(Ok(h)) if h == c.output_hash => {}
            _ => mismatches += 1,
        }
    }
    if mismatches > 0 {
        it.failed += mismatches;
        it.errors.push(format!(
            "{mismatches} sampled completions differ from the reference evaluator"
        ));
    }
}

/// Simulated latencies of the completed requests, µs, ascending.
fn latencies_us(report: &ClusterReport) -> Vec<f64> {
    sorted(
        report
            .completions
            .iter()
            .map(|c| c.latency_ps() as f64 / 1e6)
            .collect(),
    )
}

/// The simulated end-to-end metrics. Deterministic for a given seed.
fn simulated_e2e(report: &ClusterReport, submitted: usize, it: &mut Iteration) {
    let lat = latencies_us(report);
    it.e2e
        .set("sim_throughput_mrps", report.throughput_rps() / 1e6);
    if let (Some(p50), Some(p99)) = (nearest_rank(&lat, 0.50), nearest_rank(&lat, 0.99)) {
        it.e2e.set("sim_p50_us", p50.value);
        it.e2e.set("sim_p99_us", p99.value);
        it.latency_samples = p99.samples as u64;
    }
    it.e2e.set(
        "completed_frac",
        report.completions.len() as f64 / submitted.max(1) as f64,
    );
}

/// The simulated per-layer metrics: batching, latency parts,
/// reconfiguration, and cluster placement.
fn simulated_layers(report: &ClusterReport, submitted: usize, l: &mut Metrics) {
    let p = &report.probes;
    let c = |name: &str| p.counter(name) as f64;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

    for (name, reason) in [
        ("adm.shed.queue_full", ShedReason::QueueFull),
        ("adm.shed.displaced", ShedReason::Displaced),
        ("adm.shed.cluster_budget", ShedReason::ClusterBudget),
        ("adm.shed.tlb_fault", ShedReason::TlbFault),
    ] {
        let n = report.sheds.iter().filter(|s| s.reason == reason).count();
        l.set(name, n as f64);
    }

    let dispatches: Vec<_> = report.shards.iter().flat_map(|s| &s.dispatches).collect();
    let n_dispatch = dispatches.len() as f64;
    let lanes: usize = dispatches.iter().map(|d| d.lanes).sum();
    l.set("batch.dispatches", n_dispatch);
    l.set("batch.mean_lanes", ratio(lanes as f64, n_dispatch));
    l.set(
        "batch.fill_ratio",
        ratio(c("serve.lanes.occupied"), c("serve.lanes.capacity")),
    );
    l.set(
        "batch.single_lane_frac",
        ratio(
            c("serve.batches.single_lane"),
            c("serve.batches.dispatched"),
        ),
    );
    let (mut busy, mut span) = (0.0, 0.0);
    for (name, v) in p.counters_under("serve.slice") {
        if name.ends_with(".busy_ps") {
            busy += v as f64;
        } else if name.ends_with(".span_ps") {
            span += v as f64;
        }
    }
    l.set("slice.busy_frac", ratio(busy, span));
    l.set(
        "deadline.met_frac",
        ratio(
            c("serve.deadlines.met"),
            c("serve.deadlines.met") + c("serve.deadlines.missed"),
        ),
    );

    let done = report.completions.len() as f64;
    let mean_us = |f: fn(&Completion) -> u64| {
        ratio(
            report.completions.iter().map(|c| f(c) as f64).sum::<f64>() / 1e6,
            done,
        )
    };
    l.set("lat.queue_mean_us", mean_us(Completion::queue_wait_ps));
    l.set("lat.reconfig_mean_us", mean_us(|c| c.reconfig_ps));
    l.set("lat.exec_mean_us", mean_us(|c| c.exec_ps));
    let waits = sorted(
        report
            .completions
            .iter()
            .map(|c| c.queue_wait_ps() as f64 / 1e6)
            .collect(),
    );
    l.set(
        "lat.queue_p99_us",
        nearest_rank(&waits, 0.99).map_or(0.0, |q| q.value),
    );

    let reconfigs = c("serve.reconfigs");
    l.set("reconfig.count", reconfigs);
    l.set("reconfig.total_us", c("serve.reconfig.total_ps") / 1e6);
    l.set("reconfig.per_dispatch", ratio(reconfigs, n_dispatch));
    let teardown: u64 = report.shards.iter().map(|s| s.teardown_ps).sum();
    l.set("teardown.reclaim_us", teardown as f64 / 1e6);
    l.set(
        "autoscale.conversions",
        c("cluster.autoscale.up") + c("cluster.autoscale.down"),
    );
    l.set(
        "autoscale.conversion_us",
        c("cluster.autoscale.conversion_ps") / 1e6,
    );

    // Placement concentration: the share of each kernel's shard-served
    // requests (completed or shed at a shard) that ran on the shard
    // serving most of that kernel's traffic — 1.0 under perfect affinity,
    // about 1/shards under round-robin.
    let mut per_kernel: BTreeMap<&str, Vec<u64>> = BTreeMap::new();
    for (si, shard) in report.shards.iter().enumerate() {
        let kernels = shard
            .completions
            .iter()
            .map(|c| c.kernel.as_str())
            .chain(shard.sheds.iter().map(|s| s.request.kernel.as_str()));
        for k in kernels {
            per_kernel
                .entry(k)
                .or_insert_with(|| vec![0; report.shards.len()])[si] += 1;
        }
    }
    let (modal, total) = per_kernel.values().fold((0, 0), |(m, t), counts| {
        (
            m + counts.iter().max().copied().unwrap_or(0),
            t + counts.iter().sum::<u64>(),
        )
    });
    l.set(
        "route.affinity_hit_ratio",
        ratio(modal as f64, total as f64),
    );
    l.set("steal.count", report.steals as f64);
    l.set(
        "steal.per_kreq",
        ratio(report.steals as f64 * 1e3, submitted as f64),
    );
    let per_shard: Vec<usize> = report.shards.iter().map(|s| s.completions.len()).collect();
    let max = per_shard.iter().max().copied().unwrap_or(0);
    let min = per_shard.iter().min().copied().unwrap_or(0).max(1);
    l.set("shard.imbalance", max as f64 / min as f64);
}

/// What replaying every dispatch found.
struct Replay {
    elapsed_ms: f64,
    verified: u64,
    mismatches: u64,
    batch_lane_cycles: u64,
    single_lane_cycles: u64,
    errors: Vec<String>,
}

/// Re-executes every dispatch, grouped by `(shard, batch_id)`, through the
/// benchmark's own plans: exclusive riders on the single-lane folded
/// executor, everything else as one bit-sliced batch of the dispatch's
/// width. Each lane's output hash must equal its completion's.
fn replay(
    cluster: &Cluster,
    report: &ClusterReport,
    mapped: &[MappedKernel],
    exclusive: &HashSet<(String, u64)>,
) -> Replay {
    let plans: HashMap<&str, &MappedKernel> = mapped.iter().map(|m| (m.name.as_str(), m)).collect();
    let mut r = Replay {
        elapsed_ms: 0.0,
        verified: 0,
        mismatches: 0,
        batch_lane_cycles: 0,
        single_lane_cycles: 0,
        errors: Vec::new(),
    };
    // (riders, ran on the single-lane path) per dispatch.
    let mut groups: Vec<(Vec<&Completion>, bool)> = Vec::new();
    for shard in &report.shards {
        let mut by_batch: BTreeMap<u64, Vec<&Completion>> = BTreeMap::new();
        for c in &shard.completions {
            by_batch.entry(c.batch_id).or_default().push(c);
        }
        groups.extend(by_batch.into_values().map(|g| {
            let single = g.len() == 1 && exclusive.contains(&(g[0].tenant.clone(), g[0].seq));
            (g, single)
        }));
    }

    let start = Instant::now();
    let mut out_batch: Vec<Vec<Value>> = Vec::new();
    let mut out_single: Vec<Value> = Vec::new();
    for (group, single) in &groups {
        let first = group[0];
        let (Some(m), Some(cycles)) = (
            plans.get(first.kernel.as_str()),
            cluster.kernel_func_cycles(&first.kernel),
        ) else {
            r.errors
                .push(format!("no plan for kernel '{}'", first.kernel));
            r.mismatches += group.len() as u64;
            continue;
        };
        if first.lanes != group.len() {
            r.errors.push(format!(
                "dispatch {} on slice {} lists {} lanes but {} completions",
                first.batch_id,
                first.slice,
                first.lanes,
                group.len()
            ));
        }
        let hashes: Result<Vec<u64>, String> = if *single {
            r.single_lane_cycles += cycles;
            let inputs = synth_inputs(&m.netlist, first.seed);
            let mut ex = m.fold.executor();
            (0..cycles)
                .try_for_each(|_| ex.run_cycle_into(&inputs, &mut out_single))
                .map(|()| vec![hash_outputs(&out_single)])
                .map_err(|e| e.to_string())
        } else {
            r.batch_lane_cycles += cycles * group.len() as u64;
            let lanes: Vec<Vec<Value>> = group
                .iter()
                .map(|c| synth_inputs(&m.netlist, c.seed))
                .collect();
            let mut state = m.plan.new_batch_state_for(lanes.len());
            (0..cycles)
                .try_for_each(|_| {
                    m.plan
                        .run_batch_cycle_any(&mut state, &lanes, &mut out_batch)
                })
                .map(|()| out_batch.iter().map(|o| hash_outputs(o)).collect())
                .map_err(|e| e.to_string())
        };
        match hashes {
            Ok(hashes) => {
                for (c, h) in group.iter().zip(hashes) {
                    if c.output_hash == h {
                        r.verified += 1;
                    } else {
                        r.mismatches += 1;
                    }
                }
            }
            Err(e) => {
                r.errors.push(format!("replay of {}: {e}", first.kernel));
                r.mismatches += group.len() as u64;
            }
        }
    }
    r.elapsed_ms = start.elapsed().as_secs_f64() * 1e3;
    if r.mismatches > 0 {
        r.errors
            .push(format!("replay: {} output hash mismatches", r.mismatches));
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_config_passes_cluster_validation() {
        for w in [overload_shed(1), churn_cluster(1)] {
            assert_eq!(w.config.workers, 1);
            assert!(Cluster::new(w.config).is_ok(), "{:?}", w.config);
        }
    }

    #[test]
    fn same_seed_same_trace_different_seed_different_trace() {
        for w in [overload_shed(64), churn_cluster(64)] {
            let a = trace_digest(&open_loop_trace(&w.specs, 11, 1));
            let b = trace_digest(&open_loop_trace(&w.specs, 11, 1));
            let c = trace_digest(&open_loop_trace(&w.specs, 12, 1));
            assert_eq!(a, b);
            assert_ne!(a, c);
        }
    }

    #[test]
    fn same_seed_gives_bit_identical_simulated_metrics() {
        let w = churn_cluster(96);
        let a = run(&w, 5, true);
        let b = run(&w, 5, false);
        assert!(a.errors.is_empty(), "{:?}", a.errors);
        assert!(b.errors.is_empty(), "{:?}", b.errors);
        assert_eq!(a.failed, 0);
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.simulated(), b.simulated());
        assert_eq!(a.layers.get("exec.verified"), Some(a.attempted as f64));
    }
}
