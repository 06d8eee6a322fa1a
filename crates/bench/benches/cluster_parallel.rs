//! Parallel shard-stepping bench.
//!
//! Replays one pinned four-kernel trace (a ramp window that pays the
//! cold-slice setups, then requests cycling all four kernels so every
//! affinity home shard carries a quarter of the load — two kernels would
//! idle half the cluster and cap the theoretical speedup at the busiest
//! shard's share) through the cluster epoch loop stepping 4 shards with
//! 1 worker vs 4 workers, and records the wall clocks in
//! `BENCH_cluster_parallel.json`. The reports must be byte-identical; on
//! hosts with at least 4 hardware threads the 4-worker run must also be
//! at least 2x faster (floor override: `FREAC_BENCH_MIN_PARALLEL_SPEEDUP`)
//! or the bench aborts — on smaller hosts the wall gate is reported but
//! not enforced, since threads that time-slice one core can only lose.
//!
//! Wall-clock numbers vary by host, so nothing here is baseline-diffed;
//! the speedup gate runs inside this binary.

use std::fmt::Write as _;
use std::time::Instant;

use freac_netlist::builder::CircuitBuilder;
use freac_netlist::Netlist;
use freac_serve::{
    Cluster, ClusterConfig, ClusterReport, Request, RequestProfile, RoutePolicy, ServeConfig,
    StealConfig,
};

/// Requests in the trace: long enough that per-epoch shard pumping
/// dominates thread bookkeeping.
const PARALLEL_REQUESTS: u64 = 400_000;

fn adder() -> Netlist {
    let mut b = CircuitBuilder::new("add");
    let a = b.word_input("a", 8);
    let x = b.word_input("x", 8);
    let s = b.add(&a, &x);
    b.word_output("s", &s);
    b.finish().expect("adder builds")
}

fn masker() -> Netlist {
    let mut b = CircuitBuilder::new("mask");
    let a = b.word_input("a", 8);
    let x = b.word_input("x", 8);
    let m = b.and_words(&a, &x);
    b.word_output("m", &m);
    b.finish().expect("masker builds")
}

fn xorer() -> Netlist {
    let mut b = CircuitBuilder::new("xor");
    let a = b.word_input("a", 8);
    let x = b.word_input("x", 8);
    let y = b.xor_words(&a, &x);
    b.word_output("y", &y);
    b.finish().expect("xorer builds")
}

fn subber() -> Netlist {
    let mut b = CircuitBuilder::new("sub");
    let a = b.word_input("a", 8);
    let x = b.word_input("x", 8);
    let d = b.sub(&a, &x);
    b.word_output("d", &d);
    b.finish().expect("subber builds")
}

fn add_profile() -> RequestProfile {
    RequestProfile {
        cycles_per_item: 2,
        read_words: 4,
        write_words: 2,
    }
}

fn mask_profile() -> RequestProfile {
    RequestProfile {
        cycles_per_item: 1,
        read_words: 2,
        write_words: 1,
    }
}

fn cluster_config(workers: usize) -> ClusterConfig {
    ClusterConfig {
        shards: 4,
        route: RoutePolicy::KernelAffinity { spill_depth: 64 },
        steal: Some(StealConfig::default()),
        shard: ServeConfig {
            queue_depth: 512,
            ..ServeConfig::default()
        },
        workers,
        ..ClusterConfig::default()
    }
}

fn bench_cluster(workers: usize) -> Cluster {
    let mut c = Cluster::new(cluster_config(workers)).expect("config is valid");
    c.register_kernel("add", &adder(), add_profile())
        .expect("adder maps");
    c.register_kernel("mask", &masker(), mask_profile())
        .expect("masker maps");
    c.register_kernel("xor", &xorer(), mask_profile())
        .expect("xorer maps");
    c.register_kernel("sub", &subber(), add_profile())
        .expect("subber maps");
    for t in 0..4 {
        c.add_tenant(&format!("t{t}"), 1 + t % 2)
            .expect("unique tenant");
    }
    c
}

/// The four-kernel balanced trace: after the ramp, requests cycle all four
/// kernels so every affinity home shard carries a quarter of the load.
fn parallel_trace(n: u64) -> Vec<Request> {
    const RAMP: u64 = 1_024;
    const KERNELS: [&str; 4] = ["add", "mask", "xor", "sub"];
    let mut arrival = 0u64;
    (0..n)
        .map(|i| {
            arrival += if i < RAMP { 25_000 } else { 250 };
            let tenant = format!("t{}", i % 4);
            Request::new(&tenant, i / 4, KERNELS[(i % 4) as usize], arrival, i)
        })
        .collect()
}

fn run_trace(workers: usize, trace: &[Request]) -> (ClusterReport, f64) {
    let mut cluster = bench_cluster(workers);
    for r in trace.iter().cloned() {
        cluster.submit(r).expect("trace request");
    }
    let start = Instant::now();
    let report = cluster.run_to_completion().expect("cluster drains");
    (report, start.elapsed().as_secs_f64() * 1e3)
}

fn gate_floor(var: &str, default: f64) -> f64 {
    std::env::var(var)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    // 1 worker vs 4 on 4 shards. Byte identity first, then the
    // wall-clock gate.
    let ptrace = parallel_trace(PARALLEL_REQUESTS);
    let (seq, seq_ms) = run_trace(1, &ptrace);
    let (par, par_ms) = run_trace(4, &ptrace);
    assert_eq!(
        freac_probe::to_counters_json(&seq.probes),
        freac_probe::to_counters_json(&par.probes),
        "worker count must not change the probe registry"
    );
    assert_eq!(
        seq.completions, par.completions,
        "worker count must not change the completion stream"
    );
    let pspeed = seq_ms / par_ms.max(f64::MIN_POSITIVE);
    let pfloor = gate_floor("FREAC_BENCH_MIN_PARALLEL_SPEEDUP", 2.0);
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    if cores >= 4 {
        assert!(
            pspeed >= pfloor,
            "4-worker stepping must be at least {pfloor}x faster: \
             {seq_ms:.0} ms vs {par_ms:.0} ms ({pspeed:.1}x)"
        );
    } else {
        println!(
            "cluster parallel stepping: wall gate skipped ({cores} hardware threads < 4); \
             measured {pspeed:.1}x"
        );
    }
    let mut par_json = String::from("{\n");
    let _ = writeln!(
        par_json,
        "  \"workers1\": {{ \"requests\": {}, \"completed\": {}, \"wall_ms\": {:.1} }},",
        ptrace.len(),
        seq.completions.len(),
        seq_ms
    );
    let _ = writeln!(
        par_json,
        "  \"workers4\": {{ \"requests\": {}, \"completed\": {}, \"wall_ms\": {:.1} }},",
        ptrace.len(),
        par.completions.len(),
        par_ms
    );
    let _ = writeln!(par_json, "  \"reports_identical\": true,");
    let _ = writeln!(par_json, "  \"workers4_over_workers1\": {pspeed:.1}");
    par_json.push('}');
    bench::write_bench_json("cluster_parallel", &par_json);
    println!(
        "cluster parallel stepping: {pspeed:.1}x ({seq_ms:.0} ms at 1 worker vs {par_ms:.0} ms at 4)"
    );
}
