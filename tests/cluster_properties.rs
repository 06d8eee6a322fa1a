//! Integration gates for the cluster serving layer (ISSUE acceptance):
//! kernel-affinity routing strictly reduces reconfigurations vs.
//! round-robin placement, work stealing strictly reduces tail latency on a
//! skewed trace, elastic way autoscaling beats a static allocation on a
//! load spike with every conversion charged, and a million-request
//! full-fidelity smoke (50,000 requests in debug builds) drains with
//! conservation intact, ordered quantiles, and sampled output hashes equal
//! to the reference evaluator's.

use freac::kernels::KernelId;
use freac::netlist::builder::CircuitBuilder;
use freac::netlist::Netlist;
use freac::serve::inputs::reference_hash;
use freac::serve::{
    AutoscaleConfig, Cluster, ClusterConfig, ClusterReport, Request, RequestProfile, RoutePolicy,
    ServeConfig, StealConfig,
};

fn tiny_kernel(name: &str) -> Netlist {
    let mut b = CircuitBuilder::new(name);
    let a = b.word_input("a", 8);
    let x = b.word_input("x", 8);
    let s = b.add(&a, &x);
    b.word_output("s", &s);
    b.finish().expect("tiny kernel builds")
}

fn tiny_profile() -> RequestProfile {
    RequestProfile {
        cycles_per_item: 2,
        read_words: 4,
        write_words: 2,
    }
}

/// Four tenants, each pinned to one paper kernel, arrivals interleaved so
/// a shard serving mixed traffic must swap bitstreams constantly.
fn multi_kernel_cluster(route: RoutePolicy) -> ClusterReport {
    let kernels = [KernelId::Aes, KernelId::Gemm, KernelId::Kmp, KernelId::Dot];
    let mut cluster = Cluster::new(ClusterConfig {
        shards: 4,
        route,
        shard: ServeConfig {
            slices: 1,
            queue_depth: 512,
            // Single-lane service: every dispatch makes a fresh residency
            // decision, so placement quality shows directly in reconfigs.
            batching: false,
            ..ServeConfig::default()
        },
        ..ClusterConfig::default()
    })
    .expect("config is valid");
    for id in kernels {
        cluster.register_paper_kernel(id).expect("kernel maps");
    }
    for (t, id) in kernels.iter().enumerate() {
        cluster
            .add_tenant(&format!("t{t}"), 1)
            .expect("unique tenant");
        let name = id.name().to_lowercase();
        for i in 0..48u64 {
            // Interleave across kernels with tenant-specific gaps so the
            // arrival order is aperiodic: a round-robin cursor cannot
            // accidentally lock one kernel to one shard.
            let arrival = i * (3_700 + t as u64 * 300) + t as u64 * 131;
            cluster
                .submit(Request::new(&format!("t{t}"), i, &name, arrival, i))
                .expect("trace request is valid");
        }
    }
    cluster.run_to_completion().expect("serving drains")
}

#[test]
fn affinity_routing_strictly_reduces_reconfigurations() {
    let affinity = multi_kernel_cluster(RoutePolicy::KernelAffinity {
        spill_depth: usize::MAX,
    });
    let round_robin = multi_kernel_cluster(RoutePolicy::RoundRobin);
    assert_eq!(
        affinity.completions.len(),
        round_robin.completions.len(),
        "both placements must complete the same requests"
    );
    let ra = affinity.probes.counter("serve.reconfigs");
    let rr = round_robin.probes.counter("serve.reconfigs");
    assert!(
        ra < rr,
        "affinity placement must strictly reduce reconfigurations: affinity {ra} vs round-robin {rr}"
    );
    // Affinity concentrates each kernel on its home shard: in the limit
    // each shard's slice configures once per resident kernel.
    assert!(
        affinity.probes.counter("serve.reconfig.total_ps")
            < round_robin.probes.counter("serve.reconfig.total_ps"),
        "affinity must also pay strictly less reconfiguration time"
    );
}

/// One kernel, everything routed to its home shard (infinite spill depth),
/// a burst at t=0: the canonical skewed trace.
fn skewed_cluster(steal: Option<StealConfig>) -> ClusterReport {
    let mut cluster = Cluster::new(ClusterConfig {
        shards: 4,
        route: RoutePolicy::KernelAffinity {
            spill_depth: usize::MAX,
        },
        steal,
        shard: ServeConfig {
            slices: 1,
            queue_depth: 512,
            batching: false,
            ..ServeConfig::default()
        },
        epoch_ps: 10_000,
        ..ClusterConfig::default()
    })
    .expect("config is valid");
    cluster
        .register_kernel("add", &tiny_kernel("add"), tiny_profile())
        .expect("kernel maps");
    cluster.add_tenant("t", 1).expect("unique tenant");
    for i in 0..96u64 {
        cluster
            .submit(Request::new("t", i, "add", i, i))
            .expect("trace request is valid");
    }
    cluster.run_to_completion().expect("serving drains")
}

#[test]
fn work_stealing_strictly_reduces_p99_on_a_skewed_trace() {
    let stolen = skewed_cluster(Some(StealConfig {
        imbalance: 2,
        max_per_epoch: 64,
    }));
    let pinned = skewed_cluster(None);
    assert_eq!(stolen.completions.len(), pinned.completions.len());
    assert!(stolen.steals > 0, "the skewed burst must trigger steals");
    let p99 = |r: &ClusterReport| {
        r.probes
            .histogram("serve.latency_ps")
            .expect("latencies recorded")
            .quantile(0.99)
            .expect("non-empty histogram")
    };
    let (with, without) = (p99(&stolen), p99(&pinned));
    assert!(
        with < without,
        "stealing must strictly reduce p99 on the skewed trace: {with} vs {without}"
    );
    // Migrations balance: every steal left one shard and landed on one.
    assert_eq!(
        stolen.probes.counter("serve.requests.stolen"),
        stolen.probes.counter("serve.requests.stolen_in")
    );
}

/// A load spike against one shard that starts cache-heavy: 4 compute ways,
/// 10 scratchpad, 6 cache. The workload is compute-bound (long folds,
/// almost no operand traffic), so compute-way count is the bottleneck.
fn spike_cluster(autoscale: Option<AutoscaleConfig>) -> ClusterReport {
    let mut cluster = Cluster::new(ClusterConfig {
        shards: 1,
        autoscale,
        shard: ServeConfig {
            partition: freac::core::SlicePartition::new(4, 10, 6).expect("valid split"),
            slices: 1,
            queue_depth: 2048,
            ..ServeConfig::default()
        },
        epoch_ps: 100_000,
        ..ClusterConfig::default()
    })
    .expect("config is valid");
    cluster
        .register_kernel(
            "add",
            &tiny_kernel("add"),
            RequestProfile {
                cycles_per_item: 256,
                read_words: 1,
                write_words: 1,
            },
        )
        .expect("kernel maps");
    cluster.add_tenant("t", 1).expect("unique tenant");
    for i in 0..1024u64 {
        cluster
            .submit(Request::new("t", i, "add", i, i))
            .expect("trace request is valid");
    }
    cluster.run_to_completion().expect("serving drains")
}

#[test]
fn autoscaling_beats_static_allocation_on_a_load_spike() {
    let elastic = spike_cluster(Some(AutoscaleConfig {
        high_backlog: 16,
        low_backlog: 0,
        up_epochs: 1,
        down_epochs: 64,
        ..AutoscaleConfig::default()
    }));
    let static_split = spike_cluster(None);
    assert_eq!(elastic.completions.len(), static_split.completions.len());
    // The conversion actually happened and was charged.
    assert!(
        elastic.probes.counter("cluster.autoscale.up") > 0,
        "the spike must convert ways to compute"
    );
    assert!(
        elastic.probes.counter("cluster.autoscale.conversion_ps") > 0,
        "way conversion must be charged, not free"
    );
    assert!(
        elastic.span_ps < static_split.span_ps,
        "elastic ways must drain the spike strictly faster: {} vs {}",
        elastic.span_ps,
        static_split.span_ps
    );
}

/// The smoke scenario's cluster shape: 4 shards, affinity routing with
/// stealing.
fn smoke_config() -> ClusterConfig {
    ClusterConfig {
        shards: 4,
        route: RoutePolicy::KernelAffinity { spill_depth: 64 },
        steal: Some(StealConfig::default()),
        shard: ServeConfig {
            queue_depth: 512,
            ..ServeConfig::default()
        },
        ..ClusterConfig::default()
    }
}

fn mask_kernel() -> Netlist {
    let mut b = CircuitBuilder::new("mask");
    let a = b.word_input("a", 8);
    let x = b.word_input("x", 8);
    let m = b.and_words(&a, &x);
    b.word_output("m", &m);
    b.finish().expect("masker builds")
}

fn mask_profile() -> RequestProfile {
    RequestProfile {
        cycles_per_item: 1,
        read_words: 2,
        write_words: 1,
    }
}

/// Four tenants alternating between two kernels, unique `(tenant, seq)`
/// identities — the big-trace scenario the smoke replays.
fn smoke_trace(n: u64) -> Vec<Request> {
    (0..n)
        .map(|i| {
            let tenant = format!("t{}", i % 4);
            let kernel = if i % 3 == 0 { "mask" } else { "add" };
            Request::new(&tenant, i / 4, kernel, i * 200, i)
        })
        .collect()
}

fn full_smoke_cluster() -> Cluster {
    let mut cluster = Cluster::new(smoke_config()).expect("config is valid");
    cluster
        .register_kernel("add", &tiny_kernel("add"), tiny_profile())
        .expect("adder maps");
    cluster
        .register_kernel("mask", &mask_kernel(), mask_profile())
        .expect("masker maps");
    for t in 0..4 {
        cluster
            .add_tenant(&format!("t{t}"), 1 + t % 2)
            .expect("unique tenant");
    }
    cluster
}

#[test]
fn million_request_full_fidelity_smoke_conserves_and_orders_quantiles() {
    // The exact replay of the whole trace is the release gate; debug
    // builds run an unoptimized engine, so they replay a 50,000-request
    // prefix of the same trace.
    let n: u64 = if cfg!(debug_assertions) {
        50_000
    } else {
        1_000_000
    };
    let mut cluster = full_smoke_cluster();
    for req in smoke_trace(n) {
        cluster.submit(req).expect("trace request is valid");
    }
    let report = cluster.run_to_completion().expect("serving drains");

    // Conservation, cluster-wide and per terminal class.
    assert_eq!(
        report.completions.len() as u64 + report.sheds.len() as u64,
        n,
        "every request must complete or shed exactly once"
    );
    assert_eq!(report.probes.counter("cluster.requests.submitted"), n);
    assert_eq!(
        report.probes.counter("cluster.requests.completed")
            + report.probes.counter("cluster.requests.shed"),
        n
    );
    let violations = freac::probe::check(&report.probes);
    assert!(violations.is_empty(), "probe laws violated: {violations:?}");

    // Ordered quantiles on the merged latency distribution.
    let h = report
        .probes
        .histogram("serve.latency_ps")
        .expect("latencies recorded");
    let (p50, p95, p99) = (
        h.quantile(0.5).expect("non-empty"),
        h.quantile(0.95).expect("non-empty"),
        h.quantile(0.99).expect("non-empty"),
    );
    assert!(
        p50 <= p95 && p95 <= p99,
        "quantiles out of order: p50 {p50} p95 {p95} p99 {p99}"
    );

    // Every 7th completion (the load generator's verification stride)
    // carries the reference evaluator's output hash, so a deferred lane
    // lost or written to the wrong completion fails at full scale.
    for c in report.completions.iter().step_by(7) {
        let net = cluster.kernel_netlist(&c.kernel).expect("registered");
        let cycles = cluster.kernel_func_cycles(&c.kernel).expect("registered");
        assert_eq!(
            c.output_hash,
            reference_hash(net, c.seed, cycles).expect("reference runs"),
            "completion ({}, {}) diverged from the reference evaluator",
            c.tenant,
            c.seq
        );
    }
}
