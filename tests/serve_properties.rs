//! Integration properties of the serving subsystem (ISSUE acceptance
//! gates): batching beats single-lane on the four-tenant mixed workload,
//! the load generator is worker-count independent, and merged counters are
//! identical across parallelism.

use std::sync::Arc;

use freac::core::{Accelerator, AcceleratorTile};
use freac::kernels::KernelId;
use freac::netlist::OptLevel;
use freac::serve::inputs::reference_hash;
use freac::serve::{
    open_loop_trace, ClosedLoop, Cluster, ClusterConfig, ClusterReport, Request, RequestProfile,
    SchedPolicy, ServeConfig, ServeError, ServeReport, Server, StealConfig, TenantSpec,
};
use freac::sim::Time;

const SEED: u64 = 0x7e57_05e1;

fn mixed_specs() -> Vec<TenantSpec> {
    let mut alpha = TenantSpec::new("alpha", "aes", 32);
    alpha.weight = 4;
    alpha.mean_gap_ps = 2_000;
    let mut beta = TenantSpec::new("beta", "gemm", 32);
    beta.weight = 2;
    beta.mean_gap_ps = 3_000;
    let mut gamma = TenantSpec::new("gamma", "aes", 32);
    gamma.mix = vec![("aes".to_owned(), 1), ("gemm".to_owned(), 1)];
    gamma.mean_gap_ps = 2_500;
    let mut delta = TenantSpec::new("delta", "gemm", 32);
    delta.mix = vec![("aes".to_owned(), 2), ("gemm".to_owned(), 1)];
    delta.mean_gap_ps = 4_000;
    vec![alpha, beta, gamma, delta]
}

fn serve_mixed(batching: bool, workers: usize) -> ServeReport {
    let mut server = Server::new(ServeConfig {
        batching,
        policy: SchedPolicy::WeightedFair,
        ..ServeConfig::default()
    })
    .expect("config is valid");
    server
        .register_paper_kernel(KernelId::Aes)
        .expect("aes maps");
    server
        .register_paper_kernel(KernelId::Gemm)
        .expect("gemm maps");
    let specs = mixed_specs();
    for s in &specs {
        server.add_tenant(&s.name, s.weight).expect("unique tenant");
    }
    for req in open_loop_trace(&specs, SEED, workers) {
        server.submit(req).expect("trace request is valid");
    }
    server.run_to_completion().expect("serving drains")
}

#[test]
fn batching_beats_single_lane_on_the_mixed_workload() {
    let batched = serve_mixed(true, 1);
    let single = serve_mixed(false, 1);
    assert_eq!(
        batched.completions.len(),
        single.completions.len(),
        "both modes must complete the same requests"
    );
    assert!(
        batched.span_ps < single.span_ps,
        "batched span {} must be strictly smaller than single-lane {}",
        batched.span_ps,
        single.span_ps
    );
    assert!(
        batched.throughput_rps() > single.throughput_rps(),
        "batched throughput must be strictly higher"
    );
    // Same functional results in both modes, in the same canonical order.
    let hb: Vec<(String, u64, u64)> = batched
        .completions
        .iter()
        .map(|c| (c.tenant.clone(), c.seq, c.output_hash))
        .collect();
    let mut hs: Vec<(String, u64, u64)> = single
        .completions
        .iter()
        .map(|c| (c.tenant.clone(), c.seq, c.output_hash))
        .collect();
    let mut hb_sorted = hb.clone();
    hb_sorted.sort();
    hs.sort();
    assert_eq!(hb_sorted, hs, "output hashes diverged between modes");
}

#[test]
fn load_generation_is_worker_count_independent() {
    let specs = mixed_specs();
    let one = open_loop_trace(&specs, SEED, 1);
    let many = open_loop_trace(&specs, SEED, 4);
    assert_eq!(one, many, "trace depends on worker count");
}

#[test]
fn merged_counters_are_identical_across_worker_counts() {
    let r1 = serve_mixed(true, 1);
    let r4 = serve_mixed(true, 4);
    assert_eq!(
        freac::probe::to_counters_json(&r1.probes),
        freac::probe::to_counters_json(&r4.probes),
        "serving counters depend on trace-generation parallelism"
    );
    assert_eq!(r1.completions, r4.completions);
    assert_eq!(r1.dispatches, r4.dispatches);
}

#[test]
fn tenant_quantiles_are_ordered() {
    let r = serve_mixed(true, 1);
    for t in &r.tenants {
        assert!(t.completed > 0, "tenant {} completed nothing", t.name);
        assert!(
            t.p50_ps <= t.p95_ps && t.p95_ps <= t.p99_ps,
            "tenant {} quantiles out of order: p50 {} p95 {} p99 {}",
            t.name,
            t.p50_ps,
            t.p95_ps,
            t.p99_ps
        );
    }
}

/// The mixed workload with exclusives sprinkled in, served at a given
/// lane cap, with tenants/kernels optionally registered (and the trace
/// submitted) in reverse — the enumeration-order probe.
fn serve_mixed_at_width(max_lanes: usize, reverse: bool) -> ServeReport {
    let mut server = Server::new(ServeConfig {
        policy: SchedPolicy::WeightedFair,
        queue_depth: 512,
        max_lanes,
        ..ServeConfig::default()
    })
    .expect("config is valid");
    let mut kernels = vec![KernelId::Aes, KernelId::Gemm];
    let mut specs = mixed_specs();
    for s in &mut specs {
        s.exclusive_permille = 125; // ~1 in 8 rides the single-lane path
    }
    if reverse {
        kernels.reverse();
        specs.reverse();
    }
    for k in kernels {
        server.register_paper_kernel(k).expect("kernel maps");
    }
    for s in &specs {
        server.add_tenant(&s.name, s.weight).expect("unique tenant");
    }
    let mut trace = open_loop_trace(&specs, SEED, 1);
    if reverse {
        trace.reverse();
    }
    for req in trace {
        server.submit(req).expect("trace request is valid");
    }
    server.run_to_completion().expect("serving drains")
}

#[test]
fn every_batch_width_conserves_and_is_enumeration_order_independent() {
    // At every bit-sliced sweep width (64, 256, 512 lanes), on a mixed
    // exclusive/batchable trace: no request is lost, counters obey the
    // registered laws, the schedule is a pure function of the request
    // set, and the functional results are identical across widths.
    let mut hashes_by_width: Vec<Vec<(String, u64, u64)>> = Vec::new();
    for &width in &[64usize, 256, 512] {
        let fwd = serve_mixed_at_width(width, false);
        let rev = serve_mixed_at_width(width, true);
        assert_eq!(
            fwd.dispatches, rev.dispatches,
            "w{width}: schedule depends on enumeration order"
        );
        assert_eq!(
            fwd.completions, rev.completions,
            "w{width}: completions depend on enumeration order"
        );
        assert_eq!(
            freac::probe::to_counters_json(&fwd.probes),
            freac::probe::to_counters_json(&rev.probes),
            "w{width}: counters depend on enumeration order"
        );
        let submitted = fwd.probes.counter("serve.requests.submitted");
        assert_eq!(submitted, 128, "w{width}: full trace submitted");
        assert_eq!(
            fwd.completions.len() as u64 + fwd.sheds.len() as u64,
            submitted,
            "w{width}: conservation violated"
        );
        let violations = freac::probe::check(&fwd.probes);
        assert!(violations.is_empty(), "w{width}: {violations:?}");
        assert!(
            fwd.probes.counter("serve.lanes.occupied")
                <= fwd.probes.counter("serve.lanes.capacity"),
            "w{width}: batches exceeded offered lanes"
        );
        let mut hashes: Vec<(String, u64, u64)> = fwd
            .completions
            .iter()
            .map(|c| (c.tenant.clone(), c.seq, c.output_hash))
            .collect();
        hashes.sort();
        hashes_by_width.push(hashes);
    }
    for pair in hashes_by_width.windows(2) {
        assert_eq!(
            pair[0], pair[1],
            "output hashes diverged between sweep widths"
        );
    }
}

/// [`serve_mixed`] with each kernel pre-mapped at an explicit optimization
/// level and registered through [`Server::register_accelerator`] — no
/// environment mutation, so opt-on and opt-off servers coexist in-process.
fn serve_mixed_at_level(level: OptLevel) -> ServeReport {
    let cfg = ServeConfig {
        policy: SchedPolicy::WeightedFair,
        ..ServeConfig::default()
    };
    let tile = AcceleratorTile::new(cfg.tile_mccs).expect("tile is valid");
    let mut server = Server::new(cfg).expect("config is valid");
    for id in [KernelId::Aes, KernelId::Gemm] {
        let k = freac::kernels::kernel(id);
        let w = k.workload(1);
        let accel =
            Arc::new(Accelerator::map_with_level(&k.circuit(), &tile, level).expect("kernel maps"));
        server
            .register_accelerator(
                &id.name().to_lowercase(),
                accel,
                RequestProfile {
                    cycles_per_item: w.cycles_per_item,
                    read_words: w.read_words_per_item,
                    write_words: w.write_words_per_item,
                },
            )
            .expect("unique kernel");
    }
    let specs = mixed_specs();
    for s in &specs {
        server.add_tenant(&s.name, s.weight).expect("unique tenant");
    }
    for req in open_loop_trace(&specs, SEED, 1) {
        server.submit(req).expect("trace request is valid");
    }
    server.run_to_completion().expect("serving drains")
}

#[test]
fn serving_is_functionally_invariant_under_optimization() {
    // Opt-on and opt-off servers over the same trace: every request
    // completes with the same output hash, nothing extra is shed, and the
    // optimized server is never slower end to end (fewer fold steps per
    // invocation can only shorten the schedule).
    let raw = serve_mixed_at_level(OptLevel::Off);
    let opt = serve_mixed_at_level(OptLevel::Full);
    let key = |r: &ServeReport| {
        let mut h: Vec<(String, u64, u64)> = r
            .completions
            .iter()
            .map(|c| (c.tenant.clone(), c.seq, c.output_hash))
            .collect();
        h.sort();
        h
    };
    assert_eq!(key(&raw), key(&opt), "optimization changed served results");
    assert_eq!(raw.sheds.len(), opt.sheds.len(), "shedding diverged");
    assert!(
        opt.span_ps <= raw.span_ps,
        "optimized serving was slower: {} > {}",
        opt.span_ps,
        raw.span_ps
    );
}

#[test]
fn closed_loop_prefix_reports_carry_exact_hashes() {
    // The serve_offload shape: AES/GEMM tenants in a closed loop, one of
    // them issuing exclusive requests. Each prefix runs with follow-ups
    // flowing back into the server up to its bound, then drains while the
    // loop holds follow-ups back, so every report is taken with nothing
    // outstanding and deferred lanes still pending.
    let mut web = TenantSpec::new("web", "aes", 40);
    web.weight = 4;
    web.concurrency = 8;
    web.deadline_ps = Some(25_000_000);
    let mut train = TenantSpec::new("train", "gemm", 30);
    train.concurrency = 6;
    let mut etl = TenantSpec::new("etl", "aes", 30);
    etl.mix = vec![("aes".to_owned(), 1), ("gemm".to_owned(), 1)];
    etl.weight = 2;
    etl.concurrency = 6;
    etl.exclusive_permille = 100;
    let specs = vec![web, train, etl];
    let mut server = Server::new(ServeConfig::default()).expect("config is valid");
    server
        .register_paper_kernel(KernelId::Aes)
        .expect("aes maps");
    server
        .register_paper_kernel(KernelId::Gemm)
        .expect("gemm maps");
    for s in &specs {
        server.add_tenant(&s.name, s.weight).expect("unique tenant");
    }
    let mut clients = ClosedLoop::new(&specs, SEED);
    let mut next = clients.initial();
    let mut completed = 0;
    let mut prefixes = 0;
    while !next.is_empty() {
        for req in next.drain(..) {
            server.submit(req).expect("closed-loop request is valid");
        }
        let bound = server.now() + 3_000_000;
        server
            .run_until(bound, &mut |o| clients.on_outcome(o))
            .expect("prefix runs");
        server
            .run_until(Time::MAX, &mut |o| {
                next.extend(clients.on_outcome(o));
                Vec::new()
            })
            .expect("prefix drains");
        let report = server.report().expect("deferred sweeps succeed");
        for c in &report.completions {
            let net = server.kernel_netlist(&c.kernel).expect("registered");
            let cycles = server.kernel_func_cycles(&c.kernel).expect("registered");
            assert_eq!(
                c.output_hash,
                reference_hash(net, c.seed, cycles).expect("reference runs"),
                "completion ({}, {}) diverged",
                c.tenant,
                c.seq
            );
        }
        prefixes += 1;
        completed += report.completions.len();
    }
    assert!(prefixes >= 3, "only {prefixes} prefixes");
    assert_eq!(completed, 100);
    assert!(
        server
            .report()
            .expect("empty report")
            .probes
            .counter("serve.batches.single_lane")
            > 0,
        "exclusive requests must be part of the run"
    );
}

#[test]
fn exclusive_requests_are_never_coalesced() {
    let mut server = Server::new(ServeConfig::default()).expect("config");
    server
        .register_paper_kernel(KernelId::Aes)
        .expect("aes maps");
    server.add_tenant("t", 1).expect("tenant");
    for i in 0..12 {
        let mut r = Request::new("t", i, "aes", 0, i);
        r.exclusive = i % 3 == 0;
        server.submit(r).expect("submit");
    }
    let report = server.run_to_completion().expect("drains");
    for d in &report.dispatches {
        let any_exclusive = report
            .completions
            .iter()
            .any(|c| c.batch_id == d.batch_id && c.lanes == 1);
        if d.lanes > 1 {
            assert!(
                !any_exclusive,
                "exclusive request coalesced into batch {}",
                d.batch_id
            );
        }
    }
    // 4 exclusive requests → at least 4 single-lane dispatches.
    assert!(
        report.probes.counter("serve.batches.single_lane") >= 4,
        "exclusive requests must ride alone"
    );
}

#[test]
fn stolen_then_shed_requests_terminate_exactly_once() {
    // The steal/shed interaction hazard: a request stolen from a victim
    // shard and then shed by the thief must appear in exactly one shed
    // list — never in two, and never in any completion list. The victim
    // accounts it as `stolen`, the thief as `submitted` then `shed`, and
    // the merged ledger still balances.
    let mut victim = Server::new(ServeConfig {
        slices: 1,
        batching: false,
        ..ServeConfig::default()
    })
    .expect("victim config");
    victim
        .register_paper_kernel(KernelId::Aes)
        .expect("aes maps");
    victim.add_tenant("t", 1).expect("tenant");
    for i in 0..6 {
        victim
            .submit(Request::new("t", i, "aes", 0, i))
            .expect("submit");
    }
    // Admit (and start dispatching) the t=0 arrivals, then steal the four
    // newest queued requests — the cluster's steal_epoch sequence.
    let mut no_follow_ups = |_: &freac::serve::Outcome| Vec::new();
    victim
        .run_until(0, &mut no_follow_ups)
        .expect("prefix runs");
    let stolen = victim.steal_newest(4);
    assert_eq!(stolen.len(), 4, "four queued requests must be stealable");

    // The thief has a single-entry queue: the simultaneous stolen arrivals
    // overflow it, so some stolen requests are shed on arrival.
    let mut thief = Server::new(ServeConfig {
        slices: 1,
        batching: false,
        queue_depth: 1,
        ..ServeConfig::default()
    })
    .expect("thief config");
    thief
        .register_paper_kernel(KernelId::Aes)
        .expect("aes maps");
    thief.add_tenant("t", 1).expect("tenant");
    for req in stolen {
        thief.submit_stolen(req).expect("stolen resubmits");
    }
    let tr = thief.run_to_completion().expect("thief drains");
    let vr = victim.run_to_completion().expect("victim drains");

    // Victim ledger: two requests served locally, four migrated out,
    // nothing shed.
    assert_eq!(vr.probes.counter("serve.requests.stolen"), 4);
    assert_eq!(vr.completions.len(), 2);
    assert!(vr.sheds.is_empty(), "victim must not shed migrated work");

    // Thief ledger: the stolen requests are fresh submissions there, and
    // the one-deep queue forces at least one shed.
    assert_eq!(tr.probes.counter("serve.requests.stolen_in"), 4);
    assert_eq!(tr.probes.counter("serve.requests.submitted"), 4);
    assert_eq!(tr.completions.len() + tr.sheds.len(), 4);
    assert!(!tr.sheds.is_empty(), "overflow must shed on the thief");

    // Exactly-once termination across both shards: every identity shows
    // up in one terminal list, and a stolen-then-shed identity is in the
    // thief's shed list only.
    let mut terminal: Vec<(String, u64)> = Vec::new();
    for c in vr.completions.iter().chain(tr.completions.iter()) {
        terminal.push((c.tenant.clone(), c.seq));
    }
    for s in vr.sheds.iter().chain(tr.sheds.iter()) {
        terminal.push((s.request.tenant.clone(), s.request.seq));
    }
    terminal.sort();
    let expect: Vec<(String, u64)> = (0..6).map(|i| ("t".to_owned(), i)).collect();
    assert_eq!(terminal, expect, "a request terminated twice or never");
    for s in &tr.sheds {
        let seq = s.request.seq;
        assert!(
            !vr.sheds.iter().any(|v| v.request.seq == seq),
            "seq {seq} shed on both shards"
        );
        assert!(
            !vr.completions.iter().any(|v| v.seq == seq)
                && !tr.completions.iter().any(|v| v.seq == seq),
            "seq {seq} both shed and completed"
        );
    }

    // Counter laws hold per shard and on the merged ledger, where the
    // victim's `stolen` balances the thief's fresh `submitted`.
    for probes in [&vr.probes, &tr.probes] {
        let violations = freac::probe::check(probes);
        assert!(
            violations.is_empty(),
            "per-shard laws violated: {violations:?}"
        );
    }
    let mut merged = freac::probe::CounterRegistry::new();
    merged.merge(&vr.probes);
    merged.merge(&tr.probes);
    let violations = freac::probe::check(&merged);
    assert!(
        violations.is_empty(),
        "merged laws violated: {violations:?}"
    );
    assert_eq!(
        merged.counter("serve.requests.completed")
            + merged.counter("serve.requests.shed")
            + merged.counter("serve.requests.stolen"),
        merged.counter("serve.requests.submitted"),
        "merged conservation with migration broke"
    );
}

/// The mixed workload under overload (shallow queues, exclusives, one
/// deadline tenant), with tenants and kernels registered in name order
/// or reversed. Dense ids follow registration order, so the reversed
/// registration gives every tenant and kernel a different id.
fn overloaded_specs_and_kernels(reverse: bool) -> (Vec<TenantSpec>, Vec<KernelId>) {
    let mut specs = mixed_specs();
    specs[1].exclusive_permille = 250;
    specs[2].deadline_ps = Some(50_000);
    let mut kernels = vec![KernelId::Aes, KernelId::Gemm];
    if reverse {
        specs.reverse();
        kernels.reverse();
    }
    (specs, kernels)
}

fn overloaded_shard() -> ServeConfig {
    ServeConfig {
        slices: 2,
        queue_depth: 6,
        ..ServeConfig::default()
    }
}

fn serve_registered(reverse: bool) -> ServeReport {
    let (specs, kernels) = overloaded_specs_and_kernels(reverse);
    let mut server = Server::new(overloaded_shard()).expect("config is valid");
    for k in kernels {
        server.register_paper_kernel(k).expect("kernel maps");
    }
    for s in &specs {
        server.add_tenant(&s.name, s.weight).expect("unique tenant");
    }
    for req in open_loop_trace(&specs, SEED, 1) {
        server.submit(req).expect("trace request is valid");
    }
    server.run_to_completion().expect("serving drains")
}

fn cluster_registered(reverse: bool) -> ClusterReport {
    let (specs, kernels) = overloaded_specs_and_kernels(reverse);
    // Each kernel routes to its home shard, whose single-lane service
    // keeps the queue deep enough to steal from and shallow enough to
    // shed.
    let mut cluster = Cluster::new(ClusterConfig {
        shards: 4,
        shard: ServeConfig {
            slices: 1,
            queue_depth: 16,
            batching: false,
            ..ServeConfig::default()
        },
        route: freac::serve::RoutePolicy::KernelAffinity {
            spill_depth: usize::MAX,
        },
        steal: Some(StealConfig {
            imbalance: 2,
            max_per_epoch: 8,
        }),
        epoch_ps: 10_000,
        ..ClusterConfig::default()
    })
    .expect("config is valid");
    for k in kernels {
        cluster.register_paper_kernel(k).expect("kernel maps");
    }
    for s in &specs {
        cluster
            .add_tenant(&s.name, s.weight)
            .expect("unique tenant");
    }
    for req in open_loop_trace(&specs, SEED, 1) {
        cluster.submit(req).expect("trace request is valid");
    }
    cluster.run_to_completion().expect("serving drains")
}

#[test]
fn reverse_name_registration_is_byte_identical() {
    let fwd = serve_registered(false);
    let rev = serve_registered(true);
    assert!(
        !fwd.sheds.is_empty(),
        "the workload must shed to test sheds"
    );
    assert_eq!(fwd.completions, rev.completions);
    assert_eq!(fwd.sheds, rev.sheds);
    assert_eq!(fwd.dispatches, rev.dispatches);
    assert_eq!(fwd.tenants, rev.tenants);
    let names: Vec<&str> = fwd.tenants.iter().map(|t| t.name.as_str()).collect();
    assert_eq!(names, ["alpha", "beta", "delta", "gamma"], "name order");
    assert_eq!(
        freac::probe::to_counters_json(&fwd.probes),
        freac::probe::to_counters_json(&rev.probes)
    );

    let fwd = cluster_registered(false);
    let rev = cluster_registered(true);
    assert!(fwd.steals > 0, "the cluster workload must steal");
    assert!(!fwd.sheds.is_empty(), "the cluster workload must shed");
    assert_eq!(fwd.completions, rev.completions);
    assert_eq!(fwd.sheds, rev.sheds);
    assert_eq!(fwd.steals, rev.steals);
    assert_eq!(fwd.tenants, rev.tenants);
    for (f, r) in fwd.shards.iter().zip(&rev.shards) {
        assert_eq!(f.completions, r.completions);
        assert_eq!(f.sheds, r.sheds);
        assert_eq!(f.dispatches, r.dispatches);
        assert_eq!(f.tenants, r.tenants);
    }
    assert_eq!(
        freac::probe::to_counters_json(&fwd.probes),
        freac::probe::to_counters_json(&rev.probes)
    );
}

#[test]
fn stolen_identities_are_released_and_true_duplicates_are_refused() {
    let mut server = Server::new(ServeConfig {
        slices: 1,
        batching: false,
        ..ServeConfig::default()
    })
    .expect("config is valid");
    server
        .register_paper_kernel(KernelId::Gemm)
        .expect("gemm maps");
    server
        .register_paper_kernel(KernelId::Aes)
        .expect("aes maps");
    server.add_tenant("t", 1).expect("tenant");
    for i in 0..4 {
        server
            .submit(Request::new("t", i, "aes", 0, i))
            .expect("submit");
    }
    server
        .run_until(0, &mut |_: &freac::serve::Outcome| Vec::new())
        .expect("prefix runs");
    let stolen = server.steal_newest(1);
    assert_eq!(stolen.len(), 1);
    let req = stolen.into_iter().next().expect("one stolen request");
    // Its identity was released, so the same request resubmits ...
    server
        .submit(req.clone())
        .expect("released identity resubmits");
    // ... but only once: the resubmission is live again.
    assert!(matches!(
        server.submit(req),
        Err(ServeError::DuplicateRequest { .. })
    ));
    // A retry of a live identity is a distinct identity.
    let mut retry = Request::new("t", 0, "aes", 10, 0);
    retry.retries = 1;
    server.submit(retry).expect("a retry is a new identity");
    let report = server.run_to_completion().expect("drains");
    assert_eq!(report.completions.len() + report.sheds.len(), 5);

    // Cluster-wide: identities stay taken after stealing moved them
    // between shards. Everything routes to one home shard, whose
    // single-lane service keeps its queue deep enough to steal from.
    let mut cluster = Cluster::new(ClusterConfig {
        shards: 4,
        shard: ServeConfig {
            slices: 1,
            queue_depth: 256,
            batching: false,
            ..ServeConfig::default()
        },
        route: freac::serve::RoutePolicy::KernelAffinity {
            spill_depth: usize::MAX,
        },
        steal: Some(StealConfig {
            imbalance: 2,
            max_per_epoch: 64,
        }),
        epoch_ps: 10_000,
        ..ClusterConfig::default()
    })
    .expect("config is valid");
    cluster
        .register_paper_kernel(KernelId::Aes)
        .expect("aes maps");
    cluster.add_tenant("t", 1).expect("tenant");
    for i in 0..64 {
        cluster
            .submit(Request::new("t", i, "aes", 0, i))
            .expect("submit");
    }
    let report = cluster.run_to_completion().expect("drains");
    assert!(report.steals > 0, "the burst must trigger stealing");
    assert!(matches!(
        cluster.submit(Request::new("t", 5, "aes", 0, 5)),
        Err(ServeError::DuplicateRequest { .. })
    ));
}
