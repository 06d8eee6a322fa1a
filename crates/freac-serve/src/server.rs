//! The serving engine: a deterministic simulated-time event loop over
//! admission queues, the batch coalescer, and the slice scheduler.
//!
//! # Timeline semantics
//!
//! The engine advances a single simulated clock. Arrivals at or before the
//! moment a slice frees are admitted (and may shed, per policy) *before*
//! the dispatch decision at that moment; dispatches go to the
//! earliest-free slice, lowest index first.
//!
//! # Determinism
//!
//! Tenant and kernel names are interned to dense ids at registration;
//! tenants, queues, kernels, and slice residency are `Vec`s indexed by
//! id, and the name→id maps are consulted only where a request enters
//! ([`Server::submit`]). Ids follow registration order, so nothing orders
//! by them: requests compare by [`Request::order_key`] (arrival, tenant
//! *name*, seq, retries), the weighted-fair and steal tie-breaks compare
//! names, and reports list tenants in name order. Arrivals wait in a
//! sorted run with a min-heap beside it for out-of-order pushes; keys are
//! unique, so it pops in exactly the order one min-heap would. The
//! schedule, completion order, and counters are therefore a pure function
//! of the submitted request set — never of tenant enumeration,
//! registration, or submission order.
//!
//! # Latency model
//!
//! `latency = queue wait + reconfiguration + fold execution`. A dispatch
//! of `k` lanes executes in
//! `max(cycles_per_item × fold_steps × ceil(k / tiles),
//! scratchpad_service(k × words), 1)` tile-clock cycles: lanes run in
//! parallel across a slice's tiles in *waves* — a batch wider than the
//! partition's tile count queues extra waves of compute — while operand
//! service scales with total lanes; the roofline of `freac_core::exec`
//! at batch granularity. Batches may therefore be wider than the tile
//! count (up to [`MAX_BATCH_LANES`]): a wave of extra compute still
//! amortizes one reconfiguration and one scheduling decision.
//! Reconfiguration (quoted by [`freac_core::reconfig_cost`]) is paid when
//! a dispatch's kernel is not resident on the slice: a full flush+config
//! on first claim, config streaming only on a swap; way reclaim is paid
//! once at drain and reported as teardown.
//!
//! # Deferred functional execution
//!
//! Timing never reads a functional result: a dispatch's `exec_ps` comes
//! from the cost model alone, and only the report's
//! [`Completion::output_hash`] holds the outputs. So a dispatch does not
//! execute its riders; it appends `(completion slot, seed)` to its
//! kernel's pending lanes. A kernel's lanes run as one bit-sliced sweep
//! when [`MAX_BATCH_LANES`] are waiting, and [`Server::report`] sweeps
//! whatever is left. Every lane is a fresh-start invocation, so grouping
//! lanes across dispatches changes no output. The flush is deliberately
//! not tied to [`Server::run_until`] returning: a cluster pumps shards
//! in short epochs, and flushing per epoch would bring back the narrow
//! sweeps this avoids.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use freac_core::scratchpad::ScratchpadModel;
use freac_core::{
    reconfig_cost, way_conversion_charge, Accelerator, AcceleratorTile, CoherenceStats,
    HandoffMode, ReconfigCost, SlicePartition,
};
use freac_kernels::{kernel, Kernel, KernelId};
use freac_netlist::{compile, ExecPlan, Netlist, BATCH_LANES, MAX_BATCH_LANES};
use freac_probe::CounterRegistry;
use freac_sim::{ClockDomain, Time};

use crate::batch::take_batch;
use crate::error::ServeError;
use crate::inputs::{hash_outputs, synth_inputs};
use crate::pending::{next_id, Pending, PendingQueue};
use crate::queue::{AdmissionQueue, AdmitResult, ShedPolicy};
use crate::request::{Completion, Outcome, Request, Served, Shed, ShedReason};
use crate::sched::{pick, SchedPolicy, TenantState};
use crate::tlb::{TenantTlb, TlbSegment};

/// Functional-execution depth: output hashes are computed over this many
/// original circuit cycles at most. Simulated timing always charges the
/// full `cycles_per_item`; capping only the host-side functional run keeps
/// long kernels affordable while every consumer (engine, verifier, oracle)
/// hashes the same depth.
pub const FUNC_CYCLES_CAP: u64 = 4;

/// Per-request cost profile of a registered kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestProfile {
    /// Original circuit cycles one invocation runs.
    pub cycles_per_item: u64,
    /// Operand words read from the scratchpad per invocation.
    pub read_words: u64,
    /// Result words written per invocation.
    pub write_words: u64,
}

/// Server configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    /// Way split of every compute slice.
    pub partition: SlicePartition,
    /// Compute slices the scheduler may claim (1..=8).
    pub slices: usize,
    /// Dirty fraction assumed when flushing claimed ways.
    pub dirty_fraction: f64,
    /// MCCs per accelerator tile (one tile executes one lane).
    pub tile_mccs: usize,
    /// Per-kernel admission-queue bound.
    pub queue_depth: usize,
    /// What to do when a queue is full.
    pub shed: ShedPolicy,
    /// Anchor-selection policy.
    pub policy: SchedPolicy,
    /// Whether the batch coalescer runs (off = single-lane everything,
    /// the baseline the `serve` bench compares against).
    pub batching: bool,
    /// Upper bound on lanes per dispatch (further capped by
    /// [`MAX_BATCH_LANES`], the widest bit-sliced sweep). Batches wider
    /// than the partition's tile count execute in compute waves rather
    /// than being truncated.
    pub max_lanes: usize,
    /// How way handoffs are charged: the conservative whole-claim flush,
    /// or the invalidation-based coherence protocol (targeted
    /// back-invalidations + writeback pulls, overlapped). Coherent mode
    /// also exports its protocol traffic under `cache.coh.*`.
    pub handoff: HandoffMode,
}

impl Default for ServeConfig {
    /// Four end-to-end slices, weighted-fair scheduling, batching on.
    fn default() -> Self {
        ServeConfig {
            partition: SlicePartition::end_to_end(),
            slices: 4,
            dirty_fraction: 0.5,
            tile_mccs: 1,
            queue_depth: 64,
            shed: ShedPolicy::RejectNew,
            policy: SchedPolicy::WeightedFair,
            batching: true,
            max_lanes: BATCH_LANES,
            handoff: HandoffMode::ConservativeFlush,
        }
    }
}

impl ServeConfig {
    fn validate(&self) -> Result<(), ServeError> {
        if !(1..=8).contains(&self.slices) {
            return Err(ServeError::BadConfig(format!(
                "slices must be 1..=8, got {}",
                self.slices
            )));
        }
        if !(0.0..=1.0).contains(&self.dirty_fraction) {
            return Err(ServeError::BadConfig(format!(
                "dirty_fraction must be in [0, 1], got {}",
                self.dirty_fraction
            )));
        }
        if self.queue_depth == 0 {
            return Err(ServeError::BadConfig("queue_depth must be >= 1".into()));
        }
        if self.max_lanes == 0 {
            return Err(ServeError::BadConfig("max_lanes must be >= 1".into()));
        }
        if let HandoffMode::Coherent { residency } = self.handoff {
            if !(0.0..=1.0).contains(&residency) {
                return Err(ServeError::BadConfig(format!(
                    "coherent handoff residency must be in [0, 1], got {residency}"
                )));
            }
        }
        Ok(())
    }
}

/// A registered kernel with everything a dispatch needs precomputed.
struct ServedKernel {
    /// Registered name (dispatch records and steal tie-breaks).
    name: String,
    accel: Arc<Accelerator>,
    /// Compiled batch plan over the mapped netlist (bit-sliced, executed
    /// at whatever width the dispatch needs via
    /// [`ExecPlan::run_batch_cycle_any`]). Shared: plan execution is
    /// `&self`, so a cluster compiles each kernel once and every shard
    /// runs the same `Arc`.
    plan: Arc<ExecPlan>,
    profile: RequestProfile,
    /// Functional depth actually executed for hashing.
    func_cycles: u64,
    /// `cycles_per_item × fold steps` — compute cycles per wave.
    compute_cycles: u64,
    /// Reconfiguration quote for this accelerator on the configured
    /// partition.
    cost: ReconfigCost,
    /// Lane capacity per dispatch.
    lanes_cap: usize,
    /// Tiles the partition hosts: one wave runs this many lanes at once.
    tiles: usize,
    /// Riders whose functional run is still pending, as `(completion
    /// slot, seed)`: swept together once [`MAX_BATCH_LANES`] wait, or by
    /// [`Server::report`].
    deferred: Vec<(usize, u64)>,
}

impl ServedKernel {
    /// Runs every deferred lane in one bit-sliced sweep (the narrowest
    /// width that fits) and writes each lane's output hash into its
    /// completion slot.
    fn flush_deferred(&mut self, hashes: &mut [u64]) -> Result<(), ServeError> {
        if self.deferred.is_empty() {
            return Ok(());
        }
        let net = self.accel.netlist();
        let lanes: Vec<Vec<freac_netlist::Value>> = self
            .deferred
            .iter()
            .map(|&(_, seed)| synth_inputs(net, seed))
            .collect();
        let mut state = self.plan.new_batch_state_for(lanes.len());
        let mut out = Vec::new();
        for _ in 0..self.func_cycles {
            self.plan
                .run_batch_cycle_any(&mut state, &lanes, &mut out)?;
        }
        for (&(slot, _), o) in self.deferred.iter().zip(&out) {
            hashes[slot] = hash_outputs(o);
        }
        self.deferred.clear();
        Ok(())
    }
}

/// One compute slice's scheduling state.
struct SliceState {
    /// Id of the kernel whose bitstream is resident.
    resident: Option<usize>,
    free_at: Time,
    busy_ps: Time,
    reconfigs: u64,
    /// High-water marks already exported to counters (so repeated `run`
    /// calls add deltas, keeping counter merges additive).
    reported_busy_ps: Time,
    reported_span_ps: Time,
}

/// A tenant's `serve.tenant.<name>.*` counter names, built once at
/// registration so no event formats a key.
struct TenantKeys {
    submitted: String,
    stolen: String,
    stolen_in: String,
    tlb_faults: String,
    shed: String,
    completed: String,
    reconfig_ps: String,
    latency_ps: String,
}

impl TenantKeys {
    fn new(name: &str) -> Self {
        let key = |metric: &str| format!("serve.tenant.{name}.{metric}");
        TenantKeys {
            submitted: key("submitted"),
            stolen: key("stolen"),
            stolen_in: key("stolen_in"),
            tlb_faults: key("tlb_faults"),
            shed: key("shed"),
            completed: key("completed"),
            reconfig_ps: key("reconfig_ps"),
            latency_ps: key("latency_ps"),
        }
    }
}

/// One dispatch in the schedule log — the object the determinism oracle
/// compares across tenant enumeration orders.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DispatchRecord {
    /// Monotonic dispatch id.
    pub batch_id: u64,
    /// Dispatch time (start of reconfiguration, if any).
    pub at_ps: Time,
    /// Executing slice.
    pub slice: usize,
    /// Kernel that ran.
    pub kernel: String,
    /// Lanes occupied.
    pub lanes: usize,
    /// Whether the slice had to reconfigure.
    pub reconfigured: bool,
    /// `(tenant, seq, retries)` of every rider, lane order.
    pub requests: Vec<(String, u64, u32)>,
}

/// Per-tenant outcome summary with interpolated latency quantiles.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSummary {
    /// Tenant name.
    pub name: String,
    /// Fair-share weight.
    pub weight: u64,
    /// Requests submitted (including retries). On a cluster shard a
    /// stolen request counts on the shard that took it, not its victim.
    pub submitted: u64,
    /// Requests completed.
    pub completed: u64,
    /// Requests shed.
    pub shed: u64,
    /// Median completion latency, ps.
    pub p50_ps: f64,
    /// 95th-percentile latency, ps.
    pub p95_ps: f64,
    /// 99th-percentile latency, ps.
    pub p99_ps: f64,
    /// Mean latency, ps.
    pub mean_ps: f64,
}

/// Per-tenant summaries in name order, read from the
/// `serve.tenant.<name>.*` entries of `probes`. Each tenant is given as
/// `(name, weight, router_sheds)`, where `router_sheds` counts arrivals a
/// cluster router shed against its budget before any shard saw them (0
/// for a plain server).
pub(crate) fn tenant_summaries<'a>(
    tenants: impl IntoIterator<Item = (&'a str, u64, u64)>,
    probes: &CounterRegistry,
) -> Vec<TenantSummary> {
    let mut out: Vec<TenantSummary> = tenants
        .into_iter()
        .map(|(name, weight, router_sheds)| {
            let keys = TenantKeys::new(name);
            let c = |key: &str| probes.counter(key);
            let hist = probes.histogram(&keys.latency_ps);
            let q = |p: f64| hist.and_then(|h| h.quantile(p)).unwrap_or(0.0);
            TenantSummary {
                name: name.to_owned(),
                weight,
                // A steal is a fresh submission on the thief, so
                // `submitted` counts a migrated request on both shards;
                // subtracting `stolen` counts it once, where it
                // terminated. Router sheds never reached a shard.
                submitted: c(&keys.submitted) - c(&keys.stolen) + router_sheds,
                completed: c(&keys.completed),
                shed: c(&keys.shed) + router_sheds,
                p50_ps: q(0.5),
                p95_ps: q(0.95),
                p99_ps: q(0.99),
                mean_ps: hist.map_or(0.0, freac_probe::Histogram::mean),
            }
        })
        .collect();
    out.sort_by(|a, b| a.name.cmp(&b.name));
    out
}

/// The result of draining the server. The event logs cover everything
/// since the previous report; the probe counters are cumulative.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Completions, ordered by `(done_ps, tenant, seq)`.
    pub completions: Vec<Completion>,
    /// Sheds, in shed order.
    pub sheds: Vec<Shed>,
    /// The schedule, in dispatch order.
    pub dispatches: Vec<DispatchRecord>,
    /// Last completion time (0 when nothing completed).
    pub span_ps: Time,
    /// Way-reclaim time paid at drain for still-resident accelerators.
    pub teardown_ps: Time,
    /// All serving counters/gauges/histograms (`serve.*`).
    pub probes: CounterRegistry,
    /// Per-tenant summaries, name order.
    pub tenants: Vec<TenantSummary>,
}

impl ServeReport {
    /// Sustained completion throughput in requests per simulated second.
    pub fn throughput_rps(&self) -> f64 {
        if self.span_ps == 0 {
            0.0
        } else {
            self.completions.len() as f64 * 1e12 / self.span_ps as f64
        }
    }

    /// Summary of one tenant.
    pub fn tenant(&self, name: &str) -> Option<&TenantSummary> {
        self.tenants.iter().find(|t| t.name == name)
    }
}

/// The multi-tenant request server.
pub struct Server {
    cfg: ServeConfig,
    clock: ClockDomain,
    spad: ScratchpadModel,
    tlb: TenantTlb,
    coh: CoherenceStats,
    /// Name → dense id, consulted only where requests enter.
    kernel_ids: HashMap<String, u32>,
    tenant_ids: HashMap<String, u32>,
    /// Indexed by kernel id.
    kernels: Vec<ServedKernel>,
    queues: Vec<AdmissionQueue<Pending>>,
    /// Indexed by tenant id.
    tenants: Vec<TenantState>,
    tenant_keys: Vec<TenantKeys>,
    pending: PendingQueue,
    /// `(tenant id, seq, retries)` of every live submission.
    submitted_ids: HashSet<(u32, u64, u32)>,
    slices: Vec<SliceState>,
    probes: CounterRegistry,
    queued: usize,
    now: Time,
    batch_seq: u64,
    /// Terminal events since the last report, in emission order. One log
    /// of [`Outcome`]s (not separate completion and shed logs) so a
    /// cluster can hand its run hook references instead of clones.
    outcomes: Vec<Outcome>,
    /// Output hash of each completion in `outcomes`, in log order. A slot
    /// is written when its kernel's deferred lanes flush, and every slot
    /// is written before [`Server::report`] reads it.
    hashes: Vec<u64>,
    dispatches: Vec<DispatchRecord>,
}

impl Server {
    /// A server with no tenants or kernels yet.
    ///
    /// # Errors
    ///
    /// Rejects invalid configurations (slice count, queue depth, lane cap,
    /// dirty fraction) and tile sizes the partition cannot host.
    pub fn new(cfg: ServeConfig) -> Result<Self, ServeError> {
        cfg.validate()?;
        let tile = AcceleratorTile::new(cfg.tile_mccs)?;
        if cfg.partition.mccs() < tile.mccs() {
            return Err(ServeError::BadConfig(format!(
                "partition provides {} MCCs but one tile needs {}",
                cfg.partition.mccs(),
                tile.mccs()
            )));
        }
        let clock = tile.clock();
        let service_ways = cfg
            .partition
            .scratchpad_ways()
            .max(cfg.partition.cache_ways().max(1));
        let slices = (0..cfg.slices)
            .map(|_| SliceState {
                resident: None,
                free_at: 0,
                busy_ps: 0,
                reconfigs: 0,
                reported_busy_ps: 0,
                reported_span_ps: 0,
            })
            .collect();
        Ok(Server {
            cfg,
            clock,
            spad: ScratchpadModel::new(service_ways, clock),
            tlb: TenantTlb::new(
                cfg.partition.scratchpad_bytes(),
                std::iter::empty::<String>(),
            ),
            coh: CoherenceStats::default(),
            kernel_ids: HashMap::new(),
            tenant_ids: HashMap::new(),
            kernels: Vec::new(),
            queues: Vec::new(),
            tenants: Vec::new(),
            tenant_keys: Vec::new(),
            pending: PendingQueue::default(),
            submitted_ids: HashSet::new(),
            slices,
            probes: CounterRegistry::new(),
            queued: 0,
            now: 0,
            batch_seq: 0,
            outcomes: Vec::new(),
            hashes: Vec::new(),
            dispatches: Vec::new(),
        })
    }

    /// The configuration this server runs under.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// Registers `circuit` under `name`: maps it onto the configured tile
    /// and precomputes the batch plan and reconfiguration quote.
    ///
    /// # Errors
    ///
    /// Rejects duplicate names and propagates mapping failures.
    pub fn register_kernel(
        &mut self,
        name: &str,
        circuit: &Netlist,
        profile: RequestProfile,
    ) -> Result<(), ServeError> {
        let tile = AcceleratorTile::new(self.cfg.tile_mccs)?;
        let accel = Arc::new(Accelerator::map(circuit, &tile)?);
        self.register_accelerator(name, accel, profile)
    }

    /// Registers an already-mapped accelerator (sharing one mapping across
    /// servers, e.g. the batching-on/off comparison in the bench).
    ///
    /// # Errors
    ///
    /// Rejects duplicate names, tile mismatches, and plan-compile
    /// failures.
    pub fn register_accelerator(
        &mut self,
        name: &str,
        accel: Arc<Accelerator>,
        profile: RequestProfile,
    ) -> Result<(), ServeError> {
        let plan = Arc::new(compile(accel.netlist())?);
        self.register_prepared(name, accel, plan, profile)
    }

    /// Registers an accelerator with an already-compiled batch plan. The
    /// cluster compiles each kernel's plan exactly once and shares it
    /// across every shard (plan execution is `&self`), so building a shard
    /// costs no recompilation.
    ///
    /// # Errors
    ///
    /// Rejects duplicate names and tile mismatches.
    pub(crate) fn register_prepared(
        &mut self,
        name: &str,
        accel: Arc<Accelerator>,
        plan: Arc<ExecPlan>,
        profile: RequestProfile,
    ) -> Result<(), ServeError> {
        if self.kernel_ids.contains_key(name) {
            return Err(ServeError::DuplicateKernel(name.to_owned()));
        }
        if accel.tile().mccs() != self.cfg.tile_mccs {
            return Err(ServeError::BadConfig(format!(
                "accelerator '{name}' was mapped for {} MCCs, server tiles have {}",
                accel.tile().mccs(),
                self.cfg.tile_mccs
            )));
        }
        let steps = accel.fold_cycles() as u64;
        let cost = reconfig_cost(
            &accel,
            &self.cfg.partition,
            self.cfg.dirty_fraction,
            self.cfg.handoff,
        )?;
        let tiles = (self.cfg.partition.mccs() / self.cfg.tile_mccs).max(1);
        // The bit-sliced engine bounds lanes, not the tile count: a batch
        // wider than the tiles runs extra compute waves instead of being
        // truncated (the old `.min(tiles)` clamp capped every partition
        // at ≤32 lanes and made `max_lanes` above that unreachable).
        let lanes_cap = self.cfg.max_lanes.min(MAX_BATCH_LANES);
        let cycles = profile.cycles_per_item.max(1);
        let id = next_id(self.kernels.len())?;
        self.kernel_ids.insert(name.to_owned(), id);
        self.kernels.push(ServedKernel {
            name: name.to_owned(),
            plan,
            profile,
            func_cycles: cycles.min(FUNC_CYCLES_CAP),
            compute_cycles: cycles.saturating_mul(steps),
            cost,
            lanes_cap,
            tiles,
            accel,
            deferred: Vec::new(),
        });
        self.queues.push(AdmissionQueue::new(self.cfg.queue_depth));
        Ok(())
    }

    /// Registers one of the paper's benchmark kernels under its lowercase
    /// figure name (`"aes"`, `"gemm"`, …), deriving the request profile
    /// from the kernel's unit workload.
    ///
    /// # Errors
    ///
    /// Propagates mapping failures.
    pub fn register_paper_kernel(&mut self, id: KernelId) -> Result<(), ServeError> {
        let k: Box<dyn Kernel> = kernel(id);
        let w = k.workload(1);
        self.register_kernel(
            &id.name().to_lowercase(),
            &k.circuit(),
            RequestProfile {
                cycles_per_item: w.cycles_per_item,
                read_words: w.read_words_per_item,
                write_words: w.write_words_per_item,
            },
        )
    }

    /// Adds a tenant with a fair-share `weight` (>= 1).
    ///
    /// # Errors
    ///
    /// Rejects duplicate names and zero weights.
    pub fn add_tenant(&mut self, name: &str, weight: u64) -> Result<(), ServeError> {
        if weight == 0 {
            return Err(ServeError::BadConfig(format!(
                "tenant '{name}' weight must be >= 1"
            )));
        }
        if self.tenant_ids.contains_key(name) {
            return Err(ServeError::DuplicateTenant(name.to_owned()));
        }
        let id = next_id(self.tenants.len())?;
        self.tenant_ids.insert(name.to_owned(), id);
        self.tenants.push(TenantState::new(name, weight));
        self.tenant_keys.push(TenantKeys::new(name));
        self.rebuild_tlb();
        Ok(())
    }

    /// Rebuilds the per-tenant scratchpad layout: an equal split of the
    /// current partition's scratchpad bytes over the sorted tenant names.
    fn rebuild_tlb(&mut self) {
        self.tlb = TenantTlb::new(
            self.cfg.partition.scratchpad_bytes(),
            self.tenants.iter().map(|t| t.name.as_str()),
        );
    }

    /// The registered kernel called `name`.
    fn kernel(&self, name: &str) -> Option<&ServedKernel> {
        self.kernel_ids
            .get(name)
            .map(|&id| &self.kernels[id as usize])
    }

    /// Resolves a request's tenant and kernel names to their ids.
    ///
    /// # Errors
    ///
    /// Rejects unknown tenants and kernels.
    fn intern(&self, req: Request) -> Result<Pending, ServeError> {
        let Some(&tenant) = self.tenant_ids.get(&req.tenant) else {
            return Err(ServeError::UnknownTenant(req.tenant));
        };
        let Some(&kernel) = self.kernel_ids.get(&req.kernel) else {
            return Err(ServeError::UnknownKernel(req.kernel));
        };
        Ok(Pending {
            tenant,
            kernel,
            req,
        })
    }

    /// The scratchpad segment a tenant owns under the current partition
    /// (what its `spad_addr` declarations are checked against).
    pub fn tenant_segment(&self, name: &str) -> Option<TlbSegment> {
        self.tlb.segment(name)
    }

    /// Coherence-protocol traffic charged so far (all zeros under
    /// [`HandoffMode::ConservativeFlush`]).
    pub fn coherence_stats(&self) -> CoherenceStats {
        self.coh
    }

    /// The mapped netlist of a registered kernel (verification replays
    /// reference execution against it).
    pub fn kernel_netlist(&self, name: &str) -> Option<&Netlist> {
        self.kernel(name).map(|k| k.accel.netlist())
    }

    /// Functional hashing depth of a registered kernel.
    pub fn kernel_func_cycles(&self, name: &str) -> Option<u64> {
        self.kernel(name).map(|k| k.func_cycles)
    }

    /// Submits a request for the next [`Server::run`].
    ///
    /// # Errors
    ///
    /// Rejects unknown tenants/kernels and duplicate
    /// `(tenant, seq, retries)` identities.
    pub fn submit(&mut self, req: Request) -> Result<(), ServeError> {
        let p = self.intern(req)?;
        self.submit_pending(p)
    }

    /// Submits an already-interned request. A cluster interns once at its
    /// own boundary and hands shards the ids directly: every shard
    /// registers the same kernels and tenants in the same order, so the
    /// ids agree.
    ///
    /// # Errors
    ///
    /// Rejects duplicate `(tenant, seq, retries)` identities.
    pub(crate) fn submit_pending(&mut self, p: Pending) -> Result<(), ServeError> {
        debug_assert_eq!(self.tenants[p.tenant as usize].name, p.req.tenant);
        debug_assert_eq!(self.kernels[p.kernel as usize].name, p.req.kernel);
        if !self
            .submitted_ids
            .insert((p.tenant, p.req.seq, p.req.retries))
        {
            return Err(ServeError::DuplicateRequest {
                tenant: p.req.tenant,
                seq: p.req.seq,
                retries: p.req.retries,
            });
        }
        self.probes.inc("serve.requests.submitted");
        self.probes
            .inc(&self.tenant_keys[p.tenant as usize].submitted);
        if p.req.retries > 0 {
            self.probes.inc("serve.requests.retried");
        }
        self.pending.push(p);
        Ok(())
    }

    /// Drains everything submitted, with no closed-loop reaction.
    ///
    /// # Errors
    ///
    /// See [`Server::run`].
    pub fn run_to_completion(&mut self) -> Result<ServeReport, ServeError> {
        self.run(|_| Vec::new())
    }

    /// Runs the serving loop until queues and pending arrivals drain.
    ///
    /// `hook` observes every terminal [`Outcome`] in deterministic order
    /// and may return follow-up requests — the closed-loop driver's next
    /// invocation after a completion, or a retry after a shed. Follow-up
    /// arrivals are clamped to the outcome's time (strictly after it for
    /// sheds, so a full queue cannot live-lock the clock); a hook that
    /// eventually stops issuing keeps the loop finite.
    ///
    /// # Errors
    ///
    /// Propagates invalid follow-up submissions and functional-execution
    /// failures.
    pub fn run<F>(&mut self, mut hook: F) -> Result<ServeReport, ServeError>
    where
        F: FnMut(&Outcome) -> Vec<Request>,
    {
        self.run_until(Time::MAX, &mut hook)?;
        self.report()
    }

    /// Runs the serving loop, but only through events at or before
    /// `until`: the next admission or dispatch instant past the bound
    /// leaves the server parked with its clock unadvanced, so a cluster
    /// can pump shards in lock-stepped epochs. Driving the loop to
    /// successively larger bounds replays exactly the event sequence one
    /// unbounded [`Server::run`] would produce (the schedule is a pure
    /// function of the request set, and the bound only decides how much
    /// prefix executes per call).
    ///
    /// # Errors
    ///
    /// See [`Server::run`].
    pub fn run_until<F>(&mut self, until: Time, hook: &mut F) -> Result<(), ServeError>
    where
        F: FnMut(&Outcome) -> Vec<Request>,
    {
        loop {
            if self.queued == 0 {
                let Some(next) = self.pending.peek() else {
                    break;
                };
                let t = next.req.arrival_ps;
                if t > until {
                    break;
                }
                self.admit_until(t, hook)?;
                self.now = self.now.max(t);
                continue;
            }
            let (si, free_at) = self
                .slices
                .iter()
                .enumerate()
                .min_by_key(|(i, s)| (s.free_at, *i))
                .map(|(i, s)| (i, s.free_at))
                .expect("at least one slice");
            let t = self.now.max(free_at);
            if t > until {
                break;
            }
            // Arrivals at or before the dispatch instant were already
            // there when the slice freed; they join (and may shed) first.
            self.admit_until(t, hook)?;
            self.now = t;
            if self.queued > 0 {
                self.dispatch(si, t, hook)?;
            }
        }
        Ok(())
    }

    /// Terminal events logged since the last report.
    pub(crate) fn outcome_count(&self) -> usize {
        self.outcomes.len()
    }

    /// The `i`-th terminal event logged since the last report.
    pub(crate) fn outcome(&self, i: usize) -> &Outcome {
        &self.outcomes[i]
    }

    /// Current simulated time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Requests sitting in admission queues right now.
    pub fn queued(&self) -> usize {
        self.queued
    }

    /// Queued plus not-yet-admitted requests — the router's load signal.
    pub fn backlog(&self) -> usize {
        self.queued + self.pending.len()
    }

    /// Simulated time of the next admission or dispatch this server would
    /// process, or `None` when fully drained. A cluster uses this to skip
    /// idle epochs without perturbing the event order.
    pub fn next_event_ps(&self) -> Option<Time> {
        let arrival = self.pending.peek().map(|p| p.req.arrival_ps);
        if self.queued == 0 {
            return arrival;
        }
        let free_at = self
            .slices
            .iter()
            .map(|s| s.free_at)
            .min()
            .expect("at least one slice");
        let dispatch = self.now.max(free_at);
        Some(arrival.map_or(dispatch, |a| a.min(dispatch)))
    }

    /// Removes up to `max` requests from the back of the deepest admission
    /// queue — the work-stealing victim's half of a steal. The newest
    /// arrivals go first so head-of-line service order is disturbed least;
    /// ties between equally deep queues resolve to the lexicographically
    /// smallest kernel name. Stolen requests stop counting against this
    /// server (`completed + shed + stolen == submitted` stays balanced)
    /// and their identities are released for resubmission on the thief.
    pub fn steal_newest(&mut self, max: usize) -> Vec<Request> {
        self.steal_newest_pending(max)
            .into_iter()
            .map(|p| p.req)
            .collect()
    }

    /// [`Server::steal_newest`] keeping the interned ids, for a cluster
    /// that resubmits the requests on another shard.
    pub(crate) fn steal_newest_pending(&mut self, max: usize) -> Vec<Pending> {
        let mut out = Vec::new();
        while out.len() < max {
            // Deepest queue; equal depths go to the smallest kernel name.
            let victim = self
                .queues
                .iter()
                .enumerate()
                .filter(|(_, q)| !q.is_empty())
                .max_by(|(a, qa), (b, qb)| {
                    qa.len()
                        .cmp(&qb.len())
                        .then_with(|| self.kernels[*b].name.cmp(&self.kernels[*a].name))
                });
            let Some((k, _)) = victim else {
                break;
            };
            let p = self.queues[k]
                .pop_newest()
                .expect("victim queue is non-empty");
            self.queued -= 1;
            self.submitted_ids
                .remove(&(p.tenant, p.req.seq, p.req.retries));
            self.probes.inc("serve.requests.stolen");
            self.probes.inc(&self.tenant_keys[p.tenant as usize].stolen);
            out.push(p);
        }
        out
    }

    /// Submits a request stolen from another shard: a normal submission
    /// (it counts as submitted here, balancing the victim's `stolen`)
    /// plus `stolen_in` counters so cross-shard migration stays visible.
    ///
    /// # Errors
    ///
    /// See [`Server::submit`].
    pub fn submit_stolen(&mut self, req: Request) -> Result<(), ServeError> {
        let p = self.intern(req)?;
        self.submit_stolen_pending(p)
    }

    /// [`Server::submit_stolen`] for an already-interned request.
    pub(crate) fn submit_stolen_pending(&mut self, p: Pending) -> Result<(), ServeError> {
        let tenant = p.tenant as usize;
        self.submit_pending(p)?;
        self.probes.inc("serve.requests.stolen_in");
        self.probes.inc(&self.tenant_keys[tenant].stolen_in);
        Ok(())
    }

    /// Re-splits every slice's ways to `partition` at simulated time `at`
    /// — the elastic autoscaling step. The conversion is charged through
    /// [`freac_core::way_conversion_charge`] under the configured
    /// [`HandoffMode`] (blind flush, or targeted invalidations with the
    /// protocol traffic exported under `cache.coh.*`): each slice becomes
    /// free no
    /// earlier than `max(free_at, at) + conversion`, residents are evicted
    /// (the LUT fabric was rebuilt), every kernel's reconfiguration quote,
    /// wave width, and the scratchpad service model are requoted against
    /// the new split. Returns the per-slice conversion time.
    ///
    /// # Errors
    ///
    /// Rejects partitions too small for the configured tile.
    pub fn rescale(&mut self, partition: SlicePartition, at: Time) -> Result<Time, ServeError> {
        let tile = AcceleratorTile::new(self.cfg.tile_mccs)?;
        if partition.mccs() < tile.mccs() {
            return Err(ServeError::BadConfig(format!(
                "partition provides {} MCCs but one tile needs {}",
                partition.mccs(),
                tile.mccs()
            )));
        }
        let charge = way_conversion_charge(
            &self.cfg.partition,
            &partition,
            self.cfg.dirty_fraction,
            self.cfg.handoff,
        );
        let conversion_ps = charge.stall_ps;
        if self.cfg.handoff.is_coherent() {
            // Coherent handoffs quote real protocol traffic; conservative
            // ones are a blind flush with nothing to itemize, so the
            // `cache.coh.*` export stays silent (and committed baselines
            // stay byte-stable) unless coherence is on.
            let mut delta = CoherenceStats::default();
            charge.accumulate_into(&mut delta);
            self.coh.merge(&delta);
            delta.export_into(&mut self.probes, "cache.coh");
        }
        let tiles = (partition.mccs() / self.cfg.tile_mccs).max(1);
        for k in &mut self.kernels {
            k.cost = reconfig_cost(
                &k.accel,
                &partition,
                self.cfg.dirty_fraction,
                self.cfg.handoff,
            )?;
            k.tiles = tiles;
        }
        let service_ways = partition
            .scratchpad_ways()
            .max(partition.cache_ways().max(1));
        self.spad = ScratchpadModel::new(service_ways, self.clock);
        self.cfg.partition = partition;
        self.rebuild_tlb();
        for s in &mut self.slices {
            // The conversion occupies the slice but is not service time,
            // so `free_at` advances while `busy_ps` does not — the
            // busy <= span probe law survives every rescale.
            s.resident = None;
            s.free_at = s.free_at.max(at).saturating_add(conversion_ps);
        }
        self.probes.inc("serve.rescales");
        self.probes
            .add("serve.rescale.conversion_ps", conversion_ps);
        Ok(conversion_ps)
    }

    /// Admits every pending arrival at or before `t`, applying the shed
    /// policy and feeding shed outcomes to the hook.
    fn admit_until<F>(&mut self, t: Time, hook: &mut F) -> Result<(), ServeError>
    where
        F: FnMut(&Outcome) -> Vec<Request>,
    {
        while let Some(p) = self.pending.peek() {
            if p.req.arrival_ps > t {
                break;
            }
            let p = self.pending.pop().expect("peeked");
            let at = p.req.arrival_ps;
            // The TLB guards the scratchpad before the queue does: a
            // declared address outside the tenant's segment faults here,
            // deterministically, and never reaches a slice.
            if let Some(addr) = p.req.spad_addr {
                self.probes.inc("serve.tlb.accesses");
                if self.tlb.translate(&p.req.tenant, addr).is_some() {
                    self.probes.inc("serve.tlb.hits");
                } else {
                    self.probes.inc("serve.tlb.misses");
                    self.probes.inc("serve.tlb.faults");
                    self.probes
                        .inc(&self.tenant_keys[p.tenant as usize].tlb_faults);
                    self.shed(p, at, ShedReason::TlbFault, hook)?;
                    continue;
                }
            }
            let queue = &mut self.queues[p.kernel as usize];
            let result = queue.admit(p, self.cfg.shed);
            let depth = queue.len();
            match result {
                AdmitResult::Admitted => {
                    self.queued += 1;
                    self.note_admission(depth);
                }
                AdmitResult::Displaced(victim) => {
                    self.note_admission(depth);
                    self.shed(victim, at, ShedReason::Displaced, hook)?;
                }
                AdmitResult::Rejected(bounced) => {
                    self.shed(bounced, at, ShedReason::QueueFull, hook)?;
                }
            }
        }
        Ok(())
    }

    fn note_admission(&mut self, depth: usize) {
        self.probes.inc("serve.requests.admitted");
        self.probes.gauge_max("serve.queue.depth_hw", depth as f64);
    }

    fn shed<F>(
        &mut self,
        p: Pending,
        at_ps: Time,
        reason: ShedReason,
        hook: &mut F,
    ) -> Result<(), ServeError>
    where
        F: FnMut(&Outcome) -> Vec<Request>,
    {
        self.probes.inc("serve.requests.shed");
        self.probes.inc(&self.tenant_keys[p.tenant as usize].shed);
        let outcome = Outcome::Shed(Shed {
            request: p.req,
            at_ps,
            reason,
        });
        // Retries must land strictly after the shed instant, otherwise a
        // persistently full queue could loop at one timestamp forever.
        self.react(outcome, at_ps.saturating_add(1), hook)
    }

    /// Records `outcome`, shows it to the hook, and submits any follow-up
    /// requests with arrivals clamped to `min_arrival`.
    fn react<F>(
        &mut self,
        outcome: Outcome,
        min_arrival: Time,
        hook: &mut F,
    ) -> Result<(), ServeError>
    where
        F: FnMut(&Outcome) -> Vec<Request>,
    {
        self.outcomes.push(outcome);
        let followups = hook(self.outcomes.last().expect("just logged"));
        for mut f in followups {
            f.arrival_ps = f.arrival_ps.max(min_arrival);
            self.submit(f)?;
        }
        Ok(())
    }

    /// Dispatches one batch on slice `si` at time `t`.
    fn dispatch<F>(&mut self, si: usize, t: Time, hook: &mut F) -> Result<(), ServeError>
    where
        F: FnMut(&Outcome) -> Vec<Request>,
    {
        let (ki, anchor) = pick(self.cfg.policy, &self.queues, &self.tenants).expect("queued > 0");
        let ctx = &self.kernels[ki];
        let cap = if self.cfg.batching { ctx.lanes_cap } else { 1 };
        let batch = take_batch(&mut self.queues[ki], anchor, cap);
        self.queued -= batch.len();
        let k = batch.len();

        let resident = self.slices[si].resident == Some(ki);
        let reconfig_ps = if resident {
            0
        } else if self.slices[si].resident.is_none() {
            ctx.cost.setup_ps()
        } else {
            ctx.cost.swap_ps()
        };
        let words = (ctx.profile.read_words + ctx.profile.write_words).saturating_mul(k as u64);
        // Compute runs in waves of `tiles` lanes; operand service scales
        // with total lanes. The round is the roofline max of the two.
        let waves = (k as u64).div_ceil(ctx.tiles as u64).max(1);
        let round_cycles = ctx
            .compute_cycles
            .saturating_mul(waves)
            .max(self.spad.service_cycles(words))
            .max(1);
        let exec_ps = self.clock.cycles_to_time(round_cycles);
        let start = t.saturating_add(reconfig_ps);
        let done = start.saturating_add(exec_ps);

        let single_lane = batch[0].req.exclusive || !self.cfg.batching;

        // Accounting: execution is split evenly across the riders. A
        // kernel *swap* is charged to the anchor's tenant — churning the
        // resident kernel is that tenant's doing — but first-claim setup
        // is cold-start infrastructure cost and charged to nobody (a
        // one-time setup charged to one tenant would starve them for the
        // whole transient).
        let anchor_tenant = batch[0].tenant as usize;
        if self.slices[si].resident.is_some() && !resident {
            self.tenants[anchor_tenant].charge(reconfig_ps);
        }
        let share = exec_ps / k as u64;
        for p in &batch {
            self.tenants[p.tenant as usize].charge(share);
        }

        let batch_id = self.batch_seq;
        self.batch_seq += 1;
        let slice = &mut self.slices[si];
        slice.resident = Some(ki);
        slice.free_at = done;
        slice.busy_ps += reconfig_ps + exec_ps;
        if !resident {
            slice.reconfigs += 1;
        }

        self.probes.inc("serve.batches.dispatched");
        self.probes.inc(if single_lane {
            "serve.batches.single_lane"
        } else {
            "serve.batches.coalesced"
        });
        self.probes.observe("serve.batch.occupancy", k as u64);
        // Lane occupancy: occupied ≤ offered capacity per dispatch (a
        // registered probe law), plus the widest batch seen and the
        // compute waves it queued.
        self.probes.add("serve.lanes.occupied", k as u64);
        self.probes.add("serve.lanes.capacity", cap as u64);
        self.probes.gauge_max("serve.lanes.widest", k as f64);
        self.probes.add("serve.batch.waves", waves);
        if !resident {
            self.probes.inc("serve.reconfigs");
            self.probes.add("serve.reconfig.total_ps", reconfig_ps);
            self.probes
                .add(&self.tenant_keys[anchor_tenant].reconfig_ps, reconfig_ps);
        }

        self.dispatches.push(DispatchRecord {
            batch_id,
            at_ps: t,
            slice: si,
            kernel: ctx.name.clone(),
            lanes: k,
            reconfigured: !resident,
            requests: batch
                .iter()
                .map(|p| (p.req.tenant.clone(), p.req.seq, p.req.retries))
                .collect(),
        });

        for Pending { tenant, req, .. } in batch {
            // The functional run is deferred (see the module docs): the
            // rider takes a hash slot and joins its kernel's pending lanes.
            let kernel = &mut self.kernels[ki];
            kernel.deferred.push((self.hashes.len(), req.seed));
            self.hashes.push(0);
            if kernel.deferred.len() == MAX_BATCH_LANES {
                kernel.flush_deferred(&mut self.hashes)?;
            }
            let keys = &self.tenant_keys[tenant as usize];
            let served = Served {
                arrival_ps: req.arrival_ps,
                start_ps: t,
                done_ps: done,
                reconfig_ps,
                exec_ps,
                batch_id,
                lanes: k,
                slice: si,
                seed: req.seed,
                deadline_met: req.deadline_ps.map(|d| done <= d),
                tenant: req.tenant,
                seq: req.seq,
                kernel: req.kernel,
            };
            let latency_ps = done - served.arrival_ps;
            self.probes.inc("serve.requests.completed");
            self.probes.inc(&keys.completed);
            self.probes
                .observe("serve.queue.wait_ps", t - served.arrival_ps);
            self.probes.observe("serve.latency_ps", latency_ps);
            self.probes.observe(&keys.latency_ps, latency_ps);
            match served.deadline_met {
                Some(true) => self.probes.inc("serve.deadlines.met"),
                Some(false) => self.probes.inc("serve.deadlines.missed"),
                None => {}
            }
            self.react(Outcome::Completed(served), done, hook)?;
        }
        Ok(())
    }

    /// Runs every kernel's deferred lanes, exports end-of-drain counters,
    /// and assembles the report. Public so a cluster that drives shards
    /// via [`Server::run_until`] can collect per-shard reports after the
    /// last epoch; [`Server::run`] calls it automatically. A report taken
    /// after any prefix of the run is exact: every completion in it
    /// carries its output hash.
    ///
    /// The report *drains* the completion, shed, and dispatch logs: they
    /// move into it, so a later report lists only what happened after this
    /// one. The probe counters stay cumulative across reports.
    ///
    /// # Errors
    ///
    /// Propagates a failing deferred functional sweep; nothing is drained
    /// or exported then.
    pub fn report(&mut self) -> Result<ServeReport, ServeError> {
        for k in &mut self.kernels {
            k.flush_deferred(&mut self.hashes)?;
        }
        let mut teardown_ps = 0;
        for (i, s) in self.slices.iter_mut().enumerate() {
            // Slice counters are exported as deltas against the last
            // report, so repeated runs stay additive and the
            // busy <= span probe law holds for every export: a slice's
            // new busy intervals all lie within its own free_at advance.
            let busy_delta = s.busy_ps - s.reported_busy_ps;
            let span_delta = s.free_at - s.reported_span_ps;
            self.probes
                .add(&format!("serve.slice.{i}.busy_ps"), busy_delta);
            self.probes
                .add(&format!("serve.slice.{i}.span_ps"), span_delta);
            s.reported_busy_ps = s.busy_ps;
            s.reported_span_ps = s.free_at;
            if s.free_at > 0 {
                self.probes.gauge_max(
                    &format!("serve.slice.{i}.utilization"),
                    s.busy_ps as f64 / s.free_at as f64,
                );
            }
            self.probes
                .add(&format!("serve.slice.{i}.reconfigs"), s.reconfigs);
            s.reconfigs = 0;
            if let Some(k) = s.resident {
                teardown_ps += self.kernels[k].cost.reclaim_ps;
            }
        }
        self.probes.add("serve.teardown.reclaim_ps", teardown_ps);
        // Way-utilization gauges: the partition the scheduler hands out.
        self.probes.set_gauge(
            "serve.ways.compute",
            self.cfg.partition.compute_ways() as f64,
        );
        self.probes.set_gauge(
            "serve.ways.scratchpad",
            self.cfg.partition.scratchpad_ways() as f64,
        );
        self.probes
            .set_gauge("serve.ways.cache", self.cfg.partition.cache_ways() as f64);
        self.probes
            .set_gauge("serve.slices", self.cfg.slices as f64);

        let outcomes = std::mem::take(&mut self.outcomes);
        let done = outcomes
            .iter()
            .filter(|o| matches!(o, Outcome::Completed(_)))
            .count();
        let mut served = Vec::with_capacity(done);
        let mut sheds = Vec::with_capacity(outcomes.len() - done);
        for o in outcomes {
            match o {
                Outcome::Completed(c) => served.push(c),
                Outcome::Shed(s) => sheds.push(s),
            }
        }
        debug_assert_eq!(served.len(), self.hashes.len());
        let mut completions: Vec<_> = served
            .into_iter()
            .zip(std::mem::take(&mut self.hashes))
            .map(|(c, hash)| c.with_output_hash(hash))
            .collect();
        completions
            .sort_by(|a, b| (a.done_ps, &a.tenant, a.seq).cmp(&(b.done_ps, &b.tenant, b.seq)));
        let span_ps = completions.iter().map(|c| c.done_ps).max().unwrap_or(0);
        let tenants = tenant_summaries(
            self.tenants.iter().map(|t| (t.name.as_str(), t.weight, 0)),
            &self.probes,
        );

        freac_probe::debug_check(&self.probes);
        freac_probe::global::merge(&self.probes);

        Ok(ServeReport {
            completions,
            sheds,
            dispatches: std::mem::take(&mut self.dispatches),
            span_ps,
            teardown_ps,
            probes: self.probes.clone(),
            tenants,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::reference_hash;
    use freac_netlist::builder::CircuitBuilder;

    fn tiny_circuit(name: &str) -> Netlist {
        let mut b = CircuitBuilder::new(name);
        let a = b.word_input("a", 8);
        let x = b.word_input("x", 8);
        let s = b.add(&a, &x);
        b.word_output("s", &s);
        b.finish().unwrap()
    }

    fn profile() -> RequestProfile {
        RequestProfile {
            cycles_per_item: 2,
            read_words: 4,
            write_words: 2,
        }
    }

    fn server_with(cfg: ServeConfig) -> Server {
        let mut s = Server::new(cfg).unwrap();
        s.register_kernel("k", &tiny_circuit("k"), profile())
            .unwrap();
        s.add_tenant("a", 1).unwrap();
        s.add_tenant("b", 1).unwrap();
        s
    }

    /// Asserts every completion in `r` carries the reference evaluator's
    /// output hash.
    fn assert_hashes_exact(s: &Server, r: &ServeReport) {
        for c in &r.completions {
            let net = s.kernel_netlist(&c.kernel).unwrap();
            let cycles = s.kernel_func_cycles(&c.kernel).unwrap();
            assert_eq!(
                c.output_hash,
                reference_hash(net, c.seed, cycles).unwrap(),
                "completion ({}, {}) diverged",
                c.tenant,
                c.seq
            );
        }
    }

    #[test]
    fn single_request_pays_setup_plus_exec() {
        let mut s = server_with(ServeConfig::default());
        s.submit(Request::new("a", 0, "k", 0, 1)).unwrap();
        let r = s.run_to_completion().unwrap();
        assert_eq!(r.completions.len(), 1);
        let c = &r.completions[0];
        assert!(c.reconfig_ps > 0, "first claim reconfigures");
        assert!(c.exec_ps > 0);
        assert_eq!(
            c.latency_ps(),
            c.queue_wait_ps() + c.reconfig_ps + c.exec_ps
        );
        assert_eq!(r.span_ps, c.done_ps);
        assert!(r.teardown_ps > 0, "resident kernel pays way reclaim");
    }

    #[test]
    fn batching_coalesces_simultaneous_requests() {
        let mut s = server_with(ServeConfig {
            slices: 1,
            ..ServeConfig::default()
        });
        for i in 0..8 {
            s.submit(Request::new("a", i, "k", 0, i)).unwrap();
        }
        let r = s.run_to_completion().unwrap();
        assert_eq!(r.completions.len(), 8);
        assert_eq!(r.dispatches.len(), 1, "one coalesced batch");
        assert_eq!(r.dispatches[0].lanes, 8);
        assert_eq!(r.probes.counter("serve.batches.coalesced"), 1);
    }

    #[test]
    fn wide_batches_coalesce_past_sixty_four_lanes_in_waves() {
        // 100 simultaneous requests with max_lanes raised past one word:
        // one dispatch, one 4-word bit-sliced pass, ceil(100 / tiles)
        // compute waves — not two 64-lane rounds.
        let mut s = server_with(ServeConfig {
            slices: 1,
            queue_depth: 512,
            max_lanes: 256,
            ..ServeConfig::default()
        });
        for i in 0..100 {
            s.submit(Request::new("a", i, "k", 0, i)).unwrap();
        }
        let r = s.run_to_completion().unwrap();
        assert_eq!(r.completions.len(), 100);
        assert_eq!(r.dispatches.len(), 1, "one wide coalesced batch");
        assert_eq!(r.dispatches[0].lanes, 100);
        assert_eq!(r.probes.counter("serve.lanes.occupied"), 100);
        assert_eq!(r.probes.counter("serve.lanes.capacity"), 256);
        assert_eq!(r.probes.gauge("serve.lanes.widest"), Some(100.0));
        let tiles =
            (ServeConfig::default().partition.mccs() / ServeConfig::default().tile_mccs).max(1);
        assert_eq!(
            r.probes.counter("serve.batch.waves"),
            (100u64).div_ceil(tiles as u64)
        );
        // Same functional results as the reference evaluator, tail lanes
        // and all.
        assert_hashes_exact(&s, &r);
    }

    #[test]
    fn max_lanes_clamps_to_the_widest_sweep() {
        let mut s = server_with(ServeConfig {
            slices: 1,
            queue_depth: 1024,
            max_lanes: usize::MAX,
            ..ServeConfig::default()
        });
        for i in 0..600 {
            s.submit(Request::new("a", i, "k", 0, i)).unwrap();
        }
        let r = s.run_to_completion().unwrap();
        assert_eq!(r.completions.len(), 600);
        // MAX_BATCH_LANES = 512: a 600-deep queue takes two dispatches.
        assert_eq!(r.dispatches.len(), 2);
        assert_eq!(r.dispatches[0].lanes, MAX_BATCH_LANES);
        assert_eq!(r.dispatches[1].lanes, 600 - MAX_BATCH_LANES);
    }

    #[test]
    fn batching_off_serves_single_lane_and_is_slower() {
        let mut batched = server_with(ServeConfig {
            slices: 1,
            ..ServeConfig::default()
        });
        let mut single = server_with(ServeConfig {
            slices: 1,
            batching: false,
            ..ServeConfig::default()
        });
        for i in 0..8 {
            batched.submit(Request::new("a", i, "k", 0, i)).unwrap();
            single.submit(Request::new("a", i, "k", 0, i)).unwrap();
        }
        let rb = batched.run_to_completion().unwrap();
        let rs = single.run_to_completion().unwrap();
        assert_eq!(rs.dispatches.len(), 8);
        assert!(rs.dispatches.iter().all(|d| d.lanes == 1));
        assert!(
            rb.span_ps < rs.span_ps,
            "batched {} !< single-lane {}",
            rb.span_ps,
            rs.span_ps
        );
        // Same functional results either way.
        let hb: Vec<u64> = rb.completions.iter().map(|c| c.output_hash).collect();
        let hs: Vec<u64> = rs.completions.iter().map(|c| c.output_hash).collect();
        assert_eq!(hb, hs);
    }

    #[test]
    fn output_hashes_match_the_reference_evaluator() {
        let mut s = server_with(ServeConfig::default());
        let mut ex = Request::new("b", 0, "k", 0, 99);
        ex.exclusive = true;
        s.submit(Request::new("a", 0, "k", 0, 7)).unwrap();
        s.submit(ex).unwrap();
        let r = s.run_to_completion().unwrap();
        assert_hashes_exact(&s, &r);
    }

    #[test]
    fn prefix_reports_are_exact() {
        // Reports are taken once each prefix's requests have terminated
        // (the probe laws demand it), with hashes still pending.
        let mut s = server_with(ServeConfig {
            slices: 1,
            queue_depth: 1024,
            max_lanes: MAX_BATCH_LANES,
            ..ServeConfig::default()
        });
        let mut no_follow_ups = |_: &Outcome| Vec::new();

        // 600 riders at t = 0. The first dispatch carries 512 of them, so
        // the kernel's pending lanes fill and sweep during the run; the
        // 88-rider remainder is still pending when the report sweeps it.
        for i in 0..600 {
            s.submit(Request::new("a", i, "k", 0, i)).unwrap();
        }
        s.run_until(0, &mut no_follow_ups).unwrap();
        assert_eq!(s.outcome_count(), MAX_BATCH_LANES);
        assert!(s.kernels[0].deferred.is_empty(), "a full buffer sweeps");
        s.run_until(Time::MAX, &mut no_follow_ups).unwrap();
        assert_eq!(s.kernels[0].deferred.len(), 600 - MAX_BATCH_LANES);
        let r = s.report().unwrap();
        assert!(s.kernels[0].deferred.is_empty());
        assert_eq!(r.completions.len(), 600);
        assert_hashes_exact(&s, &r);

        // A trickle in which every third request is exclusive, reported
        // after a rescale.
        let t0 = s.now();
        for i in 0..30 {
            let mut r = Request::new("b", i, "k", t0 + 1_000_000 * (i + 1), 10_000 + i);
            r.exclusive = i % 3 == 0;
            s.submit(r).unwrap();
        }
        s.run_until(t0 + 10_000_000, &mut no_follow_ups).unwrap();
        let waiting = s.kernels[0].deferred.len();
        assert!(waiting > 0 && waiting < 30);
        s.rescale(SlicePartition::max_compute(), s.now()).unwrap();
        s.run_until(Time::MAX, &mut no_follow_ups).unwrap();
        let r = s.report().unwrap();
        assert_eq!(r.completions.len(), 30);
        assert_eq!(r.probes.counter("serve.batches.single_lane"), 10);
        assert_hashes_exact(&s, &r);

        // One more prefix on the rescaled server.
        let t1 = s.now();
        for i in 0..5 {
            s.submit(Request::new("a", 600 + i, "k", t1 + 1, 20_000 + i))
                .unwrap();
        }
        let r = s.run_to_completion().unwrap();
        assert_eq!(r.completions.len(), 5);
        assert_hashes_exact(&s, &r);
    }

    #[test]
    fn exclusive_requests_ride_alone() {
        let mut s = server_with(ServeConfig {
            slices: 1,
            ..ServeConfig::default()
        });
        let mut ex = Request::new("a", 0, "k", 0, 1);
        ex.exclusive = true;
        s.submit(ex).unwrap();
        s.submit(Request::new("a", 1, "k", 0, 2)).unwrap();
        s.submit(Request::new("a", 2, "k", 0, 3)).unwrap();
        let r = s.run_to_completion().unwrap();
        assert_eq!(r.dispatches.len(), 2);
        assert_eq!(r.probes.counter("serve.batches.single_lane"), 1);
        assert_eq!(r.probes.counter("serve.batches.coalesced"), 1);
    }

    #[test]
    fn full_queue_sheds_per_policy() {
        let mut reject = server_with(ServeConfig {
            queue_depth: 2,
            slices: 1,
            ..ServeConfig::default()
        });
        for i in 0..4 {
            reject.submit(Request::new("a", i, "k", 0, i)).unwrap();
        }
        let r = reject.run_to_completion().unwrap();
        assert_eq!(r.sheds.len(), 2);
        assert!(r.sheds.iter().all(|s| s.reason == ShedReason::QueueFull));
        // Newest arrivals bounced; the two oldest completed.
        let done: Vec<u64> = r.completions.iter().map(|c| c.seq).collect();
        assert_eq!(done, vec![0, 1]);

        let mut drop_oldest = server_with(ServeConfig {
            queue_depth: 2,
            slices: 1,
            shed: ShedPolicy::DropOldest,
            ..ServeConfig::default()
        });
        for i in 0..4 {
            drop_oldest.submit(Request::new("a", i, "k", 0, i)).unwrap();
        }
        let r = drop_oldest.run_to_completion().unwrap();
        assert_eq!(r.sheds.len(), 2);
        assert!(r.sheds.iter().all(|s| s.reason == ShedReason::Displaced));
        let done: Vec<u64> = r.completions.iter().map(|c| c.seq).collect();
        assert_eq!(done, vec![2, 3]);
        assert_eq!(r.probes.counter("serve.requests.shed"), 2);
        assert_eq!(r.probes.counter("serve.requests.completed"), 2);
        assert_eq!(r.probes.counter("serve.requests.submitted"), 4);
    }

    #[test]
    fn resident_kernel_skips_reconfiguration() {
        let mut s = server_with(ServeConfig {
            slices: 1,
            max_lanes: 1,
            ..ServeConfig::default()
        });
        s.submit(Request::new("a", 0, "k", 0, 1)).unwrap();
        s.submit(Request::new("a", 1, "k", 0, 2)).unwrap();
        let r = s.run_to_completion().unwrap();
        assert_eq!(r.dispatches.len(), 2);
        assert!(r.dispatches[0].reconfigured);
        assert!(!r.dispatches[1].reconfigured);
        assert_eq!(r.completions[1].reconfig_ps, 0);
        assert_eq!(r.probes.counter("serve.reconfigs"), 1);
    }

    #[test]
    fn schedule_is_independent_of_submission_order() {
        let reqs: Vec<Request> = (0..12)
            .map(|i| Request::new(if i % 2 == 0 { "a" } else { "b" }, i / 2, "k", 1_000 * i, i))
            .collect();
        let run = |order: Vec<Request>| {
            let mut s = server_with(ServeConfig::default());
            for r in order {
                s.submit(r).unwrap();
            }
            s.run_to_completion().unwrap()
        };
        let fwd = run(reqs.clone());
        let mut rev = reqs;
        rev.reverse();
        let bwd = run(rev);
        assert_eq!(fwd.dispatches, bwd.dispatches);
        assert_eq!(fwd.completions, bwd.completions);
        assert_eq!(
            freac_probe::to_counters_json(&fwd.probes),
            freac_probe::to_counters_json(&bwd.probes)
        );
    }

    #[test]
    fn closed_loop_hook_keeps_the_pipeline_fed() {
        let mut s = server_with(ServeConfig {
            slices: 1,
            max_lanes: 1,
            ..ServeConfig::default()
        });
        s.submit(Request::new("a", 0, "k", 0, 0)).unwrap();
        let mut issued = 1u64;
        let r = s
            .run(|o| {
                if let Outcome::Completed(c) = o {
                    if issued < 5 {
                        let req = Request::new("a", issued, "k", c.done_ps + 100, issued);
                        issued += 1;
                        return vec![req];
                    }
                }
                Vec::new()
            })
            .unwrap();
        assert_eq!(r.completions.len(), 5);
        // Each follow-up arrives after its predecessor completes.
        for w in r.completions.windows(2) {
            assert!(w[1].arrival_ps > w[0].done_ps);
        }
    }

    #[test]
    fn weighted_fair_respects_weights_under_contention() {
        let mut s = Server::new(ServeConfig {
            slices: 1,
            max_lanes: 1,
            ..ServeConfig::default()
        })
        .unwrap();
        s.register_kernel("k", &tiny_circuit("k"), profile())
            .unwrap();
        s.add_tenant("heavy", 4).unwrap();
        s.add_tenant("light", 1).unwrap();
        for i in 0..10 {
            s.submit(Request::new("heavy", i, "k", 0, i)).unwrap();
            s.submit(Request::new("light", i, "k", 0, i + 100)).unwrap();
        }
        let r = s.run_to_completion().unwrap();
        // In the first half of the schedule the heavy tenant gets more
        // service than the light one.
        let first_half = &r.completions[..10];
        let heavy = first_half.iter().filter(|c| c.tenant == "heavy").count();
        let light = first_half.iter().filter(|c| c.tenant == "light").count();
        assert!(heavy > light, "heavy {heavy} !> light {light}");
        // But nobody starves.
        assert!(light >= 1);
    }

    #[test]
    fn duplicate_and_unknown_submissions_are_rejected() {
        let mut s = server_with(ServeConfig::default());
        s.submit(Request::new("a", 0, "k", 0, 1)).unwrap();
        assert!(matches!(
            s.submit(Request::new("a", 0, "k", 5, 2)),
            Err(ServeError::DuplicateRequest { .. })
        ));
        assert!(matches!(
            s.submit(Request::new("nobody", 0, "k", 0, 1)),
            Err(ServeError::UnknownTenant(_))
        ));
        assert!(matches!(
            s.submit(Request::new("a", 1, "mystery", 0, 1)),
            Err(ServeError::UnknownKernel(_))
        ));
    }

    #[test]
    fn repeated_runs_keep_counter_laws() {
        let mut s = server_with(ServeConfig::default());
        s.submit(Request::new("a", 0, "k", 0, 1)).unwrap();
        let r1 = s.run_to_completion().unwrap();
        freac_probe::assert_ok(&r1.probes);
        s.submit(Request::new("a", 1, "k", r1.span_ps + 1, 2))
            .unwrap();
        let r2 = s.run_to_completion().unwrap();
        // Slice busy/span deltas stay additive, so laws hold after both runs.
        freac_probe::assert_ok(&r2.probes);
        // Each report drains the logs; counters stay cumulative.
        assert_eq!(r1.completions.len(), 1);
        assert_eq!(r2.completions.len(), 1);
        assert_eq!(r2.completions[0].seq, 1);
        assert_eq!(r2.probes.counter("serve.requests.completed"), 2);
    }

    #[test]
    fn deadline_outcomes_are_reported() {
        let mut s = server_with(ServeConfig {
            policy: SchedPolicy::DeadlineAware,
            ..ServeConfig::default()
        });
        let mut tight = Request::new("a", 0, "k", 0, 1);
        tight.deadline_ps = Some(1);
        let mut loose = Request::new("b", 0, "k", 0, 2);
        loose.deadline_ps = Some(Time::MAX);
        s.submit(tight).unwrap();
        s.submit(loose).unwrap();
        let r = s.run_to_completion().unwrap();
        assert_eq!(r.probes.counter("serve.deadlines.missed"), 1);
        assert_eq!(r.probes.counter("serve.deadlines.met"), 1);
    }

    #[test]
    fn coherent_handoff_cheapens_rescale_and_quotes_protocol_traffic() {
        let run = |handoff: HandoffMode| {
            let mut s = server_with(ServeConfig {
                handoff,
                ..ServeConfig::default()
            });
            let conversion = s.rescale(SlicePartition::max_compute(), 0).unwrap();
            s.submit(Request::new("a", 0, "k", 0, 1)).unwrap();
            (
                conversion,
                s.run_to_completion().unwrap(),
                s.coherence_stats(),
            )
        };
        let (flat_ps, flat, flat_coh) = run(HandoffMode::ConservativeFlush);
        let (coh_ps, coh, coh_stats) = run(HandoffMode::coherent());
        assert!(flat_ps > 0 && coh_ps > 0);
        assert!(
            coh_ps < flat_ps,
            "targeted invalidations beat the blind flush: {coh_ps} vs {flat_ps}"
        );
        // Conservative mode exports no protocol counters; coherent mode
        // itemizes the claim.
        assert_eq!(flat_coh, CoherenceStats::default());
        assert_eq!(flat.probes.counter("cache.coh.claims"), 0);
        assert_eq!(coh.probes.counter("cache.coh.claims"), 1);
        assert!(coh.probes.counter("cache.coh.invalidations") > 0);
        assert_eq!(
            coh.probes.counter("cache.coh.stall_ps"),
            coh_ps,
            "the rescale quote is exactly the exported protocol stall"
        );
        assert_eq!(coh_stats.claims, 1);
        freac_probe::assert_ok(&coh.probes);
        // Both modes produce the same functional results.
        assert_eq!(
            flat.completions[0].output_hash,
            coh.completions[0].output_hash
        );
    }

    #[test]
    fn cross_tenant_scratchpad_access_faults_deterministically() {
        let run = || {
            let mut s = server_with(ServeConfig::default());
            let mine = s.tenant_segment("a").unwrap();
            let theirs = s.tenant_segment("b").unwrap();
            assert!(mine.len > 0 && theirs.base >= mine.len);
            // "a" touching its own segment completes; "a" touching "b"'s
            // segment faults at admission and never reaches a slice.
            s.submit(Request::new("a", 0, "k", 0, 1).with_spad_addr(mine.base))
                .unwrap();
            s.submit(Request::new("a", 1, "k", 0, 2).with_spad_addr(theirs.base))
                .unwrap();
            s.run_to_completion().unwrap()
        };
        let r1 = run();
        let r2 = run();
        assert_eq!(r1.completions.len(), 1);
        assert_eq!(r1.completions[0].seq, 0);
        assert_eq!(r1.sheds.len(), 1);
        assert_eq!(r1.sheds[0].reason, ShedReason::TlbFault);
        assert_eq!(r1.sheds[0].request.seq, 1);
        assert_eq!(r1.probes.counter("serve.tlb.accesses"), 2);
        assert_eq!(r1.probes.counter("serve.tlb.hits"), 1);
        assert_eq!(r1.probes.counter("serve.tlb.misses"), 1);
        assert_eq!(r1.probes.counter("serve.tlb.faults"), 1);
        assert_eq!(r1.probes.counter("serve.tenant.a.tlb_faults"), 1);
        freac_probe::assert_ok(&r1.probes);
        // The fault is a pure function of the request set: same sheds,
        // same completions, run after run.
        assert_eq!(r1.sheds, r2.sheds);
        assert_eq!(r1.completions, r2.completions);
    }

    #[test]
    fn rescale_rebuilds_tenant_segments() {
        let mut s = server_with(ServeConfig::default());
        let before = s.tenant_segment("b").unwrap();
        // max_compute shrinks the scratchpad from 10 ways to 4, so every
        // tenant's share shrinks with it.
        s.rescale(SlicePartition::max_compute(), 0).unwrap();
        let after = s.tenant_segment("b").unwrap();
        assert!(after.len < before.len);
        assert_eq!(
            after.len,
            SlicePartition::max_compute().scratchpad_bytes() / 2
        );
    }

    #[test]
    fn bad_coherent_residency_is_rejected() {
        let cfg = ServeConfig {
            handoff: HandoffMode::Coherent { residency: 1.5 },
            ..ServeConfig::default()
        };
        assert!(matches!(Server::new(cfg), Err(ServeError::BadConfig(_))));
    }
}
