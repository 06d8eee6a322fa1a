//! The mapping pipeline, timed stage by stage from outside.
//!
//! Runs the stages `Accelerator::map_with_level` runs, in the same order
//! and on the tile the serving layer uses, and keeps what functional
//! execution needs: the mapped netlist, its folded plan and its batch
//! plan.

use std::time::Instant;

use freac_core::bitstream::Bitstream;
use freac_core::AcceleratorTile;
use freac_fold::{compile_fold, schedule_fold, FoldPlan};
use freac_kernels::{kernel, KernelId};
use freac_netlist::techmap::{tech_map, TechMapOptions};
use freac_netlist::{compile, optimize, ExecPlan, Netlist, NetlistStats, OptLevel, OptOptions};
use freac_serve::ServeConfig;

use crate::Metrics;

/// One kernel's benchmark-owned copy of what serving executes.
pub struct MappedKernel {
    /// Lowercase kernel name, as requests name it.
    pub name: String,
    /// The technology-mapped netlist.
    pub netlist: Netlist,
    /// The single-lane folded plan.
    pub fold: FoldPlan,
    /// The bit-sliced batch plan.
    pub plan: ExecPlan,
}

/// Maps every kernel in `ids`, adding each stage's time (ms) and the
/// LUT, fold-step and micro-op counts to the `map.*` metrics.
///
/// # Panics
///
/// If a paper kernel fails to map: every serving workload registers the
/// same kernels on the same tile, so set-up has already mapped them.
pub fn map_kernels(ids: &[KernelId], layers: &mut Metrics) -> Vec<MappedKernel> {
    let tile =
        AcceleratorTile::new(ServeConfig::default().tile_mccs).expect("serving tile is valid");
    let k = tile.lut_mode().k();
    let level = OptLevel::from_env();
    let mut timed = |name: &'static str, start: Instant| {
        layers.add(name, start.elapsed().as_secs_f64() * 1e3);
    };
    let mut mapped = Vec::with_capacity(ids.len());
    let mut counts = (0usize, 0usize, 0usize);
    for &id in ids {
        let t = Instant::now();
        let circuit = kernel(id).circuit();
        timed("map.circuit_ms", t);

        let t = Instant::now();
        let (optimized, _) =
            optimize(&circuit, OptOptions::at(level).with_lut_k(k)).expect("kernel optimizes");
        timed("map.opt_ms", t);

        let t = Instant::now();
        let netlist = tech_map(&optimized, TechMapOptions { k }).expect("kernel tech-maps");
        timed("map.techmap_ms", t);

        let t = Instant::now();
        let schedule = schedule_fold(&netlist, &tile.fold_constraints()).expect("kernel folds");
        timed("map.fold_schedule_ms", t);

        let t = Instant::now();
        let fold = compile_fold(&netlist, &schedule).expect("fold plan compiles");
        timed("map.fold_compile_ms", t);

        let t = Instant::now();
        let bitstream = Bitstream::pack(&netlist, &schedule, tile.mccs(), tile.lut_mode());
        timed("map.bitstream_ms", t);
        std::hint::black_box(bitstream);

        let t = Instant::now();
        let plan = compile(&netlist).expect("batch plan compiles");
        timed("map.plan_compile_ms", t);

        counts.0 += NetlistStats::of(&netlist).luts;
        counts.1 += schedule.len();
        counts.2 += plan.micro_ops();
        mapped.push(MappedKernel {
            name: id.name().to_lowercase(),
            netlist,
            fold,
            plan,
        });
    }
    layers.set("map.luts", counts.0 as f64);
    layers.set("map.fold_steps", counts.1 as f64);
    layers.set("map.plan_micro_ops", counts.2 as f64);
    mapped
}
