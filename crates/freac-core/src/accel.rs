//! An accelerator: a circuit mapped and folded onto a tile.

use freac_fold::{compile_fold, schedule_fold, FoldPlan, FoldSchedule};
use freac_netlist::techmap::{tech_map, TechMapOptions};
use freac_netlist::{optimize, Netlist, NetlistStats, OptLevel, OptOptions, OptReport, Value};

use crate::bitstream::Bitstream;
use crate::error::CoreError;
use crate::tile::AcceleratorTile;

/// A circuit technology-mapped and fold-scheduled for a specific tile,
/// together with its packed configuration bitstream and the compiled
/// execution plan for its schedule.
///
/// The plan is compiled once, at [`Accelerator::map`] time, and shared by
/// every [`Accelerator::execute`] call (and, through the experiment
/// runner's mapping cache, by every run of the same kernel/tile pair);
/// per-call state lives in throwaway executors, never in the accelerator.
#[derive(Debug, Clone)]
pub struct Accelerator {
    name: String,
    netlist: Netlist,
    schedule: FoldSchedule,
    plan: FoldPlan,
    bitstream: Bitstream,
    tile: AcceleratorTile,
    opt_level: OptLevel,
    opt_report: OptReport,
}

impl Accelerator {
    /// Maps `circuit` onto `tile`: optimizes the netlist at the level given
    /// by `FREAC_OPT_LEVEL` (default: full), technology-maps to the tile's
    /// LUT size, folds under the tile's resource envelope, compiles the
    /// schedule into an execution plan (validating every dependency), and
    /// packs the bitstream.
    ///
    /// # Errors
    ///
    /// Propagates mapping and folding failures (for example a circuit whose
    /// schedule exceeds the 2048 configuration rows).
    pub fn map(circuit: &Netlist, tile: &AcceleratorTile) -> Result<Self, CoreError> {
        Self::map_with_level(circuit, tile, OptLevel::from_env())
    }

    /// [`Accelerator::map`] at an explicit optimization level, ignoring the
    /// environment — ablation experiments and opt-on/off differential tests
    /// use this to hold everything but the level fixed.
    ///
    /// # Errors
    ///
    /// Propagates mapping and folding failures.
    pub fn map_with_level(
        circuit: &Netlist,
        tile: &AcceleratorTile,
        level: OptLevel,
    ) -> Result<Self, CoreError> {
        let k = tile.lut_mode().k();
        let (optimized, opt_report) = optimize(circuit, OptOptions::at(level).with_lut_k(k))?;
        let mapped = tech_map(&optimized, TechMapOptions { k })?;
        let schedule = schedule_fold(&mapped, &tile.fold_constraints())?;
        let plan = compile_fold(&mapped, &schedule)?;
        let bitstream = Bitstream::pack(&mapped, &schedule, tile.mccs(), tile.lut_mode());
        Ok(Accelerator {
            name: circuit.name().to_owned(),
            netlist: mapped,
            schedule,
            plan,
            bitstream,
            tile: *tile,
            opt_level: level,
            opt_report,
        })
    }

    /// The optimization level the circuit was mapped at.
    pub fn opt_level(&self) -> OptLevel {
        self.opt_level
    }

    /// The optimization pipeline's per-pass delta report (empty passes at
    /// [`OptLevel::Off`]).
    pub fn opt_report(&self) -> &OptReport {
        &self.opt_report
    }

    /// The circuit's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The technology-mapped netlist.
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// The fold schedule.
    pub fn schedule(&self) -> &FoldSchedule {
        &self.schedule
    }

    /// The compiled execution plan of the fold schedule.
    pub fn fold_plan(&self) -> &FoldPlan {
        &self.plan
    }

    /// The packed configuration bitstream.
    pub fn bitstream(&self) -> &Bitstream {
        &self.bitstream
    }

    /// The tile this accelerator was mapped for.
    pub fn tile(&self) -> AcceleratorTile {
        self.tile
    }

    /// Resource statistics of the mapped netlist.
    pub fn stats(&self) -> NetlistStats {
        NetlistStats::of(&self.netlist)
    }

    /// Fold count: cache cycles per original circuit cycle.
    pub fn fold_cycles(&self) -> usize {
        self.schedule.len()
    }

    /// Effective clock in MHz: tile clock divided by the fold count
    /// (paper Sec. IV).
    pub fn effective_clock_mhz(&self) -> f64 {
        let tile_mhz = self.tile.clock().freq_ghz() * 1000.0;
        tile_mhz / self.fold_cycles().max(1) as f64
    }

    /// Functionally executes the accelerator for `cycles` original cycles
    /// via the compiled execution plan — the bit-exact model of what the
    /// MCCs compute, proven equivalent to the step interpreter by the
    /// differential test-suite. One output buffer is reused across cycles.
    ///
    /// # Errors
    ///
    /// Propagates executor errors (input shape mismatches).
    pub fn execute(&self, inputs: &[Value], cycles: usize) -> Result<Vec<Value>, CoreError> {
        let mut ex = self.plan.executor();
        let mut last = Vec::new();
        for _ in 0..cycles {
            ex.run_cycle_into(inputs, &mut last)?;
        }
        Ok(last)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use freac_netlist::builder::CircuitBuilder;
    use std::sync::Arc;

    fn mac_circuit() -> Netlist {
        let mut b = CircuitBuilder::new("fma");
        let a = b.word_input("a", 32);
        let x = b.word_input("x", 32);
        let c = b.word_input("c", 32);
        let m = b.mac(&a, &x, &c);
        b.word_output("m", &m);
        b.finish().unwrap()
    }

    #[test]
    fn map_and_execute() {
        let circuit = mac_circuit();
        let tile = AcceleratorTile::new(1).unwrap();
        let acc = Accelerator::map(&circuit, &tile).unwrap();
        let out = acc
            .execute(&[Value::Word(6), Value::Word(7), Value::Word(8)], 1)
            .unwrap();
        assert_eq!(out, vec![Value::Word(50)]);
        assert!(acc.fold_cycles() >= 1);
    }

    #[test]
    fn effective_clock_divides_by_folds() {
        let mut b = CircuitBuilder::new("wide");
        let a = b.word_input("a", 32);
        let c = b.word_input("b", 32);
        let s = b.add(&a, &c);
        let s2 = b.add(&s, &c);
        b.word_output("s", &s2);
        let circuit = b.finish().unwrap();
        let tile = AcceleratorTile::new(1).unwrap();
        let acc = Accelerator::map(&circuit, &tile).unwrap();
        let folds = acc.fold_cycles() as f64;
        assert!((acc.effective_clock_mhz() - 4000.0 / folds).abs() < 1e-6);
    }

    #[test]
    fn bigger_tile_fewer_folds_higher_effective_clock() {
        let mut b = CircuitBuilder::new("wide");
        let a = b.word_input("a", 32);
        let c = b.word_input("b", 32);
        let s = b.add(&a, &c);
        b.word_output("s", &s);
        let circuit = b.finish().unwrap();
        let a1 = Accelerator::map(&circuit, &AcceleratorTile::new(1).unwrap()).unwrap();
        let a8 = Accelerator::map(&circuit, &AcceleratorTile::new(8).unwrap()).unwrap();
        assert!(a8.fold_cycles() <= a1.fold_cycles());
        assert!(a8.effective_clock_mhz() >= a1.effective_clock_mhz());
    }

    #[test]
    fn accelerators_are_shareable_across_threads() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Accelerator>();
        let acc =
            Arc::new(Accelerator::map(&mac_circuit(), &AcceleratorTile::new(1).unwrap()).unwrap());
        let clones: Vec<_> = (0..4).map(|_| Arc::clone(&acc)).collect();
        let outs: Vec<_> = std::thread::scope(|s| {
            clones
                .iter()
                .map(|a| {
                    s.spawn(move || {
                        a.execute(&[Value::Word(6), Value::Word(7), Value::Word(8)], 1)
                            .unwrap()
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        for out in outs {
            assert_eq!(out, vec![Value::Word(50)]);
        }
    }

    #[test]
    fn compiled_execute_matches_interpreter() {
        use freac_fold::FoldedExecutor;
        let circuit = mac_circuit();
        let tile = AcceleratorTile::new(1).unwrap();
        let acc = Accelerator::map(&circuit, &tile).unwrap();
        let inputs = [Value::Word(123), Value::Word(456), Value::Word(789)];
        for cycles in 1..4 {
            let compiled = acc.execute(&inputs, cycles).unwrap();
            let mut fx = FoldedExecutor::new(acc.netlist(), acc.schedule());
            let mut reference = Vec::new();
            for _ in 0..cycles {
                reference = fx.run_cycle(&inputs).unwrap();
            }
            assert_eq!(compiled, reference, "{cycles} cycles");
        }
    }

    #[test]
    fn opt_levels_agree_and_full_is_no_bigger() {
        // A circuit with redundancy the pipeline can find: duplicated xor
        // cones feeding a reduction. Off and Full must compute identical
        // outputs; Full must not map to more LUTs than Off.
        let mut b = CircuitBuilder::new("redundant");
        let a = b.word_input("a", 8);
        let x1 = b.xor(a.bit(0), a.bit(1));
        let x2 = b.xor(a.bit(0), a.bit(1));
        let bits: Vec<_> = (2..8).map(|i| a.bit(i)).collect();
        let mut all = vec![x1, x2];
        all.extend(bits);
        let r = b.reduce_xor(&all);
        b.bit_output("r", r);
        let circuit = b.finish().unwrap();
        let tile = AcceleratorTile::new(2).unwrap();
        let off = Accelerator::map_with_level(&circuit, &tile, OptLevel::Off).unwrap();
        let full = Accelerator::map_with_level(&circuit, &tile, OptLevel::Full).unwrap();
        assert_eq!(off.opt_level(), OptLevel::Off);
        assert_eq!(full.opt_level(), OptLevel::Full);
        assert_eq!(off.opt_report().total_rewrites(), 0);
        assert!(full.opt_report().total_rewrites() > 0);
        assert!(full.stats().luts <= off.stats().luts);
        for i in 0..64u32 {
            let inputs = [Value::Word(i * 89 % 256)];
            assert_eq!(
                off.execute(&inputs, 1).unwrap(),
                full.execute(&inputs, 1).unwrap(),
                "input {i}"
            );
        }
    }

    #[test]
    fn name_and_stats_surface() {
        let acc = Accelerator::map(&mac_circuit(), &AcceleratorTile::new(2).unwrap()).unwrap();
        assert_eq!(acc.name(), "fma");
        assert_eq!(acc.stats().macs, 1);
        assert!(acc.bitstream().total_bytes() > 0);
    }
}
