//! Compilation of a fold schedule into a flat execution plan.
//!
//! [`FoldedExecutor`](crate::exec::FoldedExecutor) interprets the schedule
//! step by step, re-validating dependencies on every pass: each operand read
//! checks a `Vec<Option<Value>>`, free plumbing is resolved by recursion,
//! and every bus read `position()`-scans the primary-input list.
//! [`compile_fold`] performs that entire walk **once**: it simulates the
//! schedule's availability frontier at compile time (a read of a value no
//! earlier step produced is reported as
//! [`FoldError::DependencyViolation`] *before* any cycle runs), resolves
//! every operand to a dense state-plane slot, and flattens the pass into an
//! [`ExecPlan`] micro-op stream. The resulting [`FoldPlanExecutor`] runs a
//! pass with no per-cycle allocation and no per-operand branching, while
//! reporting the exact same probe counters as the interpreter.
//!
//! Fidelity notes, mirroring the interpreter precisely:
//!
//! * within one step, work executes in the order bus-reads, LUTs, MACs,
//!   bus-writes — a LUT may consume another LUT scheduled *earlier in the
//!   same step*, and compile-time availability tracks that;
//! * free plumbing (pack/unpack/bit-output chains) is emitted at its first
//!   reference and *memoized* for the rest of the segment. The interpreter
//!   recomputes these chains per reference, but every slot is write-once
//!   within a pass segment (availability is enforced before any read), so
//!   recomputation is idempotent and the memoized plan is value-identical
//!   while executing far fewer micro-ops;
//! * sequential latching happens before primary outputs are resolved, so
//!   output plumbing chains observe the *new* register state — their ops
//!   land in the plan's post-latch segment.

use freac_netlist::plan::{ExecPlan, PlanBuilder, PlanState, Segment};
use freac_netlist::{Netlist, NodeId, NodeKind, Value};
use freac_probe::CounterRegistry;

use crate::error::FoldError;
use crate::schedule::FoldSchedule;

/// A fold schedule compiled to a flat micro-op stream, plus the per-pass
/// counter increments that a validated schedule performs.
///
/// The plan is immutable shared data; create a [`FoldPlanExecutor`] per
/// concurrent execution.
#[derive(Debug, Clone)]
pub struct FoldPlan {
    plan: ExecPlan,
    steps_per_pass: u64,
    lut_evals_per_pass: u64,
    mac_issues_per_pass: u64,
    bus_reads_per_pass: u64,
    bus_writes_per_pass: u64,
}

impl FoldPlan {
    /// The underlying execution plan (for batch evaluation or size probes).
    pub fn exec_plan(&self) -> &ExecPlan {
        &self.plan
    }

    /// Fold steps one pass executes (the fold count N).
    pub fn steps_per_pass(&self) -> u64 {
        self.steps_per_pass
    }

    /// Creates an executor with sequential state at power-on values.
    ///
    /// Single-lane execution with carried state, the path
    /// `Accelerator::execute` runs and the named oracle the fold and
    /// compiled equivalence tests compare the bit-sliced batch plan
    /// against. The serving engine does not use it: it runs every request
    /// as a fresh-start lane of a packed batch sweep.
    pub fn executor(&self) -> FoldPlanExecutor<'_> {
        FoldPlanExecutor {
            plan: self,
            state: self.plan.new_state(),
            steps_executed: 0,
            expected_steps: 0,
            lut_evals: 0,
            mac_issues: 0,
            bus_reads: 0,
            bus_writes: 0,
        }
    }
}

/// Runs a [`FoldPlan`] cycle by cycle: the drop-in compiled replacement for
/// [`FoldedExecutor`](crate::exec::FoldedExecutor), with an identical
/// counter surface ([`FoldPlanExecutor::export_into`] emits the same keys
/// with the same values for any input sequence).
#[derive(Debug)]
pub struct FoldPlanExecutor<'a> {
    plan: &'a FoldPlan,
    state: PlanState,
    steps_executed: u64,
    expected_steps: u64,
    lut_evals: u64,
    mac_issues: u64,
    bus_reads: u64,
    bus_writes: u64,
}

impl FoldPlanExecutor<'_> {
    /// Original clock cycles executed so far.
    pub fn cycles(&self) -> u64 {
        self.state.cycles()
    }

    /// Total fold steps executed (cache clock cycles of pure compute).
    pub fn steps_executed(&self) -> u64 {
        self.steps_executed
    }

    /// Configuration-row reads issued: one config row streams from the
    /// compute sub-arrays per fold step.
    pub fn config_row_reads(&self) -> u64 {
        self.steps_executed
    }

    /// Exports execution counters under `prefix` with the exact key set of
    /// the interpreter: `.passes`, `.steps_executed`, `.expected_steps`,
    /// `.lut_evals`, `.mac_issues`, `.bus_reads`, `.bus_writes`,
    /// `.config_row_reads`.
    pub fn export_into(&self, reg: &mut CounterRegistry, prefix: &str) {
        reg.add(&format!("{prefix}.passes"), self.cycles());
        reg.add(&format!("{prefix}.steps_executed"), self.steps_executed);
        reg.add(&format!("{prefix}.expected_steps"), self.expected_steps);
        reg.add(&format!("{prefix}.lut_evals"), self.lut_evals);
        reg.add(&format!("{prefix}.mac_issues"), self.mac_issues);
        reg.add(&format!("{prefix}.bus_reads"), self.bus_reads);
        reg.add(&format!("{prefix}.bus_writes"), self.bus_writes);
        reg.add(
            &format!("{prefix}.config_row_reads"),
            self.config_row_reads(),
        );
    }

    /// Runs one original clock cycle (a full pass over the schedule),
    /// writing the primary outputs into `out` without allocating.
    ///
    /// # Errors
    ///
    /// Returns input-shape errors only — dependency violations were ruled
    /// out at compile time. Counters are untouched on error, matching the
    /// interpreter.
    pub fn run_cycle_into(
        &mut self,
        inputs: &[Value],
        out: &mut Vec<Value>,
    ) -> Result<(), FoldError> {
        self.plan
            .plan
            .run_cycle_into(&mut self.state, inputs, out)
            .map_err(FoldError::Netlist)?;
        self.steps_executed = self.steps_executed.saturating_add(self.plan.steps_per_pass);
        self.expected_steps = self.expected_steps.saturating_add(self.plan.steps_per_pass);
        self.lut_evals = self.lut_evals.saturating_add(self.plan.lut_evals_per_pass);
        self.mac_issues = self
            .mac_issues
            .saturating_add(self.plan.mac_issues_per_pass);
        self.bus_reads = self.bus_reads.saturating_add(self.plan.bus_reads_per_pass);
        self.bus_writes = self
            .bus_writes
            .saturating_add(self.plan.bus_writes_per_pass);
        Ok(())
    }

    /// Allocating convenience wrapper over
    /// [`FoldPlanExecutor::run_cycle_into`].
    ///
    /// # Errors
    ///
    /// Propagates input-shape errors.
    pub fn run_cycle(&mut self, inputs: &[Value]) -> Result<Vec<Value>, FoldError> {
        let mut out = Vec::new();
        self.run_cycle_into(inputs, &mut out)?;
        Ok(out)
    }
}

/// Lowers `schedule` over `netlist` into a [`FoldPlan`], validating every
/// dependency the interpreter would check at runtime.
///
/// # Errors
///
/// Returns [`FoldError::DependencyViolation`] — with the same
/// consumer/operand attribution as the interpreter — if the schedule reads
/// a value before any step produces it, and propagates structural netlist
/// errors.
///
/// # Panics
///
/// Panics if a scheduled bus read targets a node that is not a primary
/// input, or a `luts`/`macs`/`bus_writes` entry names a node of the wrong
/// kind — programming errors in the scheduler, and panics in the
/// interpreter too.
pub fn compile_fold(netlist: &Netlist, schedule: &FoldSchedule) -> Result<FoldPlan, FoldError> {
    let mut b = PlanBuilder::new(netlist).map_err(FoldError::Netlist)?;
    let nodes = netlist.nodes();
    let pis = netlist.primary_inputs();
    // The availability frontier: true once a step (or the input prologue)
    // has produced the node's value this pass. Bit inputs are pre-latched
    // parameters, available from step 0.
    let mut avail = vec![false; netlist.len()];
    for &pi in pis {
        if matches!(nodes[pi.index()].kind, NodeKind::BitInput { .. }) {
            avail[pi.index()] = true;
        }
    }
    // Free-plumbing memo, one per segment: pre-latch chains and post-latch
    // chains observe different sequential state, so they never share.
    let mut emitted_main = vec![false; netlist.len()];
    let mut emitted_post = vec![false; netlist.len()];

    for step in schedule.steps() {
        for &id in &step.bus_reads {
            assert!(pis.contains(&id), "bus read targets a primary input");
            // The plan's input prologue writes the slot; the read only
            // opens availability at this step.
            avail[id.index()] = true;
        }
        for &id in &step.luts {
            let NodeKind::Lut(_) = nodes[id.index()].kind else {
                unreachable!("scheduled LUT step contains only LUT nodes");
            };
            for &inp in &nodes[id.index()].inputs {
                resolve_emit(
                    inp,
                    id,
                    Segment::Main,
                    &mut b,
                    netlist,
                    &avail,
                    &mut emitted_main,
                )?;
            }
            b.emit(id, Segment::Main);
            avail[id.index()] = true;
        }
        for &id in &step.macs {
            let NodeKind::Mac = nodes[id.index()].kind else {
                unreachable!("scheduled MAC step contains only MAC nodes");
            };
            for &inp in &nodes[id.index()].inputs {
                resolve_emit(
                    inp,
                    id,
                    Segment::Main,
                    &mut b,
                    netlist,
                    &avail,
                    &mut emitted_main,
                )?;
            }
            b.emit(id, Segment::Main);
            avail[id.index()] = true;
        }
        for &id in &step.bus_writes {
            let NodeKind::WordOutput { .. } = nodes[id.index()].kind else {
                unreachable!("scheduled bus write targets a primary word output");
            };
            resolve_emit(
                nodes[id.index()].inputs[0],
                id,
                Segment::Main,
                &mut b,
                netlist,
                &avail,
                &mut emitted_main,
            )?;
            b.emit(id, Segment::Main);
            avail[id.index()] = true;
        }
    }

    // Latch sequential elements at the end of the pass: their D chains run
    // pre-latch (reading old state), then the plan's two-phase latch
    // commits.
    for (i, node) in nodes.iter().enumerate() {
        if node.kind.is_sequential() {
            resolve_emit(
                node.inputs[0],
                NodeId(i as u32),
                Segment::Main,
                &mut b,
                netlist,
                &avail,
                &mut emitted_main,
            )?;
        }
    }
    b.latch_all();

    // Primary outputs: scheduled word outputs already hold their written
    // value; everything else is free plumbing resolved after the latch, so
    // those chains go to the post-latch segment.
    for &o in netlist.primary_outputs() {
        match nodes[o.index()].kind {
            NodeKind::WordOutput { .. } => {
                if !avail[o.index()] {
                    return Err(FoldError::DependencyViolation {
                        node: o,
                        operand: o,
                    });
                }
            }
            _ => {
                resolve_emit(
                    nodes[o.index()].inputs[0],
                    o,
                    Segment::Post,
                    &mut b,
                    netlist,
                    &avail,
                    &mut emitted_post,
                )?;
                b.emit(o, Segment::Post);
            }
        }
    }

    let stats = schedule.stats();
    let bus_reads_per_pass: usize = schedule.steps().iter().map(|s| s.bus_reads.len()).sum();
    let bus_writes_per_pass: usize = schedule.steps().iter().map(|s| s.bus_writes.len()).sum();
    Ok(FoldPlan {
        plan: b.finish(),
        steps_per_pass: schedule.len() as u64,
        lut_evals_per_pass: stats.lut_evals as u64,
        mac_issues_per_pass: stats.mac_issues as u64,
        bus_reads_per_pass: bus_reads_per_pass as u64,
        bus_writes_per_pass: bus_writes_per_pass as u64,
    })
}

/// Compile-time mirror of the interpreter's `resolve`: checks that
/// scheduled operands are available at this point of the pass, and emits
/// free-plumbing chains (pack/unpack/bit-output) into `segment` at their
/// first reference, memoizing via `emitted`. The interpreter recomputes
/// these chains per reference, but within a segment every slot is
/// write-once, so one emission produces the identical value.
fn resolve_emit(
    id: NodeId,
    consumer: NodeId,
    segment: Segment,
    b: &mut PlanBuilder<'_>,
    netlist: &Netlist,
    avail: &[bool],
    emitted: &mut [bool],
) -> Result<(), FoldError> {
    let node = &netlist.nodes()[id.index()];
    match &node.kind {
        NodeKind::Lut(_)
        | NodeKind::Mac
        | NodeKind::WordInput { .. }
        | NodeKind::WordOutput { .. }
        | NodeKind::BitInput { .. } => {
            if avail[id.index()] {
                Ok(())
            } else {
                Err(FoldError::DependencyViolation {
                    node: consumer,
                    operand: id,
                })
            }
        }
        // Constants live in the initial planes; sequential nodes' slots
        // hold old state pre-latch and new state post-latch, exactly what
        // each segment should observe.
        NodeKind::ConstBit(_)
        | NodeKind::ConstWord(_)
        | NodeKind::Ff { .. }
        | NodeKind::WordReg { .. } => Ok(()),
        NodeKind::Pack | NodeKind::BitOutput { .. } => {
            if emitted[id.index()] {
                return Ok(());
            }
            for &inp in &node.inputs {
                resolve_emit(inp, id, segment, b, netlist, avail, emitted)?;
            }
            b.emit(id, segment);
            emitted[id.index()] = true;
            Ok(())
        }
        NodeKind::Unpack { .. } => {
            if emitted[id.index()] {
                return Ok(());
            }
            resolve_emit(node.inputs[0], id, segment, b, netlist, avail, emitted)?;
            b.emit(id, segment);
            emitted[id.index()] = true;
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraints::{FoldConstraints, LutMode};
    use crate::exec::FoldedExecutor;
    use crate::schedule::{FoldSchedule, FoldStep};
    use crate::scheduler::schedule_fold;
    use freac_netlist::builder::CircuitBuilder;
    use freac_netlist::techmap::{tech_map, TechMapOptions};

    /// Runs `cycles` cycles through both the interpreter and the compiled
    /// plan, requiring bit-identical outputs AND bit-identical exported
    /// counters.
    fn compiled_equals_interpreted(
        netlist: &Netlist,
        inputs: &[Value],
        cycles: usize,
        clusters: usize,
    ) {
        let cons = FoldConstraints::for_tile(clusters, LutMode::Lut4);
        let schedule = schedule_fold(netlist, &cons).unwrap();
        let plan = compile_fold(netlist, &schedule).unwrap();
        let mut fx = FoldedExecutor::new(netlist, &schedule);
        let mut px = plan.executor();
        let mut out = Vec::new();
        for c in 0..cycles {
            let reference = fx.run_cycle(inputs).unwrap();
            px.run_cycle_into(inputs, &mut out).unwrap();
            assert_eq!(out, reference, "cycle {c} diverged");
        }
        let mut ra = CounterRegistry::new();
        let mut rb = CounterRegistry::new();
        fx.export_into(&mut ra, "fold");
        px.export_into(&mut rb, "fold");
        assert_eq!(
            ra.counters().collect::<Vec<_>>(),
            rb.counters().collect::<Vec<_>>(),
            "compiled counters must match the interpreter"
        );
    }

    #[test]
    fn adder_compiles_correctly() {
        let mut b = CircuitBuilder::new("add");
        let a = b.word_input("a", 16);
        let c = b.word_input("b", 16);
        let s = b.add(&a, &c);
        b.word_output("s", &s);
        let n = tech_map(&b.finish().unwrap(), TechMapOptions::lut4()).unwrap();
        compiled_equals_interpreted(&n, &[Value::Word(65535), Value::Word(2)], 1, 1);
        compiled_equals_interpreted(&n, &[Value::Word(12345), Value::Word(54321 & 0xFFFF)], 2, 4);
    }

    #[test]
    fn rom_compiles_correctly() {
        let table: Vec<u32> = (0..256u32)
            .map(|i| i.wrapping_mul(197).wrapping_add(41) & 0xFF)
            .collect();
        let mut b = CircuitBuilder::new("rom");
        let a = b.word_input("a", 8);
        let v = b.rom(&table, a.bits(), 8);
        b.word_output("v", &v);
        let n = tech_map(&b.finish().unwrap(), TechMapOptions::lut4()).unwrap();
        for x in [0u32, 1, 127, 200, 255] {
            compiled_equals_interpreted(&n, &[Value::Word(x)], 1, 1);
        }
    }

    #[test]
    fn sequential_accumulator_compiles_correctly() {
        let mut b = CircuitBuilder::new("acc");
        let x = b.word_input("x", 16);
        let (acc, h) = b.word_reg(0, 16);
        let sum = b.add(&acc, &x);
        b.connect_word_reg(h, &sum);
        b.word_output("acc", &acc);
        let n = tech_map(&b.finish().unwrap(), TechMapOptions::lut4()).unwrap();
        compiled_equals_interpreted(&n, &[Value::Word(37)], 8, 1);
    }

    #[test]
    fn mac_pipeline_compiles_correctly() {
        let mut b = CircuitBuilder::new("macpipe");
        let a = b.word_input("a", 32);
        let c = b.word_input("b", 32);
        let (acc, h) = b.word_reg(0, 32);
        let m = b.mac(&a, &c, &acc);
        b.connect_word_reg(h, &m);
        b.word_output("acc", &acc);
        let n = tech_map(&b.finish().unwrap(), TechMapOptions::lut4()).unwrap();
        compiled_equals_interpreted(&n, &[Value::Word(3), Value::Word(5)], 5, 1);
    }

    #[test]
    fn bit_output_with_state_compiles_correctly() {
        // A bit output fed through free plumbing from sequential state
        // exercises the post-latch segment: the interpreter resolves
        // primary outputs *after* latching.
        let mut b = CircuitBuilder::new("done");
        let x = b.word_input("x", 8);
        let (cnt, h) = b.word_reg(0, 8);
        let next = b.add(&cnt, &x);
        b.connect_word_reg(h, &next);
        b.bit_output("msb", cnt.bit(7));
        b.word_output("cnt", &cnt);
        let n = tech_map(&b.finish().unwrap(), TechMapOptions::lut4()).unwrap();
        compiled_equals_interpreted(&n, &[Value::Word(100)], 6, 1);
    }

    #[test]
    fn input_shape_errors_leave_counters_untouched() {
        let mut b = CircuitBuilder::new("t");
        let a = b.word_input("a", 8);
        b.word_output("o", &a);
        let n = tech_map(&b.finish().unwrap(), TechMapOptions::lut4()).unwrap();
        let cons = FoldConstraints::for_tile(1, LutMode::Lut4);
        let schedule = schedule_fold(&n, &cons).unwrap();
        let plan = compile_fold(&n, &schedule).unwrap();
        let mut px = plan.executor();
        assert!(px.run_cycle(&[]).is_err());
        assert!(px.run_cycle(&[Value::Bit(false)]).is_err());
        assert_eq!(px.steps_executed(), 0);
        assert_eq!(px.cycles(), 0);
        let mut reg = CounterRegistry::new();
        px.export_into(&mut reg, "fold");
        assert_eq!(reg.counter("fold.passes"), 0);
        assert_eq!(reg.counter("fold.lut_evals"), 0);
    }

    #[test]
    fn bad_schedule_rejected_at_compile_time() {
        // The same reversed schedule the interpreter flags at runtime must
        // now fail in compile_fold, before any cycle runs, with identical
        // consumer/operand attribution.
        let mut b = CircuitBuilder::new("t");
        let a = b.word_input("a", 2);
        let x = b.xor(a.bit(0), a.bit(1));
        let nx = b.not(x);
        b.bit_output("nx", nx);
        let n = b.finish().unwrap();
        let mut luts: Vec<NodeId> = n
            .nodes()
            .iter()
            .enumerate()
            .filter(|(_, nd)| matches!(nd.kind, NodeKind::Lut(_)))
            .map(|(i, _)| NodeId(i as u32))
            .collect();
        let word_in = n.primary_inputs()[0];
        luts.reverse(); // consumer first: invalid order
        let steps = vec![
            FoldStep {
                luts: vec![luts[0]],
                macs: vec![],
                bus_reads: vec![word_in],
                bus_writes: vec![],
            },
            FoldStep {
                luts: vec![luts[1]],
                macs: vec![],
                bus_reads: vec![],
                bus_writes: vec![],
            },
        ];
        let bad = FoldSchedule::new(steps, 0, 8);
        let compile_err = compile_fold(&n, &bad).unwrap_err();
        let mut fx = FoldedExecutor::new(&n, &bad);
        let run_err = fx.run_cycle(&[Value::Word(1)]).unwrap_err();
        assert!(matches!(compile_err, FoldError::DependencyViolation { .. }));
        assert_eq!(
            compile_err, run_err,
            "compile-time report must match the interpreter's runtime report"
        );
    }

    #[test]
    fn unwritten_word_output_rejected_at_compile_time() {
        // A schedule that never bus-writes a word output must be rejected
        // with the interpreter's {node: o, operand: o} shape.
        let mut b = CircuitBuilder::new("t");
        let a = b.word_input("a", 4);
        b.word_output("o", &a);
        let n = b.finish().unwrap();
        let word_in = n.primary_inputs()[0];
        let steps = vec![FoldStep {
            luts: vec![],
            macs: vec![],
            bus_reads: vec![word_in],
            bus_writes: vec![],
        }];
        let sched = FoldSchedule::new(steps, 0, 8);
        let o = n.primary_outputs()[0];
        assert_eq!(
            compile_fold(&n, &sched).unwrap_err(),
            FoldError::DependencyViolation {
                node: o,
                operand: o
            }
        );
    }
}
