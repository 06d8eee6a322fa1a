//! Every LUT function the bit-sliced batch engine can meet, checked lane
//! by lane: all tables of 0–4 inputs (2 + 2² + 2⁴ + 2⁸ + 2¹⁶ of them) and
//! seeded random tables of 5 and 6 inputs. Each table is a single-LUT
//! netlist whose input rows each get their own lane; every batch width
//! (`BatchState<1/4/8>`) must reproduce the single-vector
//! `run_cycle_into`, which in turn must read the table.

use freac_netlist::builder::CircuitBuilder;
use freac_netlist::{compile, ExecPlan, TruthTable, Value};
use freac_rand::Rng64;

/// Random tables checked per arity above four.
const RANDOM_TABLES: usize = 2_000;

/// One lane per input row: input `k` of row `r` is bit `k` of `r`.
fn row_lanes(inputs: usize) -> Vec<Vec<Value>> {
    (0..1usize << inputs)
        .map(|row| {
            (0..inputs)
                .map(|k| Value::Bit((row >> k) & 1 == 1))
                .collect()
        })
        .collect()
}

fn batch_matches<const N: usize>(plan: &ExecPlan, lanes: &[Vec<Value>], expect: &[Vec<Value>]) {
    let mut state = plan.new_wide_batch_state::<N>();
    let mut out = Vec::new();
    plan.run_wide_batch_cycle(&mut state, lanes, &mut out)
        .expect("every row fits one batch");
    assert_eq!(out, expect, "{}-lane batch diverged", N * 64);
}

fn check_table(table: &TruthTable, lanes: &[Vec<Value>]) {
    let mut b = CircuitBuilder::new("lut");
    let ins: Vec<_> = (0..table.inputs())
        .map(|k| b.bit_input(&format!("i{k}")))
        .collect();
    let y = b.lut(table.clone(), &ins);
    b.bit_output("y", y);
    let plan = compile(&b.finish().expect("single-LUT netlist is valid")).expect("compiles");

    let mut state = plan.new_state();
    let mut expect = Vec::with_capacity(lanes.len());
    let mut out = Vec::new();
    for (row, lane) in lanes.iter().enumerate() {
        plan.run_cycle_into(&mut state, lane, &mut out)
            .expect("single-vector cycle");
        assert_eq!(out, [Value::Bit(table.get(row))], "{table:?} row {row}");
        expect.push(out.clone());
    }
    batch_matches::<1>(&plan, lanes, &expect);
    batch_matches::<4>(&plan, lanes, &expect);
    batch_matches::<8>(&plan, lanes, &expect);
}

#[test]
fn every_table_up_to_four_inputs_matches_single_vector() {
    for inputs in 0..=4 {
        let lanes = row_lanes(inputs);
        let rows = 1usize << inputs;
        for bits in 0..1u64 << rows {
            let table = TruthTable::from_fn(inputs, |row| (bits >> row) & 1 == 1).expect("small");
            check_table(&table, &lanes);
        }
    }
}

#[test]
fn random_five_and_six_input_tables_match_single_vector() {
    let mut rng = Rng64::new(0x5a17_7ab1e5);
    for inputs in [5, 6] {
        let lanes = row_lanes(inputs);
        for _ in 0..RANDOM_TABLES {
            let bits = rng.next_u64();
            let table = TruthTable::from_fn(inputs, |row| (bits >> row) & 1 == 1).expect("small");
            check_table(&table, &lanes);
        }
    }
}
