//! Error types for netlist construction, mapping, and evaluation.

use std::fmt;

use crate::graph::NodeId;

/// Errors produced while building, transforming, or evaluating a netlist.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum NetlistError {
    /// A combinational cycle was found involving the given node.
    ///
    /// Combinational loops are illegal; sequential feedback must go through a
    /// flip-flop node, which breaks the cycle for scheduling purposes.
    CombinationalCycle(NodeId),
    /// A node referenced an operand of the wrong signal type (bit vs word).
    TypeMismatch {
        /// The node whose operand was mistyped.
        node: NodeId,
        /// Human-readable description of the expected operand shape.
        expected: &'static str,
    },
    /// A node has a different number of inputs than its kind requires.
    ArityMismatch {
        /// The offending node.
        node: NodeId,
        /// Number of inputs the node kind requires.
        expected: usize,
        /// Number of inputs actually connected.
        found: usize,
    },
    /// A truth table was requested with an unsupported number of inputs.
    TruthTableTooWide {
        /// Requested input count.
        inputs: usize,
        /// Maximum supported input count.
        max: usize,
    },
    /// The number of primary input values supplied to the evaluator does not
    /// match the netlist's primary input count.
    InputCountMismatch {
        /// Number of primary inputs the netlist declares.
        expected: usize,
        /// Number of values supplied.
        found: usize,
    },
    /// A batch pass was handed no lanes, or more lanes than its state's
    /// bit-slice width holds.
    LaneCountOutOfRange {
        /// Lanes one pass over the batch state evaluates.
        capacity: usize,
        /// Number of lanes supplied.
        found: usize,
    },
    /// A primary input value had the wrong signal type.
    InputTypeMismatch {
        /// Index of the primary input.
        index: usize,
    },
    /// Technology mapping was asked for a LUT size outside `2..=6`.
    BadLutSize(usize),
    /// A node id was out of range for the netlist it was used with.
    UnknownNode(NodeId),
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistError::CombinationalCycle(n) => {
                write!(f, "combinational cycle through node {n}")
            }
            NetlistError::TypeMismatch { node, expected } => {
                write!(f, "type mismatch at node {node}: expected {expected}")
            }
            NetlistError::ArityMismatch {
                node,
                expected,
                found,
            } => write!(
                f,
                "arity mismatch at node {node}: expected {expected} inputs, found {found}"
            ),
            NetlistError::TruthTableTooWide { inputs, max } => {
                write!(
                    f,
                    "truth table with {inputs} inputs exceeds maximum of {max}"
                )
            }
            NetlistError::InputCountMismatch { expected, found } => write!(
                f,
                "primary input count mismatch: netlist has {expected}, got {found} values"
            ),
            NetlistError::LaneCountOutOfRange { capacity, found } => write!(
                f,
                "batch of {found} lanes does not fit a state of 1..={capacity} lanes"
            ),
            NetlistError::InputTypeMismatch { index } => {
                write!(f, "primary input {index} has the wrong signal type")
            }
            NetlistError::BadLutSize(k) => {
                write!(f, "unsupported LUT size {k}, must be between 2 and 6")
            }
            NetlistError::UnknownNode(n) => write!(f, "node {n} does not exist in this netlist"),
        }
    }
}

impl std::error::Error for NetlistError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_and_lowercase() {
        let errs: Vec<NetlistError> = vec![
            NetlistError::CombinationalCycle(NodeId(3)),
            NetlistError::TypeMismatch {
                node: NodeId(1),
                expected: "bit operand",
            },
            NetlistError::ArityMismatch {
                node: NodeId(0),
                expected: 3,
                found: 2,
            },
            NetlistError::TruthTableTooWide {
                inputs: 19,
                max: 16,
            },
            NetlistError::InputCountMismatch {
                expected: 2,
                found: 1,
            },
            NetlistError::LaneCountOutOfRange {
                capacity: 64,
                found: 100,
            },
            NetlistError::InputTypeMismatch { index: 0 },
            NetlistError::BadLutSize(9),
            NetlistError::UnknownNode(NodeId(42)),
        ];
        for e in errs {
            let s = e.to_string();
            assert!(!s.is_empty());
            assert!(s.chars().next().unwrap().is_lowercase());
        }
    }
}
