//! ASCII AIGER (`.aag`) import and export.
//!
//! The EPFL benchmark suite's primary distribution format is the
//! And-Inverter Graph; this module reads and writes the ASCII AIGER
//! flavour so original benchmark files can run through the SIMPLER/ECC
//! flow unmodified, and our regenerated circuits can be handed to ABC &
//! friends for independent verification.
//!
//! Supported: combinational AAG (`aag M I L O A` with `L = 0`), comments,
//! and the constant literals 0/1. Latches are rejected (the paper's flow
//! is combinational).

use crate::builder::NetlistBuilder;
use crate::gate::{Gate, NodeId};
use crate::netlist::Netlist;
use std::collections::HashMap;
use std::fmt;

/// Errors raised while parsing AAG text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AigError {
    /// The header line is missing or malformed.
    BadHeader {
        /// What was found.
        found: String,
    },
    /// The file declares latches, which are unsupported.
    HasLatches {
        /// Number of latches declared.
        latches: usize,
    },
    /// A line has the wrong number of fields or a non-numeric literal.
    BadLine {
        /// 1-based line number.
        line: usize,
        /// Description.
        reason: String,
    },
    /// A literal exceeds the declared maximum variable index.
    LiteralOutOfRange {
        /// The literal.
        literal: u64,
        /// Declared maximum variable index `M`.
        max_var: u64,
    },
    /// An AND gate's output literal is negated or is an input/constant.
    BadAndOutput {
        /// The literal.
        literal: u64,
    },
    /// An AND references a variable defined by no input or earlier AND.
    UndefinedVariable {
        /// The variable index.
        variable: u64,
    },
    /// The header declares no outputs: a netlist needs at least one.
    NoOutputs,
}

impl fmt::Display for AigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AigError::BadHeader { found } => write!(f, "malformed aag header: '{found}'"),
            AigError::HasLatches { latches } => {
                write!(f, "sequential aig with {latches} latches is unsupported")
            }
            AigError::BadLine { line, reason } => write!(f, "aag line {line}: {reason}"),
            AigError::LiteralOutOfRange { literal, max_var } => {
                write!(f, "literal {literal} exceeds max variable {max_var}")
            }
            AigError::BadAndOutput { literal } => {
                write!(
                    f,
                    "and output literal {literal} must be a fresh even literal"
                )
            }
            AigError::UndefinedVariable { variable } => {
                write!(f, "variable {variable} is never defined")
            }
            AigError::NoOutputs => write!(f, "aag declares no outputs"),
        }
    }
}

impl std::error::Error for AigError {}

/// Parses ASCII AIGER into a [`Netlist`].
///
/// # Errors
///
/// See [`AigError`].
///
/// # Example
///
/// ```
/// use pimecc_netlist::aiger::parse_aag;
///
/// # fn main() -> Result<(), pimecc_netlist::aiger::AigError> {
/// // AND of two inputs: literals 2 and 4 in, gate 6, output 6.
/// let nl = parse_aag("aag 3 2 0 1 1\n2\n4\n6\n6 2 4\n")?;
/// assert_eq!(nl.eval(&[true, true]), vec![true]);
/// assert_eq!(nl.eval(&[true, false]), vec![false]);
/// # Ok(())
/// # }
/// ```
pub fn parse_aag(text: &str) -> Result<Netlist, AigError> {
    let mut lines = text.lines().enumerate();
    let (_, header) = lines.next().ok_or_else(|| AigError::BadHeader {
        found: String::new(),
    })?;
    let fields: Vec<&str> = header.split_whitespace().collect();
    let nums: Vec<u64> = fields
        .iter()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    if fields.first() != Some(&"aag") || nums.len() != 5 {
        return Err(AigError::BadHeader {
            found: header.to_string(),
        });
    }
    let (max_var, num_in, num_latch, num_out, num_and) = (
        nums[0],
        nums[1] as usize,
        nums[2] as usize,
        nums[3] as usize,
        nums[4] as usize,
    );
    if num_latch != 0 {
        return Err(AigError::HasLatches { latches: num_latch });
    }
    if num_out == 0 {
        return Err(AigError::NoOutputs);
    }

    let mut b = NetlistBuilder::new();
    // var index -> positive-polarity node (var 0 is the constant FALSE).
    // A map, not a table sized by the header: nothing is allocated for a
    // count the text does not back with lines.
    let mut nodes: HashMap<u64, NodeId> = HashMap::new();
    nodes.insert(0, b.constant(false));

    let read_numbers = |expected: usize,
                        lines: &mut std::iter::Enumerate<std::str::Lines<'_>>|
     -> Result<Vec<(usize, Vec<u64>)>, AigError> {
        let mut out = Vec::new();
        while out.len() < expected {
            let Some((i, raw)) = lines.next() else {
                return Err(AigError::BadLine {
                    line: i_last(&out),
                    reason: "unexpected end of file".into(),
                });
            };
            let line = raw.trim();
            if line.is_empty() {
                continue;
            }
            let vals: Result<Vec<u64>, _> = line.split_whitespace().map(str::parse).collect();
            match vals {
                Ok(v) => out.push((i + 1, v)),
                Err(_) => {
                    return Err(AigError::BadLine {
                        line: i + 1,
                        reason: format!("non-numeric token in '{line}'"),
                    })
                }
            }
        }
        Ok(out)
    };

    fn i_last(v: &[(usize, Vec<u64>)]) -> usize {
        v.last().map(|(i, _)| *i).unwrap_or(1)
    }

    // Inputs: even literals 2, 4, ...
    let input_lines = read_numbers(num_in, &mut lines)?;
    for (line, vals) in &input_lines {
        let [lit] = vals.as_slice() else {
            return Err(AigError::BadLine {
                line: *line,
                reason: "input needs 1 literal".into(),
            });
        };
        if lit % 2 != 0 || lit / 2 > max_var {
            return Err(AigError::LiteralOutOfRange {
                literal: *lit,
                max_var,
            });
        }
        let node = b.input();
        nodes.insert(lit / 2, node);
    }

    // Outputs (literals, possibly negated) — resolved after ANDs.
    let output_lines = read_numbers(num_out, &mut lines)?;

    // AND gates: `lhs rhs0 rhs1`.
    let and_lines = read_numbers(num_and, &mut lines)?;
    for (line, vals) in &and_lines {
        let [lhs, rhs0, rhs1] = vals.as_slice() else {
            return Err(AigError::BadLine {
                line: *line,
                reason: "and needs 3 literals".into(),
            });
        };
        for lit in [lhs, rhs0, rhs1] {
            if lit / 2 > max_var {
                return Err(AigError::LiteralOutOfRange {
                    literal: *lit,
                    max_var,
                });
            }
        }
        if lhs % 2 != 0 || nodes.contains_key(&(lhs / 2)) {
            return Err(AigError::BadAndOutput { literal: *lhs });
        }
        let a = literal_node(&mut b, &nodes, *rhs0)?;
        let c = literal_node(&mut b, &nodes, *rhs1)?;
        let node = b.and(a, c);
        nodes.insert(lhs / 2, node);
    }

    for (line, vals) in &output_lines {
        let [lit] = vals.as_slice() else {
            return Err(AigError::BadLine {
                line: *line,
                reason: "output needs 1 literal".into(),
            });
        };
        if lit / 2 > max_var {
            return Err(AigError::LiteralOutOfRange {
                literal: *lit,
                max_var,
            });
        }
        let node = literal_node(&mut b, &nodes, *lit)?;
        b.output(node);
    }
    Ok(b.finish())
}

/// Resolves an AIGER literal (variable + polarity) to a netlist node.
fn literal_node(
    b: &mut NetlistBuilder,
    nodes: &HashMap<u64, NodeId>,
    literal: u64,
) -> Result<NodeId, AigError> {
    let var = literal / 2;
    let node = *nodes
        .get(&var)
        .ok_or(AigError::UndefinedVariable { variable: var })?;
    Ok(if literal % 2 == 1 { b.not(node) } else { node })
}

/// Serializes a netlist as ASCII AIGER, structurally rewriting every gate
/// into AND/NOT form.
///
/// # Example
///
/// ```
/// use pimecc_netlist::aiger::{parse_aag, write_aag};
/// use pimecc_netlist::NetlistBuilder;
///
/// # fn main() -> Result<(), pimecc_netlist::aiger::AigError> {
/// let mut b = NetlistBuilder::new();
/// let x = b.input();
/// let y = b.input();
/// let g = b.xor(x, y);
/// b.output(g);
/// let round = parse_aag(&write_aag(&b.finish()))?;
/// assert_eq!(round.eval(&[true, false]), vec![true]);
/// assert_eq!(round.eval(&[true, true]), vec![false]);
/// # Ok(())
/// # }
/// ```
pub fn write_aag(netlist: &Netlist) -> String {
    // Literal of each source node; ANDs are emitted on demand.
    let mut lits: Vec<u64> = Vec::with_capacity(netlist.nodes().len());
    let mut ands: Vec<(u64, u64, u64)> = Vec::new();
    let mut next_var: u64 = netlist.num_inputs() as u64; // vars 1..=I are inputs

    let mut fresh_and = |a: u64, c: u64, ands: &mut Vec<(u64, u64, u64)>| -> u64 {
        next_var += 1;
        let lhs = next_var * 2;
        ands.push((lhs, a, c));
        lhs
    };

    for gate in netlist.nodes() {
        let lit = match *gate {
            Gate::Input(i) => (i as u64 + 1) * 2,
            Gate::Const(c) => c as u64, // 0 = false, 1 = true
            Gate::Not(a) => lits[a.index()] ^ 1,
            Gate::And(a, c) => fresh_and(lits[a.index()], lits[c.index()], &mut ands),
            Gate::Or(a, c) => fresh_and(lits[a.index()] ^ 1, lits[c.index()] ^ 1, &mut ands) ^ 1,
            Gate::Nor(a, c) => fresh_and(lits[a.index()] ^ 1, lits[c.index()] ^ 1, &mut ands),
            Gate::Nand(a, c) => fresh_and(lits[a.index()], lits[c.index()], &mut ands) ^ 1,
            Gate::Xor(a, c) => {
                let (la, lc) = (lits[a.index()], lits[c.index()]);
                let u = fresh_and(la, lc ^ 1, &mut ands);
                let v = fresh_and(la ^ 1, lc, &mut ands);
                fresh_and(u ^ 1, v ^ 1, &mut ands) ^ 1
            }
            Gate::Xnor(a, c) => {
                let (la, lc) = (lits[a.index()], lits[c.index()]);
                let u = fresh_and(la, lc ^ 1, &mut ands);
                let v = fresh_and(la ^ 1, lc, &mut ands);
                fresh_and(u ^ 1, v ^ 1, &mut ands)
            }
            Gate::Mux { sel, hi, lo } => {
                let (ls, lh, ll) = (lits[sel.index()], lits[hi.index()], lits[lo.index()]);
                let u = fresh_and(ls, lh, &mut ands);
                let v = fresh_and(ls ^ 1, ll, &mut ands);
                fresh_and(u ^ 1, v ^ 1, &mut ands) ^ 1
            }
            Gate::Maj(a, c, d) => {
                let (la, lc, ld) = (lits[a.index()], lits[c.index()], lits[d.index()]);
                let u = fresh_and(la, lc, &mut ands);
                let v = fresh_and(la, ld, &mut ands);
                let w = fresh_and(lc, ld, &mut ands);
                let uv = fresh_and(u ^ 1, v ^ 1, &mut ands);
                fresh_and(uv, w ^ 1, &mut ands) ^ 1
            }
        };
        lits.push(lit);
    }

    let mut out = String::new();
    use std::fmt::Write as _;
    let _ = writeln!(
        out,
        "aag {} {} 0 {} {}",
        next_var,
        netlist.num_inputs(),
        netlist.num_outputs(),
        ands.len()
    );
    for i in 0..netlist.num_inputs() {
        let _ = writeln!(out, "{}", (i as u64 + 1) * 2);
    }
    for o in netlist.outputs() {
        let _ = writeln!(out, "{}", lits[o.index()]);
    }
    for (lhs, a, c) in ands {
        let _ = writeln!(out, "{lhs} {a} {c}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::Benchmark;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn parse_minimal_and() {
        let nl = parse_aag("aag 3 2 0 1 1\n2\n4\n6\n6 2 4\n").expect("parses");
        for (a, b) in [(false, false), (true, false), (true, true)] {
            assert_eq!(nl.eval(&[a, b]), vec![a & b]);
        }
    }

    #[test]
    fn parse_negated_output_and_constants() {
        // Output = NOT input; plus constant-true output (literal 1).
        let nl = parse_aag("aag 1 1 0 2 0\n2\n3\n1\n").expect("parses");
        assert_eq!(nl.eval(&[false]), vec![true, true]);
        assert_eq!(nl.eval(&[true]), vec![false, true]);
    }

    #[test]
    fn rejects_latches_and_bad_headers() {
        assert!(matches!(
            parse_aag("aag 3 1 1 1 0\n2\n4 2\n2\n"),
            Err(AigError::HasLatches { latches: 1 })
        ));
        assert!(matches!(
            parse_aag("nonsense"),
            Err(AigError::BadHeader { .. })
        ));
        assert!(matches!(parse_aag(""), Err(AigError::BadHeader { .. })));
    }

    #[test]
    fn rejects_malformed_bodies() {
        assert!(matches!(
            parse_aag("aag 3 2 0 1 1\n2\n4\n6\n6 2\n"),
            Err(AigError::BadLine { .. })
        ));
        assert!(matches!(
            parse_aag("aag 3 2 0 1 1\n2\n4\n99\n6 2 4\n"),
            Err(AigError::LiteralOutOfRange { literal: 99, .. })
        ));
        assert!(matches!(
            parse_aag("aag 3 2 0 1 1\n2\n4\n6\n7 2 4\n"),
            Err(AigError::BadAndOutput { literal: 7 })
        ));
        assert!(matches!(
            parse_aag("aag 3 2 0 1 1\n2\n4\n6\nx y z\n"),
            Err(AigError::BadLine { .. })
        ));
    }

    #[test]
    fn error_display() {
        for e in [
            AigError::BadHeader { found: "x".into() },
            AigError::HasLatches { latches: 2 },
            AigError::BadLine {
                line: 3,
                reason: "r".into(),
            },
            AigError::LiteralOutOfRange {
                literal: 9,
                max_var: 3,
            },
            AigError::BadAndOutput { literal: 7 },
            AigError::UndefinedVariable { variable: 4 },
        ] {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn round_trip_every_gate_kind() {
        let mut b = NetlistBuilder::new();
        let ins = b.inputs(3);
        let gates = [
            b.and(ins[0], ins[1]),
            b.or(ins[0], ins[2]),
            b.nor(ins[1], ins[2]),
            b.nand(ins[0], ins[1]),
            b.xor(ins[0], ins[2]),
            b.xnor(ins[1], ins[2]),
            b.mux(ins[0], ins[1], ins[2]),
            b.maj(ins[0], ins[1], ins[2]),
            b.not(ins[0]),
            b.constant(true),
        ];
        b.output_all(gates);
        let nl = b.finish();
        let round = parse_aag(&write_aag(&nl)).expect("round trip");
        for v in 0..8usize {
            let inputs: Vec<bool> = (0..3).map(|i| v >> i & 1 != 0).collect();
            assert_eq!(round.eval(&inputs), nl.eval(&inputs), "v={v}");
        }
    }

    #[test]
    fn round_trip_benchmarks_by_sampling() {
        let mut rng = StdRng::seed_from_u64(321);
        for bench in [
            Benchmark::Dec,
            Benchmark::Int2float,
            Benchmark::Ctrl,
            Benchmark::Adder,
        ] {
            let c = bench.build();
            let round =
                parse_aag(&write_aag(&c.netlist)).unwrap_or_else(|e| panic!("{bench}: {e}"));
            assert_eq!(round.num_inputs(), c.netlist.num_inputs(), "{bench}");
            assert_eq!(round.num_outputs(), c.netlist.num_outputs(), "{bench}");
            for _ in 0..5 {
                let inputs: Vec<bool> = (0..round.num_inputs()).map(|_| rng.gen()).collect();
                assert_eq!(round.eval(&inputs), c.netlist.eval(&inputs), "{bench}");
            }
        }
    }

    #[test]
    fn header_without_outputs_is_an_error() {
        assert_eq!(
            parse_aag("aag 0 0 0 0 0\n").unwrap_err(),
            AigError::NoOutputs
        );
    }

    #[test]
    fn header_counts_beyond_the_text_are_errors_not_allocations() {
        // Neither count is backed by lines: nothing may be sized by it.
        let max_var = format!("aag {} 1 0 1 0\n2\n2\n", u64::MAX);
        assert_eq!(parse_aag(&max_var).expect("parses").eval(&[true]), [true]);
        assert!(matches!(
            parse_aag("aag 3 99999999999 0 1 0\n2\n").unwrap_err(),
            AigError::BadLine { .. }
        ));
    }

    #[test]
    fn written_header_counts_are_consistent() {
        let mut b = NetlistBuilder::new();
        let x = b.input();
        let y = b.input();
        let g = b.xor(x, y);
        b.output(g);
        let text = write_aag(&b.finish());
        let header: Vec<&str> = text.lines().next().unwrap().split_whitespace().collect();
        let a: usize = header[5].parse().unwrap();
        // XOR = 3 ANDs.
        assert_eq!(a, 3);
        // Body line count = I + O + A + header.
        assert_eq!(text.lines().count(), 1 + 2 + 1 + a);
    }
}
