//! BLIF (Berkeley Logic Interchange Format) import and export.
//!
//! The EPFL benchmark suite the paper evaluates on ships as BLIF files.
//! This workspace regenerates the circuits structurally (no network
//! access), but a downstream user with the real files can load them
//! through [`parse_blif`] and run the exact original netlists through the
//! SIMPLER mapper and the ECC scheduler. [`write_blif`] exports any
//! [`Netlist`] for inspection with standard EDA tools (abc, yosys).
//!
//! Supported subset: `.model`, `.inputs`, `.outputs`, `.names` with
//! don't-cares and multi-line covers (on-set or off-set), `\`
//! line-continuations, `#` comments, `.end`. Latches and hierarchy are
//! rejected — the paper's flow is purely combinational.

use crate::builder::NetlistBuilder;
use crate::gate::{Gate, NodeId};
use crate::netlist::Netlist;
use crate::synth::{Synthesizer, TruthTable};
use std::collections::HashMap;
use std::fmt;

/// Errors raised while parsing BLIF text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BlifError {
    /// The file has no `.model` declaration.
    MissingModel,
    /// A construct outside the supported combinational subset.
    Unsupported {
        /// The offending directive (e.g. `.latch`).
        directive: String,
        /// 1-based line number.
        line: usize,
    },
    /// A `.names` cover row is malformed.
    BadCover {
        /// Description of the problem.
        reason: String,
        /// 1-based line number.
        line: usize,
    },
    /// A signal is referenced but never defined (and is not an input).
    UndefinedSignal {
        /// The signal name.
        name: String,
    },
    /// Two `.names` blocks drive the same signal.
    Redefined {
        /// The signal name.
        name: String,
    },
    /// Combinational loop among `.names` blocks.
    CombinationalLoop {
        /// A signal on the cycle.
        name: String,
    },
    /// A `.names` block has too many inputs to tabulate (> 16).
    TooManyInputs {
        /// The driven signal.
        name: String,
        /// Its input count.
        inputs: usize,
    },
    /// The model declares no `.outputs`: a netlist needs at least one.
    NoOutputs,
}

impl fmt::Display for BlifError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BlifError::MissingModel => write!(f, "missing .model declaration"),
            BlifError::Unsupported { directive, line } => {
                write!(f, "unsupported directive {directive} on line {line}")
            }
            BlifError::BadCover { reason, line } => {
                write!(f, "malformed cover on line {line}: {reason}")
            }
            BlifError::UndefinedSignal { name } => write!(f, "undefined signal {name}"),
            BlifError::Redefined { name } => write!(f, "signal {name} driven twice"),
            BlifError::CombinationalLoop { name } => {
                write!(f, "combinational loop through signal {name}")
            }
            BlifError::TooManyInputs { name, inputs } => {
                write!(f, "signal {name} has {inputs} cover inputs (max 16)")
            }
            BlifError::NoOutputs => write!(f, "model declares no outputs"),
        }
    }
}

impl std::error::Error for BlifError {}

/// One `.names` block: cover rows mapping input patterns to the output.
#[derive(Debug, Clone)]
struct NamesBlock {
    inputs: Vec<String>,
    /// Rows of `(pattern, value)`; pattern chars are '0', '1', '-'.
    rows: Vec<(String, bool)>,
    line: usize,
}

/// A parsed BLIF model, before elaboration.
#[derive(Debug, Clone)]
struct RawModel {
    name: String,
    inputs: Vec<String>,
    outputs: Vec<String>,
    blocks: HashMap<String, NamesBlock>,
}

/// Parses BLIF text into a [`Netlist`]. Input order follows the `.inputs`
/// declaration; output order follows `.outputs`.
///
/// # Errors
///
/// See [`BlifError`] for all failure modes.
///
/// # Example
///
/// ```
/// use pimecc_netlist::blif::parse_blif;
///
/// # fn main() -> Result<(), pimecc_netlist::blif::BlifError> {
/// let nl = parse_blif(
///     ".model xor2\n.inputs a b\n.outputs y\n.names a b y\n01 1\n10 1\n.end\n",
/// )?;
/// assert_eq!(nl.eval(&[true, false]), vec![true]);
/// assert_eq!(nl.eval(&[true, true]), vec![false]);
/// # Ok(())
/// # }
/// ```
pub fn parse_blif(text: &str) -> Result<Netlist, BlifError> {
    let raw = tokenize(text)?;
    elaborate(&raw)
}

fn logical_lines(text: &str) -> Vec<(usize, String)> {
    let mut out: Vec<(usize, String)> = Vec::new();
    let mut continuation = false;
    for (i, line) in text.lines().enumerate() {
        let line = match line.find('#') {
            Some(p) => &line[..p],
            None => line,
        };
        let (body, continues) = match line.trim_end().strip_suffix('\\') {
            Some(b) => (b.trim(), true),
            None => (line.trim(), false),
        };
        if continuation {
            if let Some(last) = out.last_mut() {
                last.1.push(' ');
                last.1.push_str(body);
            }
        } else if !body.is_empty() {
            out.push((i + 1, body.to_string()));
        }
        continuation = continues;
    }
    out
}

fn tokenize(text: &str) -> Result<RawModel, BlifError> {
    let mut model: Option<String> = None;
    let mut inputs = Vec::new();
    let mut outputs = Vec::new();
    let mut blocks: HashMap<String, NamesBlock> = HashMap::new();
    let mut current: Option<NamesBlock> = None;
    let mut current_output: Option<String> = None;

    let finish_block = |cur: &mut Option<NamesBlock>,
                        out: &mut Option<String>,
                        blocks: &mut HashMap<String, NamesBlock>|
     -> Result<(), BlifError> {
        if let (Some(block), Some(name)) = (cur.take(), out.take()) {
            if blocks.insert(name.clone(), block).is_some() {
                return Err(BlifError::Redefined { name });
            }
        }
        Ok(())
    };

    for (line_no, line) in logical_lines(text) {
        let mut parts = line.split_whitespace();
        let head = parts.next().unwrap_or("");
        match head {
            ".model" => {
                model = Some(parts.next().unwrap_or("top").to_string());
            }
            ".inputs" => inputs.extend(parts.map(str::to_string)),
            ".outputs" => outputs.extend(parts.map(str::to_string)),
            ".names" => {
                finish_block(&mut current, &mut current_output, &mut blocks)?;
                let signals: Vec<String> = parts.map(str::to_string).collect();
                let (output, ins) = match signals.split_last() {
                    Some((o, i)) => (o.clone(), i.to_vec()),
                    None => {
                        return Err(BlifError::BadCover {
                            reason: ".names with no signals".into(),
                            line: line_no,
                        })
                    }
                };
                current = Some(NamesBlock {
                    inputs: ins,
                    rows: Vec::new(),
                    line: line_no,
                });
                current_output = Some(output);
            }
            ".end" => break,
            ".latch" | ".subckt" | ".gate" | ".mlatch" | ".clock" => {
                return Err(BlifError::Unsupported {
                    directive: head.to_string(),
                    line: line_no,
                })
            }
            _ if head.starts_with('.') => {
                // Other dot-directives (e.g. .default_input_arrival) are
                // benign metadata; skip them.
            }
            _ => {
                // A cover row for the open .names block.
                let Some(block) = current.as_mut() else {
                    return Err(BlifError::BadCover {
                        reason: format!("cover row '{line}' outside .names"),
                        line: line_no,
                    });
                };
                let tokens: Vec<&str> = line.split_whitespace().collect();
                let (pattern, value) = match tokens.as_slice() {
                    [v] if block.inputs.is_empty() => (String::new(), *v),
                    [p, v] => ((*p).to_string(), *v),
                    _ => {
                        return Err(BlifError::BadCover {
                            reason: format!("expected 'pattern value', got '{line}'"),
                            line: line_no,
                        })
                    }
                };
                if pattern.len() != block.inputs.len() {
                    return Err(BlifError::BadCover {
                        reason: format!(
                            "pattern width {} does not match {} inputs",
                            pattern.len(),
                            block.inputs.len()
                        ),
                        line: line_no,
                    });
                }
                if !pattern.chars().all(|c| matches!(c, '0' | '1' | '-')) {
                    return Err(BlifError::BadCover {
                        reason: format!("bad pattern character in '{pattern}'"),
                        line: line_no,
                    });
                }
                let value = match value {
                    "1" => true,
                    "0" => false,
                    other => {
                        return Err(BlifError::BadCover {
                            reason: format!("output value must be 0/1, got '{other}'"),
                            line: line_no,
                        })
                    }
                };
                block.rows.push((pattern, value));
            }
        }
    }
    finish_block(&mut current, &mut current_output, &mut blocks)?;
    let name = model.ok_or(BlifError::MissingModel)?;
    Ok(RawModel {
        name,
        inputs,
        outputs,
        blocks,
    })
}

/// Elaborates the raw model into a netlist: resolves signal dependencies
/// topologically and synthesizes each cover via Shannon decomposition.
fn elaborate(raw: &RawModel) -> Result<Netlist, BlifError> {
    if raw.outputs.is_empty() {
        return Err(BlifError::NoOutputs);
    }
    let mut b = NetlistBuilder::new();
    let mut env: HashMap<String, NodeId> = HashMap::new();
    for name in &raw.inputs {
        let node = b.input();
        env.insert(name.clone(), node);
    }

    // Iterative topological elaboration with cycle detection.
    #[derive(Clone, Copy, PartialEq)]
    enum Mark {
        Visiting,
        Done,
    }
    let mut marks: HashMap<String, Mark> = HashMap::new();
    let mut synth = Synthesizer::new();

    for out in raw.outputs.iter() {
        // DFS stack of (signal, expanded?).
        let mut stack = vec![(out.clone(), false)];
        while let Some((name, expanded)) = stack.pop() {
            if env.contains_key(&name) && marks.get(&name) != Some(&Mark::Visiting) {
                continue;
            }
            let Some(block) = raw.blocks.get(&name) else {
                if env.contains_key(&name) {
                    continue;
                }
                return Err(BlifError::UndefinedSignal { name });
            };
            if expanded {
                // All dependencies resolved: synthesize the cover.
                let node = synthesize_cover(&mut b, &mut synth, block, &env)?;
                env.insert(name.clone(), node);
                marks.insert(name, Mark::Done);
                continue;
            }
            match marks.get(&name) {
                Some(Mark::Done) => continue,
                Some(Mark::Visiting) => {
                    return Err(BlifError::CombinationalLoop { name });
                }
                None => {}
            }
            marks.insert(name.clone(), Mark::Visiting);
            stack.push((name.clone(), true));
            for dep in &block.inputs {
                if !env.contains_key(dep) || marks.get(dep) == Some(&Mark::Visiting) {
                    if marks.get(dep) == Some(&Mark::Visiting) {
                        return Err(BlifError::CombinationalLoop { name: dep.clone() });
                    }
                    stack.push((dep.clone(), false));
                }
            }
        }
    }

    for out in &raw.outputs {
        let node = env
            .get(out)
            .copied()
            .ok_or_else(|| BlifError::UndefinedSignal { name: out.clone() })?;
        b.output(node);
    }
    let _ = &raw.name;
    Ok(b.finish())
}

fn synthesize_cover(
    b: &mut NetlistBuilder,
    synth: &mut Synthesizer,
    block: &NamesBlock,
    env: &HashMap<String, NodeId>,
) -> Result<NodeId, BlifError> {
    let k = block.inputs.len();
    if k > 16 {
        return Err(BlifError::TooManyInputs {
            name: block.inputs.join(","),
            inputs: k,
        });
    }
    // Constant blocks: no inputs. "1" row -> const 1; empty/0 -> const 0.
    if k == 0 {
        let value = block.rows.iter().any(|(_, v)| *v);
        return Ok(b.constant(value));
    }
    // The cover is either an on-set (all rows output 1) or an off-set.
    let on_set = block.rows.first().map(|(_, v)| *v).unwrap_or(true);
    if block.rows.iter().any(|(_, v)| *v != on_set) {
        return Err(BlifError::BadCover {
            reason: "mixed on-set and off-set rows".into(),
            line: block.line,
        });
    }
    let covered = |v: usize| -> bool {
        block.rows.iter().any(|(pattern, _)| {
            pattern.chars().enumerate().all(|(i, ch)| match ch {
                '0' => v >> i & 1 == 0,
                '1' => v >> i & 1 == 1,
                _ => true,
            })
        })
    };
    let table = TruthTable::from_fn(k, |v| covered(v) == on_set);
    let input_nodes: Vec<NodeId> = block
        .inputs
        .iter()
        .map(|n| {
            env.get(n)
                .copied()
                .ok_or_else(|| BlifError::UndefinedSignal { name: n.clone() })
        })
        .collect::<Result<_, _>>()?;
    Ok(synth.synthesize(b, &input_nodes, &table))
}

/// Serializes a netlist as BLIF.
///
/// Inputs are named `x0..`, outputs `y0..`, internal nodes `n<id>`.
///
/// # Example
///
/// ```
/// use pimecc_netlist::blif::{parse_blif, write_blif};
/// use pimecc_netlist::NetlistBuilder;
///
/// # fn main() -> Result<(), pimecc_netlist::blif::BlifError> {
/// let mut b = NetlistBuilder::new();
/// let p = b.input();
/// let q = b.input();
/// let g = b.and(p, q);
/// b.output(g);
/// let blif = write_blif(&b.finish(), "and2");
/// let back = parse_blif(&blif)?;
/// assert_eq!(back.eval(&[true, true]), vec![true]);
/// # Ok(())
/// # }
/// ```
pub fn write_blif(netlist: &Netlist, model_name: &str) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let name_of = |id: NodeId| -> String {
        match netlist.gate(id) {
            Gate::Input(i) => format!("x{i}"),
            _ => format!("n{}", id.index()),
        }
    };
    let _ = writeln!(out, ".model {model_name}");
    let input_names: Vec<String> = (0..netlist.num_inputs()).map(|i| format!("x{i}")).collect();
    let _ = writeln!(out, ".inputs {}", input_names.join(" "));
    let output_names: Vec<String> = (0..netlist.num_outputs())
        .map(|i| format!("y{i}"))
        .collect();
    let _ = writeln!(out, ".outputs {}", output_names.join(" "));

    for (idx, gate) in netlist.nodes().iter().enumerate() {
        let this = format!("n{idx}");
        let ops: Vec<String> = gate.operands().iter().map(|&o| name_of(o)).collect();
        match gate {
            Gate::Input(_) => {}
            Gate::Const(c) => {
                let _ = writeln!(out, ".names {this}");
                if *c {
                    let _ = writeln!(out, "1");
                }
            }
            Gate::Not(_) => {
                let _ = writeln!(out, ".names {} {this}\n0 1", ops[0]);
            }
            Gate::And(..) => {
                let _ = writeln!(out, ".names {} {} {this}\n11 1", ops[0], ops[1]);
            }
            Gate::Or(..) => {
                let _ = writeln!(out, ".names {} {} {this}\n1- 1\n-1 1", ops[0], ops[1]);
            }
            Gate::Nor(..) => {
                let _ = writeln!(out, ".names {} {} {this}\n00 1", ops[0], ops[1]);
            }
            Gate::Nand(..) => {
                let _ = writeln!(out, ".names {} {} {this}\n0- 1\n-0 1", ops[0], ops[1]);
            }
            Gate::Xor(..) => {
                let _ = writeln!(out, ".names {} {} {this}\n01 1\n10 1", ops[0], ops[1]);
            }
            Gate::Xnor(..) => {
                let _ = writeln!(out, ".names {} {} {this}\n00 1\n11 1", ops[0], ops[1]);
            }
            Gate::Mux { .. } => {
                // inputs: sel hi lo; output = sel?hi:lo
                let _ = writeln!(
                    out,
                    ".names {} {} {} {this}\n11- 1\n0-1 1",
                    ops[0], ops[1], ops[2]
                );
            }
            Gate::Maj(..) => {
                let _ = writeln!(
                    out,
                    ".names {} {} {} {this}\n11- 1\n1-1 1\n-11 1",
                    ops[0], ops[1], ops[2]
                );
            }
        }
    }
    // Output buffers connect internal names to y<i>.
    for (i, &o) in netlist.outputs().iter().enumerate() {
        let _ = writeln!(out, ".names {} y{i}\n1 1", name_of(o));
    }
    let _ = writeln!(out, ".end");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::Benchmark;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn parse_minimal_and_gate() {
        let nl = parse_blif(".model t\n.inputs a b\n.outputs y\n.names a b y\n11 1\n.end")
            .expect("parses");
        assert_eq!(nl.eval(&[true, true]), vec![true]);
        assert_eq!(nl.eval(&[true, false]), vec![false]);
    }

    #[test]
    fn parse_off_set_cover() {
        // Rows with output 0 define the OFF-set: y = NOT(a AND b).
        let nl = parse_blif(".model t\n.inputs a b\n.outputs y\n.names a b y\n11 0\n.end")
            .expect("parses");
        assert_eq!(nl.eval(&[true, true]), vec![false]);
        assert_eq!(nl.eval(&[false, true]), vec![true]);
    }

    #[test]
    fn parse_dont_cares_and_multi_row() {
        let nl =
            parse_blif(".model t\n.inputs a b c\n.outputs y\n.names a b c y\n1-- 1\n-11 1\n.end")
                .expect("parses");
        // y = a OR (b AND c)
        for v in 0..8usize {
            let ins: Vec<bool> = (0..3).map(|i| v >> i & 1 != 0).collect();
            assert_eq!(nl.eval(&ins)[0], ins[0] | (ins[1] & ins[2]), "v={v}");
        }
    }

    #[test]
    fn parse_constants() {
        let nl =
            parse_blif(".model t\n.inputs a\n.outputs one zero\n.names one\n1\n.names zero\n.end")
                .expect("parses");
        assert_eq!(nl.eval(&[false]), vec![true, false]);
    }

    #[test]
    fn parse_comments_and_continuations() {
        let nl = parse_blif(
            "# a comment\n.model t\n.inputs a \\\n b\n.outputs y # trailing\n.names a b y\n11 1\n.end",
        )
        .expect("parses");
        assert_eq!(nl.num_inputs(), 2);
        assert_eq!(nl.eval(&[true, true]), vec![true]);
    }

    #[test]
    fn blocks_elaborate_in_any_textual_order() {
        // y's block references t, defined later in the file.
        let nl = parse_blif(
            ".model t\n.inputs a b\n.outputs y\n.names t y\n0 1\n.names a b t\n11 1\n.end",
        )
        .expect("parses");
        // y = NOT(a AND b)
        assert_eq!(nl.eval(&[true, true]), vec![false]);
        assert_eq!(nl.eval(&[false, true]), vec![true]);
    }

    #[test]
    fn error_cases() {
        assert_eq!(
            parse_blif(".inputs a\n.outputs y\n").unwrap_err(),
            BlifError::MissingModel
        );
        assert!(matches!(
            parse_blif(".model t\n.inputs a\n.outputs y\n.latch a y re clk 0\n.end"),
            Err(BlifError::Unsupported { .. })
        ));
        assert!(matches!(
            parse_blif(".model t\n.inputs a\n.outputs y\n.names a y\n1 1\n.names a y\n0 1\n.end"),
            Err(BlifError::Redefined { .. })
        ));
        assert!(matches!(
            parse_blif(".model t\n.inputs a\n.outputs y\n.end"),
            Err(BlifError::UndefinedSignal { .. })
        ));
        assert!(matches!(
            parse_blif(".model t\n.inputs a\n.outputs y\n.names a y\n11 1\n.end"),
            Err(BlifError::BadCover { .. })
        ));
        assert!(matches!(
            parse_blif(".model t\n.inputs a\n.outputs y\n.names y2 y\n1 1\n.names y y2\n1 1\n.end"),
            Err(BlifError::CombinationalLoop { .. })
        ));
        assert!(matches!(
            parse_blif(".model t\n.inputs a\n.outputs y\n.names a y\n1 1\n0 0\n.end"),
            Err(BlifError::BadCover { .. })
        ));
    }

    #[test]
    fn error_display_is_informative() {
        let errs: Vec<BlifError> = vec![
            BlifError::MissingModel,
            BlifError::Unsupported {
                directive: ".latch".into(),
                line: 3,
            },
            BlifError::BadCover {
                reason: "x".into(),
                line: 9,
            },
            BlifError::UndefinedSignal { name: "q".into() },
            BlifError::Redefined { name: "q".into() },
            BlifError::CombinationalLoop { name: "q".into() },
            BlifError::TooManyInputs {
                name: "q".into(),
                inputs: 20,
            },
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn round_trip_small_circuits() {
        let mut b = NetlistBuilder::new();
        let ins = b.inputs(4);
        let g1 = b.xor(ins[0], ins[1]);
        let g2 = b.mux(ins[2], g1, ins[3]);
        let g3 = b.maj(g1, g2, ins[0]);
        let g4 = b.constant(true);
        b.output(g2);
        b.output(g3);
        b.output(g4);
        let nl = b.finish();
        let text = write_blif(&nl, "small");
        let back = parse_blif(&text).expect("round trip parses");
        for v in 0..16u32 {
            let ins: Vec<bool> = (0..4).map(|i| v >> i & 1 != 0).collect();
            assert_eq!(back.eval(&ins), nl.eval(&ins), "v={v}");
        }
    }

    #[test]
    fn round_trip_benchmarks_by_sampling() {
        let mut rng = StdRng::seed_from_u64(123);
        // Skip the largest circuits to keep test time sane; coverage of
        // every gate kind is guaranteed by the smaller ones.
        for bench in [
            Benchmark::Dec,
            Benchmark::Ctrl,
            Benchmark::Int2float,
            Benchmark::Priority,
            Benchmark::Cavlc,
        ] {
            let circuit = bench.build();
            let text = write_blif(&circuit.netlist, bench.name());
            let back = parse_blif(&text).unwrap_or_else(|e| panic!("{bench}: {e}"));
            assert_eq!(back.num_inputs(), circuit.netlist.num_inputs());
            assert_eq!(back.num_outputs(), circuit.netlist.num_outputs());
            for _ in 0..5 {
                let ins: Vec<bool> = (0..back.num_inputs()).map(|_| rng.gen()).collect();
                assert_eq!(back.eval(&ins), circuit.netlist.eval(&ins), "{bench}");
            }
        }
    }

    #[test]
    fn model_without_outputs_is_an_error() {
        assert_eq!(
            parse_blif(".model m\n.inputs a\n.end\n").unwrap_err(),
            BlifError::NoOutputs
        );
    }

    #[test]
    fn written_blif_mentions_model_and_io() {
        let mut b = NetlistBuilder::new();
        let x = b.input();
        let n = b.not(x);
        b.output(n);
        let text = write_blif(&b.finish(), "inv");
        assert!(text.starts_with(".model inv"));
        assert!(text.contains(".inputs x0"));
        assert!(text.contains(".outputs y0"));
        assert!(text.trim_end().ends_with(".end"));
    }
}
