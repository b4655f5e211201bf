//! Malformed-input fuzzing of the two netlist readers: the exported text
//! of every zoo circuit, mutated by a few seeded random edits, must parse
//! to a netlist or to a `BlifError`/`AigError` — never panic.

use pimecc_netlist::aiger::{parse_aag, write_aag};
use pimecc_netlist::blif::{parse_blif, write_blif};
use pimecc_netlist::generators::zoo;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Seeds per circuit and format.
const SEEDS: u64 = 300;

/// Lines a mutation may splice in: directives of both formats, bare
/// headers, stray cover rows and continuations.
const SPLICES: [&str; 14] = [
    ".model m",
    ".inputs",
    ".inputs extra",
    ".outputs",
    ".outputs y0",
    ".names",
    ".names x0 y0",
    ".end",
    ".latch x0 y0",
    "1 1",
    "-- 0",
    "\\",
    "aag 0 0 0 0 0",
    "0",
];

/// Applies one to four random edits to `text`, line- and token-wise: drop,
/// duplicate, swap or splice a line, drop or swap a token, add a `\`
/// continuation, or truncate the whole text.
fn mutate(text: &str, rng: &mut StdRng) -> String {
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    for _ in 0..rng.gen_range(1..5usize) {
        if lines.is_empty() {
            lines.push(String::new());
        }
        let i = rng.gen_range(0..lines.len());
        match rng.gen_range(0..8u32) {
            0 => {
                lines.remove(i);
            }
            1 => {
                let copy = lines[i].clone();
                let at = rng.gen_range(0..lines.len() + 1);
                lines.insert(at, copy);
            }
            2 => {
                let j = rng.gen_range(0..lines.len());
                lines.swap(i, j);
            }
            3 => {
                let at = rng.gen_range(0..lines.len() + 1);
                lines.insert(at, SPLICES[rng.gen_range(0..SPLICES.len())].to_string());
            }
            4 => {
                let mut tokens: Vec<&str> = lines[i].split_whitespace().collect();
                if !tokens.is_empty() {
                    tokens.remove(rng.gen_range(0..tokens.len()));
                }
                lines[i] = tokens.join(" ");
            }
            5 => {
                // A token from elsewhere in the text takes this token's
                // place: names, literals and header counts stay in range of
                // what the circuit itself uses.
                let j = rng.gen_range(0..lines.len());
                let donor: Vec<String> = lines[j].split_whitespace().map(str::to_string).collect();
                let mut tokens: Vec<String> =
                    lines[i].split_whitespace().map(str::to_string).collect();
                if !donor.is_empty() && !tokens.is_empty() {
                    let k = rng.gen_range(0..tokens.len());
                    tokens[k] = donor[rng.gen_range(0..donor.len())].clone();
                }
                lines[i] = tokens.join(" ");
            }
            6 => lines[i].push_str(" \\"),
            _ => {
                let keep = rng.gen_range(0..lines.len() + 1);
                lines.truncate(keep);
                if let Some(last) = lines.last_mut() {
                    let cut = rng.gen_range(0..last.len() + 1);
                    if last.is_char_boundary(cut) {
                        last.truncate(cut);
                    }
                }
            }
        }
    }
    let mut out = lines.join("\n");
    out.push('\n');
    out
}

/// Parses every mutant of every zoo circuit's `export` text with `parse`,
/// failing on the first panic with the circuit, seed and mutant text.
fn never_panics<T, E>(
    export: impl Fn(&pimecc_netlist::Netlist) -> String,
    parse: fn(&str) -> Result<T, E>,
) {
    for (c, circuit) in zoo().into_iter().enumerate() {
        let text = export(&circuit.netlist);
        for seed in 0..SEEDS {
            let mut rng = StdRng::seed_from_u64(seed << 8 | c as u64);
            let mutant = mutate(&text, &mut rng);
            let outcome = std::panic::catch_unwind(|| parse(&mutant).is_ok());
            assert!(
                outcome.is_ok(),
                "{} seed {seed}: parser panicked on\n{mutant}",
                circuit.name
            );
        }
    }
}

#[test]
fn mutated_blif_of_every_zoo_circuit_parses_or_errors() {
    never_panics(|nl| write_blif(nl, "zoo"), parse_blif);
}

#[test]
fn mutated_aag_of_every_zoo_circuit_parses_or_errors() {
    never_panics(write_aag, parse_aag);
}
