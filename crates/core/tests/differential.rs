//! Differential property tests pinning the word-parallel simulation engine
//! bit-identical to the retained scalar reference: same cell states, same
//! check-bits, same [`MachineStats`], same [`CheckReport`]s — across both
//! axes, geometries whose `n` is *not* a multiple of 64 (the slack-bit
//! edge), and mixed op sequences ending in `verify_consistency`. On a fully
//! covered machine the word engine also takes its fused paths (batched
//! word-plane loads, compiled column replays), which the reference runs one
//! line or one step at a time.
//!
//! The word engine answers checks of verified blocks from its verified map
//! and the reference never does, so the op mix includes every call that
//! can put a block's data and check-bits out of step — soft errors in data
//! and check-bits, stuck cells, block resets, coverage changes and
//! pre-write checking toggled mid-sequence. A missing invalidation shows
//! up as a report, statistics or check-bit mismatch.
//!
//! The case count defaults to 24; `PIMECC_DIFF_CASES` raises it (CI does).

use pimecc_core::shifter::Family;
use pimecc_core::{BlockGeometry, CheckReport, MachineStats, ProtectedMemory, SimEngine};
use pimecc_xbar::{BitGrid, LineSet, ParallelStep};
use proptest::prelude::*;

/// Geometries spanning the word-boundary edge cases: `n % 64` of 9, 15, 1
/// (n = 65: one slack bit), 6, 0 (n = 192: exact words) and 62.
const GEOMETRIES: &[(usize, usize)] = &[(9, 3), (15, 5), (65, 5), (70, 7), (192, 3), (126, 9)];

fn machine(n: usize, m: usize, engine: SimEngine) -> ProtectedMemory {
    let mut pm = ProtectedMemory::new(BlockGeometry::new(n, m).expect("geom")).expect("machine");
    pm.set_engine(engine);
    pm
}

fn random_grid(n: usize, seed: u64) -> BitGrid {
    let mut g = BitGrid::new(n, n);
    let mut s = seed | 1;
    for r in 0..n {
        for c in 0..n {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            g.set(r, c, s >> 63 != 0);
        }
    }
    g
}

/// One randomly drawn machine operation (indices are reduced modulo the
/// geometry when applied, so one plan serves every geometry).
#[derive(Debug, Clone)]
enum Op {
    InitRows {
        cols: Vec<usize>,
        sel: u8,
        a: usize,
        b: usize,
    },
    NorRows {
        ins: Vec<usize>,
        out: usize,
        sel: u8,
        a: usize,
        b: usize,
    },
    InitCols {
        rows: Vec<usize>,
        sel: u8,
        a: usize,
        b: usize,
    },
    NorCols {
        ins: Vec<usize>,
        out: usize,
        sel: u8,
        a: usize,
        b: usize,
    },
    WriteRow {
        line: usize,
        cells: Vec<(usize, bool)>,
    },
    WriteCol {
        line: usize,
        cells: Vec<(usize, bool)>,
    },
    Fault {
        r: usize,
        c: usize,
    },
    CheckFault {
        lead: bool,
        d: usize,
        br: usize,
        bc: usize,
    },
    CheckRow {
        bl: usize,
    },
    CheckCol {
        bl: usize,
    },
    Scrub,
    /// A batched row load: each listed line with its `(column, value)`
    /// cells (lines are made distinct when applied; cell lists may be
    /// empty).
    LoadRows {
        lines: Vec<(usize, Vec<(usize, bool)>)>,
    },
    /// The column transpose of [`Op::LoadRows`].
    LoadCols {
        lines: Vec<(usize, Vec<(usize, bool)>)>,
    },
    /// A self-arming gate sequence over rows, replayed column-parallel
    /// across the columns `a..=b` (in either order).
    FusedCols {
        gates: Vec<(usize, usize, usize)>,
        a: usize,
        b: usize,
    },
    CheckAllCols,
    /// Pins a cell at a value (`set_stuck`).
    Stuck {
        r: usize,
        c: usize,
        v: bool,
    },
    /// The direct block reset (`reset_block`).
    ResetBlock {
        br: usize,
        bc: usize,
    },
    /// Covers or uncovers one block (`set_block_covered`).
    Cover {
        br: usize,
        bc: usize,
        on: bool,
    },
    /// Turns pre-write checking on or off (`set_check_on_critical`).
    Paranoid(bool),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let idx = || 0usize..10_000;
    let idxs = || proptest::collection::vec(0usize..10_000, 1..4);
    let cells = || proptest::collection::vec((0usize..10_000, any::<bool>()), 1..6);
    let load = || {
        proptest::collection::vec(
            (
                0usize..10_000,
                proptest::collection::vec((0usize..10_000, any::<bool>()), 0..6),
            ),
            1..5,
        )
    };
    let gates = || proptest::collection::vec((idx(), idx(), idx()), 1..6);
    prop_oneof![
        (idxs(), 0u8..3, idx(), idx()).prop_map(|(cols, sel, a, b)| Op::InitRows {
            cols,
            sel,
            a,
            b
        }),
        (idxs(), idx(), 0u8..3, idx(), idx()).prop_map(|(ins, out, sel, a, b)| Op::NorRows {
            ins,
            out,
            sel,
            a,
            b
        }),
        (idxs(), 0u8..3, idx(), idx()).prop_map(|(rows, sel, a, b)| Op::InitCols {
            rows,
            sel,
            a,
            b
        }),
        (idxs(), idx(), 0u8..3, idx(), idx()).prop_map(|(ins, out, sel, a, b)| Op::NorCols {
            ins,
            out,
            sel,
            a,
            b
        }),
        (idx(), cells()).prop_map(|(line, cells)| Op::WriteRow { line, cells }),
        (idx(), cells()).prop_map(|(line, cells)| Op::WriteCol { line, cells }),
        (idx(), idx()).prop_map(|(r, c)| Op::Fault { r, c }),
        (any::<bool>(), idx(), idx(), idx()).prop_map(|(lead, d, br, bc)| Op::CheckFault {
            lead,
            d,
            br,
            bc
        }),
        idx().prop_map(|bl| Op::CheckRow { bl }),
        idx().prop_map(|bl| Op::CheckCol { bl }),
        Just(Op::Scrub),
        load().prop_map(|lines| Op::LoadRows { lines }),
        load().prop_map(|lines| Op::LoadCols { lines }),
        (gates(), idx(), idx()).prop_map(|(gates, a, b)| Op::FusedCols { gates, a, b }),
        Just(Op::CheckAllCols),
        (idx(), idx(), any::<bool>()).prop_map(|(r, c, v)| Op::Stuck { r, c, v }),
        (idx(), idx()).prop_map(|(br, bc)| Op::ResetBlock { br, bc }),
        (idx(), idx(), any::<bool>()).prop_map(|(br, bc, on)| Op::Cover { br, bc, on }),
        any::<bool>().prop_map(Op::Paranoid),
    ]
}

/// A self-arming step sequence: every gate's output is initialized first,
/// and its inputs are moved off the output line.
fn self_arming(gates: &[(usize, usize, usize)], n: usize) -> Vec<ParallelStep> {
    let mut steps = Vec::new();
    for &(a, b, out) in gates {
        let out = out % n;
        let fix = |c: usize| if c % n == out { (c + 1) % n } else { c % n };
        steps.push(ParallelStep::Init(vec![out]));
        steps.push(ParallelStep::Nor(vec![fix(a), fix(b)], out));
    }
    steps
}

/// Applies a batched load along rows (`rows`) or columns: through the
/// word-plane writer when the machine is on the fused word path, else as
/// one `write_row_cells`/`write_col_cells` per listed line — the form the
/// scalar reference always takes.
fn load_lines(pm: &mut ProtectedMemory, rows: bool, lines: &[(usize, Vec<(usize, bool)>)]) {
    let n = pm.geometry().n();
    let mut loads: Vec<(usize, Vec<(usize, bool)>)> = Vec::new();
    for (line, cells) in lines {
        if loads.iter().all(|(l, _)| *l != line % n) {
            loads.push((line % n, cells.iter().map(|&(x, v)| (x % n, v)).collect()));
        }
    }
    if !pm.supports_fused_rows() {
        for (line, cells) in &loads {
            if rows {
                pm.write_row_cells(*line, cells).unwrap();
            } else {
                pm.write_col_cells(*line, cells).unwrap();
            }
        }
        return;
    }
    // Both plane layouts put word `w` of line `l` at `l * stride + w`.
    let stride = n.div_ceil(64);
    let mut masks = vec![0u64; n * stride];
    let mut vals = vec![0u64; n * stride];
    for (line, cells) in &loads {
        for &(x, v) in cells {
            let (w, bit) = (line * stride + x / 64, 1u64 << (x % 64));
            masks[w] |= bit;
            if v {
                vals[w] |= bit;
            } else {
                vals[w] &= !bit;
            }
        }
    }
    let list: Vec<usize> = loads.iter().map(|&(l, _)| l).collect();
    if rows {
        pm.write_rows_words_batched(&list, &mut masks, &mut vals)
            .unwrap();
    } else {
        pm.write_cols_words_batched(&list, &mut masks, &mut vals)
            .unwrap();
    }
    assert!(
        masks.iter().chain(&vals).all(|&w| w == 0),
        "planes restored to zero"
    );
}

/// Asserts that two machines hold the same value in every check-bit.
fn assert_same_check_bits(a: &ProtectedMemory, b: &ProtectedMemory) {
    let geom = a.geometry();
    let bps = geom.blocks_per_side();
    for family in [Family::Leading, Family::Counter] {
        for br in 0..bps {
            for bc in 0..bps {
                for d in 0..geom.m() {
                    assert_eq!(
                        a.cmem().bit(family, d, br, bc),
                        b.cmem().bit(family, d, br, bc),
                        "{family:?} d={d} block ({br},{bc})"
                    );
                }
            }
        }
    }
}

fn line_set(sel: u8, a: usize, b: usize, n: usize) -> LineSet {
    match sel {
        0 => LineSet::All,
        1 => LineSet::One(a % n),
        _ => {
            let (lo, hi) = ((a % n).min(b % n), (a % n).max(b % n) + 1);
            LineSet::Range(lo..hi)
        }
    }
}

/// Applies one op to a machine, reducing indices into range. NOR outputs
/// are initialized first so strict mode is satisfied; every generated op
/// is therefore legal and the reports/states of the two engines must
/// coincide exactly.
fn apply(pm: &mut ProtectedMemory, op: &Op) -> (CheckReport, bool) {
    let n = pm.geometry().n();
    let m = pm.geometry().m();
    let bps = pm.geometry().blocks_per_side();
    let mut report = CheckReport::default();
    match op {
        Op::InitRows { cols, sel, a, b } => {
            // Distinct cells, as every real caller passes: a duplicated
            // init cell would double-flip its diagonals in the scalar
            // reference (the documented pre-existing pitfall of pointless
            // duplicates).
            let mut cols: Vec<usize> = cols.iter().map(|&c| c % n).collect();
            cols.sort_unstable();
            cols.dedup();
            pm.exec_init_rows(&cols, &line_set(*sel, *a, *b, n))
                .unwrap();
        }
        Op::NorRows {
            ins,
            out,
            sel,
            a,
            b,
        } => {
            let out = out % n;
            let ins: Vec<usize> = ins
                .iter()
                .map(|&c| c % n)
                .map(|c| if c == out { (c + 1) % n } else { c })
                .collect();
            let sel = line_set(*sel, *a, *b, n);
            pm.exec_init_rows(&[out], &sel).unwrap();
            pm.exec_nor_rows(&ins, out, &sel).unwrap();
        }
        Op::InitCols { rows, sel, a, b } => {
            let mut rows: Vec<usize> = rows.iter().map(|&r| r % n).collect();
            rows.sort_unstable();
            rows.dedup();
            pm.exec_init_cols(&rows, &line_set(*sel, *a, *b, n))
                .unwrap();
        }
        Op::NorCols {
            ins,
            out,
            sel,
            a,
            b,
        } => {
            let out = out % n;
            let ins: Vec<usize> = ins
                .iter()
                .map(|&r| r % n)
                .map(|r| if r == out { (r + 1) % n } else { r })
                .collect();
            let sel = line_set(*sel, *a, *b, n);
            pm.exec_init_cols(&[out], &sel).unwrap();
            pm.exec_nor_cols(&ins, out, &sel).unwrap();
        }
        Op::WriteRow { line, cells } => {
            let cells: Vec<(usize, bool)> = cells.iter().map(|&(c, v)| (c % n, v)).collect();
            pm.write_row_cells(line % n, &cells).unwrap();
        }
        Op::WriteCol { line, cells } => {
            let cells: Vec<(usize, bool)> = cells.iter().map(|&(r, v)| (r % n, v)).collect();
            pm.write_col_cells(line % n, &cells).unwrap();
        }
        Op::Fault { r, c } => pm.inject_fault(r % n, c % n),
        Op::CheckFault { lead, d, br, bc } => pm.inject_check_fault(
            if *lead {
                Family::Leading
            } else {
                Family::Counter
            },
            d % m,
            br % bps,
            bc % bps,
        ),
        Op::CheckRow { bl } => report += pm.check_block_row(bl % bps).unwrap(),
        Op::CheckCol { bl } => report += pm.check_block_col(bl % bps).unwrap(),
        Op::Scrub => pm.scrub(),
        Op::LoadRows { lines } => load_lines(pm, true, lines),
        Op::LoadCols { lines } => load_lines(pm, false, lines),
        Op::FusedCols { gates, a, b } => {
            let steps = self_arming(gates, n);
            let (lo, hi) = ((a % n).min(b % n), (a % n).max(b % n) + 1);
            match pm.compile_fused_cols(&steps) {
                Some(prog) => pm.exec_fused_cols(&prog, lo..hi),
                None => {
                    let cols = LineSet::Range(lo..hi);
                    for step in &steps {
                        match step {
                            ParallelStep::Init(cells) => pm.exec_init_cols(cells, &cols).unwrap(),
                            ParallelStep::Nor(ins, out) => {
                                pm.exec_nor_cols(ins, *out, &cols).unwrap()
                            }
                        }
                    }
                }
            }
        }
        Op::CheckAllCols => report += pm.check_all_cols().unwrap(),
        Op::Stuck { r, c, v } => pm.set_stuck(r % n, c % n, *v),
        Op::ResetBlock { br, bc } => pm.reset_block(br % bps, bc % bps).unwrap(),
        Op::Cover { br, bc, on } => pm.set_block_covered(br % bps, bc % bps, *on).unwrap(),
        Op::Paranoid(on) => pm.set_check_on_critical(*on),
    }
    (report, pm.verify_consistency().is_ok())
}

/// How many random cases each differential proptest runs; CI raises it
/// via `PIMECC_DIFF_CASES` (see `.github/workflows`).
fn diff_cases() -> u32 {
    std::env::var("PIMECC_DIFF_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(24)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(diff_cases()))]

    // The tentpole invariant: arbitrary legal op sequences leave both
    // engines with identical data, identical check-bits, identical
    // statistics and identical reports — with one uncovered scratch block,
    // or fully covered so that the word engine takes its fused paths.
    #[test]
    fn engines_are_bit_identical_under_mixed_ops(
        geom_idx in 0usize..GEOMETRIES.len(),
        seed in any::<u64>(),
        ops in proptest::collection::vec(op_strategy(), 1..16),
        paranoid in (0u8..5).prop_map(|x| x == 0),
        fully_covered in any::<bool>(),
    ) {
        let (n, m) = GEOMETRIES[geom_idx];
        let grid = random_grid(n, seed);
        let mut word = machine(n, m, SimEngine::WordParallel);
        let mut scalar = machine(n, m, SimEngine::ScalarReference);
        word.set_check_on_critical(paranoid);
        scalar.set_check_on_critical(paranoid);
        word.load_grid(&grid);
        scalar.load_grid(&grid);
        if !fully_covered {
            // One uncovered scratch block exercises the coverage masks.
            word.set_block_covered(0, 0, false).unwrap();
            scalar.set_block_covered(0, 0, false).unwrap();
        }
        for (i, op) in ops.iter().enumerate() {
            let (wr, wc) = apply(&mut word, op);
            let (sr, sc) = apply(&mut scalar, op);
            prop_assert_eq!(wr, sr, "op {} report", i);
            prop_assert_eq!(wc, sc, "op {} consistency", i);
        }
        prop_assert_eq!(word.mem().grid().diff(scalar.mem().grid()), vec![]);
        prop_assert_eq!(word.stats(), scalar.stats());
        assert_same_check_bits(&word, &scalar);
        let wfinal = word.check_all().unwrap();
        let sfinal = scalar.check_all().unwrap();
        prop_assert_eq!(wfinal, sfinal);
        prop_assert_eq!(word.verify_consistency(), scalar.verify_consistency());
        assert_same_check_bits(&word, &scalar);
    }

    // The fused whole-sequence executor must match the per-step replay of
    // the same steps: same data, same check-bits, same stats.
    #[test]
    fn fused_step_sequences_match_per_step_replay(
        geom_idx in 0usize..GEOMETRIES.len(),
        seed in any::<u64>(),
        gates in proptest::collection::vec((0usize..10_000, 0usize..10_000, 0usize..10_000), 1..12),
        start in 0usize..64,
        len in 1usize..192,
    ) {
        let (n, m) = GEOMETRIES[geom_idx];
        let grid = random_grid(n, seed);
        let steps = self_arming(&gates, n);
        let start = start % n;
        let rows = LineSet::Range(start..(start + len % n).min(n).max(start + 1));

        let mut fused = machine(n, m, SimEngine::WordParallel);
        fused.load_grid(&grid);
        let used_fused = fused.exec_steps_rows(&steps, &rows).unwrap();

        let mut stepped = machine(n, m, SimEngine::WordParallel);
        stepped.load_grid(&grid);
        for step in &steps {
            match step {
                ParallelStep::Init(cells) => stepped.exec_init_rows(cells, &rows).unwrap(),
                ParallelStep::Nor(ins, out) => stepped.exec_nor_rows(ins, *out, &rows).unwrap(),
            }
        }
        if used_fused {
            prop_assert_eq!(fused.mem().grid().diff(stepped.mem().grid()), vec![]);
            prop_assert_eq!(fused.stats(), stepped.stats());
            prop_assert_eq!(fused.verify_consistency(), stepped.verify_consistency());
            prop_assert!(fused.verify_consistency().is_ok());
        }
    }

    // Row-team width is purely a host wall-clock knob: for any thread
    // count the fused replay leaves state, statistics, check-bits and
    // reports identical to the single-thread replay AND to the scalar
    // reference replaying the same steps one at a time.
    #[test]
    fn row_team_width_never_changes_state_stats_or_checks(
        geom_idx in 0usize..GEOMETRIES.len(),
        seed in any::<u64>(),
        gates in proptest::collection::vec((0usize..10_000, 0usize..10_000, 0usize..10_000), 1..12),
        start in 0usize..64,
        len in 1usize..192,
        threads in 2usize..9,
    ) {
        let (n, m) = GEOMETRIES[geom_idx];
        let grid = random_grid(n, seed);
        let steps = self_arming(&gates, n);
        let start = start % n;
        let range = start..(start + len % n).min(n).max(start + 1);

        let mut team = machine(n, m, SimEngine::WordParallel);
        team.load_grid(&grid);
        let Some(prog) = team.compile_fused_rows(&steps) else {
            return;
        };
        team.exec_fused_rows(&prog, range.clone(), threads);

        let mut single = machine(n, m, SimEngine::WordParallel);
        single.load_grid(&grid);
        let prog1 = single.compile_fused_rows(&steps).expect("same machine config compiles");
        single.exec_fused_rows(&prog1, range.clone(), 1);

        let mut scalar = machine(n, m, SimEngine::ScalarReference);
        scalar.load_grid(&grid);
        let rows = LineSet::Range(range);
        for step in &steps {
            match step {
                ParallelStep::Init(cells) => scalar.exec_init_rows(cells, &rows).unwrap(),
                ParallelStep::Nor(ins, out) => scalar.exec_nor_rows(ins, *out, &rows).unwrap(),
            }
        }

        prop_assert_eq!(team.mem().grid().diff(single.mem().grid()), vec![]);
        prop_assert_eq!(team.stats(), single.stats());
        prop_assert_eq!(team.mem().grid().diff(scalar.mem().grid()), vec![]);
        prop_assert_eq!(team.stats(), scalar.stats());
        let treport = team.check_all().unwrap();
        prop_assert_eq!(treport, single.check_all().unwrap());
        prop_assert_eq!(treport, scalar.check_all().unwrap());
        prop_assert_eq!(treport.corrected + treport.uncorrectable, 0);
        prop_assert!(team.verify_consistency().is_ok());
    }
}

#[test]
fn fused_executor_declines_ineligible_shapes() {
    let mut pm = machine(15, 5, SimEngine::WordParallel);
    let steps = vec![
        ParallelStep::Init(vec![3]),
        ParallelStep::Nor(vec![0, 1], 3),
    ];
    // Explicit selections and scalar engines fall back.
    assert!(!pm
        .exec_steps_rows(&steps, &LineSet::Explicit(vec![0, 2]))
        .unwrap());
    let mut scalar = machine(15, 5, SimEngine::ScalarReference);
    assert!(!scalar.exec_steps_rows(&steps, &LineSet::All).unwrap());
    // A gate whose output is never armed in-sequence falls back under
    // strict mode.
    let unarmed = vec![ParallelStep::Nor(vec![0, 1], 3)];
    assert!(!pm.exec_steps_rows(&unarmed, &LineSet::All).unwrap());
    // And the eligible shape runs and stays consistent.
    assert!(pm.exec_steps_rows(&steps, &LineSet::All).unwrap());
    assert!(pm.verify_consistency().is_ok());
    assert_eq!(
        pm.stats(),
        &MachineStats {
            mem_cycles: 6,
            transfer_cycles: 4,
            pc_xor3_ops: 4,
            critical_ops: 2,
            ..Default::default()
        }
    );
}

#[test]
fn empty_selections_bill_identically() {
    // An empty Range selects nothing: no critical protocol on either
    // engine, even on a fully covered machine.
    for engine in [SimEngine::WordParallel, SimEngine::ScalarReference] {
        let mut pm = machine(15, 5, engine);
        let before = *pm.stats();
        pm.exec_nor_rows(&[0, 1], 4, &LineSet::Range(3..3)).unwrap();
        pm.exec_nor_cols(&[0, 1], 4, &LineSet::Range(7..7)).unwrap();
        let delta = *pm.stats() - before;
        assert_eq!(delta.critical_ops, 0, "{engine:?}");
        assert_eq!(delta.mem_cycles, 2, "{engine:?}");
        assert!(pm.verify_consistency().is_ok(), "{engine:?}");
    }
}
