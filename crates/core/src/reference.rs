//! Test-only reference implementations of the per-T1 dataflow primitives,
//! in their plain grid-and-`Vec` form, and the differential sweep that
//! holds the allocation-free primitives of [`crate::tms`] and
//! [`crate::dpg`] to them bit for bit.

use simkit::{tile_col, tile_row, Block16, T1Task};
use sparse::rng::Rng64;

use crate::dpg::{expand_t3, visit_order, FillOrder, T4Code};
use crate::pipeline::{execute_t1, execute_t1_with_sink};
use crate::tms::{generate_t3_tasks, layer_bitmaps, T3Task, TaskOrdering, TileLayers};
use crate::UniStcConfig;

const ORDERINGS: [TaskOrdering; 3] =
    [TaskOrdering::DotProduct, TaskOrdering::OuterProduct, TaskOrdering::RowRow];
const FILLS: [FillOrder; 2] = [FillOrder::ZShape, FillOrder::NShape];

/// `sum over k of nnz(col k of a) * nnz(row k of b)`, one column and row
/// extraction per `k`.
fn tile_products(a: u16, b: u16) -> u32 {
    (0..4).map(|k| tile_col(a, k).count_ones() * tile_row(b, k).count_ones()).sum()
}

/// T3 generation through a 64-entry `[k][i][j]` task grid.
#[allow(clippy::needless_range_loop)] // k/i/j index two parallel structures
fn generate_t3_tasks_grid(a: &Block16, b: &Block16, ordering: TaskOrdering) -> Vec<T3Task> {
    let mut grid = [[[None::<T3Task>; 4]; 4]; 4]; // [k][i][j]
    for k in 0..4usize {
        for i in 0..4usize {
            let a_tile = a.tile(i, k);
            if a_tile == 0 {
                continue;
            }
            for j in 0..4usize {
                let b_tile = b.tile(k, j);
                if b_tile == 0 {
                    continue;
                }
                let products = tile_products(a_tile, b_tile);
                if products == 0 {
                    continue;
                }
                grid[k][i][j] = Some(T3Task {
                    i: i as u8,
                    j: j as u8,
                    k: k as u8,
                    a_tile,
                    b_tile,
                    products,
                });
            }
        }
    }

    let mut out = Vec::new();
    match ordering {
        TaskOrdering::DotProduct => {
            for i in 0..4 {
                for j in 0..4 {
                    for layer in grid.iter() {
                        if let Some(t) = layer[i][j] {
                            out.push(t);
                        }
                    }
                }
            }
        }
        TaskOrdering::OuterProduct => {
            for layer in grid.iter() {
                let nz_rows =
                    (0..4).filter(|&i| (0..4).any(|j| layer[i][j].is_some())).count();
                let nz_cols =
                    (0..4).filter(|&j| (0..4).any(|i| layer[i][j].is_some())).count();
                if nz_rows > nz_cols {
                    for j in 0..4 {
                        for row in layer.iter() {
                            if let Some(t) = row[j] {
                                out.push(t);
                            }
                        }
                    }
                } else {
                    for row in layer.iter() {
                        for t in row.iter().flatten() {
                            out.push(*t);
                        }
                    }
                }
            }
        }
        TaskOrdering::RowRow => {
            for i in 0..4 {
                for layer in grid.iter() {
                    for t in layer[i].iter().flatten() {
                        out.push(*t);
                    }
                }
            }
        }
    }
    out
}

/// DPG expansion through 4x4 pattern and rank grids into a `Vec`.
fn expand_t3_vec(a_tile: u16, b_tile: u16, fill: FillOrder) -> Vec<T4Code> {
    let mut pattern = [[0u8; 4]; 4];
    let mut c_rank = [[0u8; 4]; 4];
    let mut rank = 0u8;
    for m in 0..4 {
        for n in 0..4 {
            let p = (tile_row(a_tile, m) & tile_col(b_tile, n)) as u8;
            pattern[m][n] = p;
            if p != 0 {
                c_rank[m][n] = rank;
                rank += 1;
            }
        }
    }
    let mut out = Vec::with_capacity(rank as usize);
    for (m, n) in visit_order(fill) {
        let p = pattern[m as usize][n as usize];
        if p != 0 {
            out.push(T4Code { m, n, c_index: c_rank[m as usize][n as usize], pattern: p });
        }
    }
    out
}

/// A seeded operand block: the tile occupancy is dense, random, sparse or
/// a single tile, and the element density is drawn per block, so the sweep
/// reaches empty, scattered, tile-clustered and near-dense blocks.
fn random_block(rng: &mut Rng64) -> Block16 {
    let tiles = match rng.next_range(4) {
        0 => u16::MAX,
        1 => rng.next_u64() as u16,
        2 => (rng.next_u64() & rng.next_u64()) as u16,
        _ => 1 << rng.next_range(16),
    };
    let density = rng.next_f64();
    Block16::from_fn(|r, c| tiles >> (r / 4 * 4 + c / 4) & 1 == 1 && rng.next_bool(density))
}

/// A seeded B operand: a block, an MV vector-mask column, or the dense
/// narrow-N tail of an SpMM column slab.
fn random_b(rng: &mut Rng64) -> Block16 {
    match rng.next_range(4) {
        0 | 1 => random_block(rng),
        2 => Block16::from_vector_mask(rng.next_u64() as u16),
        _ => Block16::dense().keep_cols(1 + rng.next_range(16)),
    }
}

/// The fixed shapes every sweep includes, paired with each other.
fn fixed_pairs() -> Vec<(Block16, Block16)> {
    let shapes = [
        Block16::dense(),
        Block16::empty(),
        Block16::from_fn(|r, c| r == c),
        Block16::from_fn(|r, c| r % 4 == c % 4),
        Block16::from_fn(|_, c| c == 0),
        Block16::from_vector_mask(u16::MAX),
        Block16::from_vector_mask(0x8001),
        Block16::dense().keep_cols(5),
    ];
    shapes.iter().flat_map(|&a| shapes.iter().map(move |&b| (a, b))).collect()
}

/// The fixed pairs plus `n` seeded ones.
fn block_pairs(seed: u64, n: usize) -> Vec<(Block16, Block16)> {
    let mut rng = Rng64::new(seed);
    let mut pairs = fixed_pairs();
    pairs.extend((0..n).map(|_| (random_block(&mut rng), random_b(&mut rng))));
    pairs
}

#[test]
fn t3_generation_and_expansion_match_the_references() {
    let mut t3_total = 0usize;
    for (a, b) in block_pairs(0x05C0_FFEE, 10_000) {
        let reference: Vec<Vec<T3Task>> =
            ORDERINGS.iter().map(|&o| generate_t3_tasks_grid(&a, &b, o)).collect();
        for (&ordering, expect) in ORDERINGS.iter().zip(&reference) {
            assert_eq!(&generate_t3_tasks(&a, &b, ordering), expect, "{ordering} {a:?} x {b:?}");
        }
        // Layer bitmaps and the compiler's per-T1 costs read the same
        // layers as generation.
        let mut layers = [0u16; 4];
        for t in &reference[1] {
            layers[t.k as usize] |= 1 << t.output_id();
        }
        assert_eq!(layer_bitmaps(&a, &b), layers);
        let tl = TileLayers::new(&a, &b);
        assert_eq!(tl.t3_count(), reference[1].len());
        assert_eq!(tl.products(), reference[1].iter().map(|t| u64::from(t.products)).sum());
        for t in &reference[1] {
            for fill in FILLS {
                let codes = expand_t3(t.a_tile, t.b_tile, fill);
                assert_eq!(*codes, *expand_t3_vec(t.a_tile, t.b_tile, fill), "{t:?} {fill:?}");
            }
        }
        t3_total += reference[1].len();
    }
    assert!(t3_total > 100_000, "the sweep must exercise many T3 tasks, saw {t3_total}");
}

#[test]
fn expansion_matches_the_reference_on_every_tile_row_and_column_pattern() {
    // A tile pair's codes depend on A's rows and B's columns only through
    // their 4-bit patterns; sweep every A tile against seeded B tiles.
    let mut rng = Rng64::new(0xD96);
    for a_tile in 0..=u16::MAX {
        let b_tile = rng.next_u64() as u16;
        for fill in FILLS {
            let codes = expand_t3(a_tile, b_tile, fill);
            assert_eq!(*codes, *expand_t3_vec(a_tile, b_tile, fill));
        }
    }
}

#[test]
fn sink_run_matches_untraced_run_on_seeded_pairs() {
    for (idx, (a, b)) in block_pairs(0x5EED_0001, 10_000).into_iter().enumerate() {
        let cfg = UniStcConfig {
            ordering: ORDERINGS[idx % 3],
            fill_order: FILLS[idx / 3 % 2],
            ..UniStcConfig::default()
        };
        let task = T1Task { a, b, n_cols: if idx % 2 == 0 { 16 } else { 1 } };
        let plain = execute_t1(&cfg, &task);
        let mut events: Vec<obs::TraceEvent> = Vec::new();
        let traced = execute_t1_with_sink(&cfg, &task, &mut events);
        assert_eq!(plain, traced, "pair {idx}: {a:?} x {b:?}");
        assert_eq!(plain.useful, task.products(), "pair {idx}");
        assert_eq!(events.iter().filter(|e| e.kind() == "sdpu_pack").count() as u64, plain.cycles);
    }
}
