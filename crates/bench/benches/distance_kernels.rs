//! Distance-kernel microbenchmarks: naive per-coordinate loop vs the
//! unrolled kernel vs the early-abandon variant under a tight bound.
//!
//! The abandon rows use the median full distance of the workload as the
//! bound, so roughly half the evaluations can stop at a checkpoint —
//! a stand-in for the k-th-best bound the k-NN scan prunes against.
//!
//! The `f32_lower_bound` and `q8_lower_bound` rows measure the tiered
//! scan's phase 1 under the same median bound: the low-precision bounded
//! kernel against the certified prune threshold — the per-row cost that
//! replaces a full f64 evaluation for every row the tier proves away.
//!
//! The `mindist` group measures the directory layer: one MINDIST per entry
//! of 10 000 directory entries, packed into page-sized nodes that are
//! visited in shuffled order the way a descent jumps between them. The
//! `d<dim>` rows sweep each node's contiguous bounds slab
//! (`InnerEntries::min_dists2`); the `d<dim>_boxed_rect` rows evaluate the
//! same entries as one heap-allocated `HyperRect` each, the directory
//! layout before the slab. ns per entry = ms/iter × 100.
//!
//! The `arena_build` group times building one `VectorArena` from clustered
//! rows: `push/<dim>x<rows>` pushes them one at a time, `from_rows/…` hands
//! them over at once. Both give the same arena, mirrors included. The
//! 60-row block is a leaf page, the 10 000-row block a shard-sized store.
//! ns per row = ms/iter × 10⁶ / rows.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use parsim_datagen::{ClusteredGenerator, DataGenerator, UniformGenerator};
use parsim_geometry::{kernel, HyperRect};
use parsim_index::node::{InnerEntries, NodeId};
use parsim_index::{TreeParams, TreeVariant};
use parsim_storage::VectorArena;

fn naive_dist2(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

fn bench_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("distance_kernels");
    for dim in [8usize, 16, 32, 64] {
        let rows: Vec<Vec<f64>> = UniformGenerator::new(dim)
            .generate(256, 1)
            .into_iter()
            .map(|p| p.coords().to_vec())
            .collect();
        let query = UniformGenerator::new(dim).generate(1, 2)[0]
            .coords()
            .to_vec();
        let mut dists: Vec<f64> = rows.iter().map(|r| kernel::dist2(&query, r)).collect();
        dists.sort_by(f64::total_cmp);
        let bound = dists[dists.len() / 2];

        group.bench_with_input(BenchmarkId::new("naive", dim), &dim, |b, _| {
            b.iter(|| {
                let mut acc = 0.0;
                for r in &rows {
                    acc += naive_dist2(black_box(&query), r);
                }
                acc
            })
        });
        group.bench_with_input(BenchmarkId::new("kernel", dim), &dim, |b, _| {
            b.iter(|| {
                let mut acc = 0.0;
                for r in &rows {
                    acc += kernel::dist2(black_box(&query), r);
                }
                acc
            })
        });
        group.bench_with_input(BenchmarkId::new("early_abandon", dim), &dim, |b, _| {
            b.iter(|| {
                let mut kept = 0usize;
                for r in &rows {
                    if kernel::dist2_bounded(black_box(&query), r, bound).is_some() {
                        kept += 1;
                    }
                }
                kept
            })
        });

        // Energy-ordered abandon: the same rows with coordinates permuted
        // by descending variance (the PR-9 leaf layout), scanned under the
        // certified order-prune bound. High-energy lanes accumulate the
        // partial sum fastest, so abandons fire at earlier checkpoints —
        // this row's gap to `early_abandon` is the layout's win.
        let mut lanes: Vec<usize> = (0..dim).collect();
        let var: Vec<f64> = (0..dim)
            .map(|d| {
                let mean = rows.iter().map(|r| r[d]).sum::<f64>() / rows.len() as f64;
                rows.iter().map(|r| (r[d] - mean).powi(2)).sum::<f64>()
            })
            .collect();
        lanes.sort_by(|&a, &b| var[b].total_cmp(&var[a]));
        let permute = |v: &[f64]| -> Vec<f64> { lanes.iter().map(|&d| v[d]).collect() };
        let prows: Vec<Vec<f64>> = rows.iter().map(|r| permute(r)).collect();
        let pquery = permute(&query);
        let pbound = kernel::order_prune_bound(bound);
        group.bench_with_input(
            BenchmarkId::new("early_abandon_energy", dim),
            &dim,
            |b, _| {
                b.iter(|| {
                    let mut kept = 0usize;
                    for r in &prows {
                        if kernel::dist2_bounded(black_box(&pquery), r, pbound).is_some() {
                            kept += 1;
                        }
                    }
                    kept
                })
            },
        );

        // Phase-1 f32 mirror scan: certified threshold, bounded kernel.
        let rows32: Vec<Vec<f32>> = rows
            .iter()
            .map(|r| r.iter().map(|&c| c as f32).collect())
            .collect();
        let query32: Vec<f32> = query.iter().map(|&c| c as f32).collect();
        let rq32 = kernel::displacement_norm_f32(&query, &query32);
        let rx32 = rows
            .iter()
            .zip(&rows32)
            .map(|(r, m)| kernel::displacement_norm_f32(r, m))
            .fold(0.0f64, f64::max);
        let t32 = kernel::f32_prune_threshold(bound, rq32, rx32, dim);
        let b32 = kernel::f32_kernel_bound(t32);
        group.bench_with_input(BenchmarkId::new("f32_lower_bound", dim), &dim, |b, _| {
            b.iter(|| {
                let mut pruned = 0usize;
                for m in &rows32 {
                    if kernel::f32_row_prunable(
                        kernel::dist2_f32_bounded(black_box(&query32), m, b32),
                        t32,
                    ) {
                        pruned += 1;
                    }
                }
                pruned
            })
        });

        // Phase-1 q8 code scan: one shared grid over the whole block.
        let lo = rows.iter().flatten().cloned().fold(f64::INFINITY, f64::min);
        let hi = rows
            .iter()
            .flatten()
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max);
        let scale = (hi - lo) / 255.0;
        let q8 = |v: &[f64]| -> Vec<u8> {
            v.iter()
                .map(|&c| ((c - lo) / scale).round().clamp(0.0, 255.0) as u8)
                .collect()
        };
        let codes: Vec<Vec<u8>> = rows.iter().map(|r| q8(r)).collect();
        let qcodes = q8(&query);
        let rq8 = kernel::displacement_norm_q8(&query, &qcodes, lo, scale);
        let rx8 = rows
            .iter()
            .zip(&codes)
            .map(|(r, c)| kernel::displacement_norm_q8(r, c, lo, scale))
            .fold(0.0f64, f64::max);
        let t8 = kernel::q8_prune_threshold(bound, rq8, rx8, scale);
        let b8 = kernel::q8_kernel_bound(t8);
        group.bench_with_input(BenchmarkId::new("q8_lower_bound", dim), &dim, |b, _| {
            b.iter(|| {
                let mut pruned = 0usize;
                for c in &codes {
                    if kernel::q8_row_prunable(
                        kernel::dist2_q8_bounded(black_box(&qcodes), c, b8),
                        t8,
                    ) {
                        pruned += 1;
                    }
                }
                pruned
            })
        });
    }
    group.finish();
}

fn bench_mindist(c: &mut Criterion) {
    const ENTRIES: usize = 10_000;
    let mut group = c.benchmark_group("mindist");
    for dim in [16usize, 32, 48] {
        let per_node = TreeParams::for_dim(dim, TreeVariant::xtree_default())
            .expect("supported dimension")
            .inner_capacity;
        // Each rectangle spans two uniform points, like a directory MBR
        // that covers most of the space on most axes.
        let corners = UniformGenerator::new(dim).generate(2 * ENTRIES, 3);
        let rects: Vec<HyperRect> = corners
            .chunks_exact(2)
            .map(|pair| HyperRect::from_point(&pair[0]).union(&HyperRect::from_point(&pair[1])))
            .collect();
        let query = UniformGenerator::new(dim).generate(1, 4).remove(0);

        let boxed: Vec<&[HyperRect]> = rects.chunks(per_node).collect();
        let slabs: Vec<InnerEntries> = boxed
            .iter()
            .map(|node| InnerEntries::from_rects(dim, node.iter().map(|r| (r.clone(), NodeId(0)))))
            .collect();
        // A fixed pseudo-random visiting order (multiplicative hash of the
        // node number), so successive visits land on unrelated nodes.
        let mut order: Vec<usize> = (0..slabs.len()).collect();
        order.sort_by_key(|&i| (i as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));

        group.bench_function(&format!("d{dim}"), |b| {
            b.iter(|| {
                let mut acc = 0.0;
                for &node in &order {
                    for d in slabs[node].min_dists2(black_box(query.coords())) {
                        acc += d;
                    }
                }
                acc
            })
        });
        group.bench_function(&format!("d{dim}_boxed_rect"), |b| {
            b.iter(|| {
                let mut acc = 0.0;
                for &node in &order {
                    for r in boxed[node] {
                        acc += r.min_dist2(black_box(&query));
                    }
                }
                acc
            })
        });
    }
    group.finish();
}

fn bench_arena_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("arena_build");
    for dim in [16usize, 48] {
        for rows in [60usize, 10_000] {
            let points = ClusteredGenerator::new(dim, 32, 0.05).generate(rows, 5);
            let label = format!("{dim}x{rows}");
            group.bench_function(&format!("push/{label}"), |b| {
                b.iter(|| {
                    let mut arena = VectorArena::with_capacity(dim, rows);
                    for p in &points {
                        arena.push(black_box(p.coords()));
                    }
                    arena
                })
            });
            group.bench_function(&format!("from_rows/{label}"), |b| {
                b.iter(|| VectorArena::from_rows(dim, points.iter().map(|p| black_box(p.coords()))))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_kernels, bench_mindist, bench_arena_build);
criterion_main!(benches);
