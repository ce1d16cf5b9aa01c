//! Property tests for the unrolled distance kernels.
//!
//! The kernels accumulate in four lanes, so their sums may differ from a
//! naive sequential loop by rounding only — the properties here pin the
//! tolerance for all dimensions `1..=64` and all three metrics. The
//! early-abandon variants must be *bit-for-bound* honest: a returned
//! value is bit-identical to the full kernel, and `None` occurs only when
//! the true result exceeds the caller's bound.

use parsim_geometry::kernel;
use proptest::prelude::*;

fn naive_dist2(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

fn naive_manhattan(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum()
}

fn naive_chebyshev(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

/// Two random vectors of one random dimension in `1..=max_dim`.
fn pair(max_dim: usize) -> impl Strategy<Value = (Vec<f64>, Vec<f64>)> {
    (1usize..=max_dim).prop_flat_map(|dim| {
        (
            prop::collection::vec(-1.0f64..1.0, dim),
            prop::collection::vec(-1.0f64..1.0, dim),
        )
    })
}

/// A query/row pair of one random dimension, each vector scaled by its own
/// adversarial power of two — stresses the certification helpers across
/// ~36 decimal orders of magnitude, including f32 overflow territory.
fn scaled_pair(max_dim: usize) -> impl Strategy<Value = (Vec<f64>, Vec<f64>)> {
    (1usize..=max_dim, -60i32..=60, -60i32..=60).prop_flat_map(|(dim, eq, ex)| {
        (
            prop::collection::vec(-1.0f64..1.0, dim)
                .prop_map(move |v| v.into_iter().map(|c| c * 2f64.powi(eq)).collect()),
            prop::collection::vec(-1.0f64..1.0, dim)
                .prop_map(move |v| v.into_iter().map(|c| c * 2f64.powi(ex)).collect()),
        )
    })
}

/// Per-lane q8 grids spanning `rows`, the arena's rule: each lane's
/// `(min, scale)` with a zero step on constant lanes; `None` when a step
/// is not finite, where the arena keeps the block on f64.
fn q8_grids(rows: &[&[f64]]) -> Option<(Vec<f64>, Vec<f64>)> {
    let dim = rows[0].len();
    let lo: Vec<f64> = (0..dim)
        .map(|j| rows.iter().map(|r| r[j]).fold(f64::INFINITY, f64::min))
        .collect();
    let hi: Vec<f64> = (0..dim)
        .map(|j| rows.iter().map(|r| r[j]).fold(f64::NEG_INFINITY, f64::max))
        .collect();
    let scales: Vec<f64> = lo
        .iter()
        .zip(&hi)
        .map(|(&l, &h)| if h > l { (h - l) / 255.0 } else { 0.0 })
        .collect();
    scales.iter().all(|s| s.is_finite()).then_some((lo, scales))
}

/// The arena's row encoding: nearest grid point, clamped to `[0, 255]`.
fn q8_row_codes(v: &[f64], mins: &[f64], scales: &[f64]) -> Vec<u8> {
    v.iter()
        .zip(mins.iter().zip(scales))
        .map(|(&c, (&lo, &s))| {
            if s > 0.0 {
                ((c - lo) / s).round().clamp(0.0, 255.0) as u8
            } else {
                0
            }
        })
        .collect()
}

/// The arena's query encoding: wide codes, clamped only at the cap.
fn q8_query_codes(v: &[f64], mins: &[f64], scales: &[f64]) -> Vec<i32> {
    let cap = kernel::Q8W_CODE_CAP as f64;
    v.iter()
        .zip(mins.iter().zip(scales))
        .map(|(&c, (&lo, &s))| {
            if s > 0.0 {
                ((c - lo) / s).round().clamp(-cap, cap) as i32
            } else {
                0
            }
        })
        .collect()
}

/// A query and a row encoded the way the q8 scan encodes them, on grids
/// that span the row and a neighbour of it, as a leaf's do (the query may
/// fall outside them).
struct Q8Case {
    qc: Vec<i32>,
    xc: Vec<u8>,
    w: Vec<f64>,
    rq: f64,
    rx: f64,
}

impl Q8Case {
    fn new(q: &[f64], x: &[f64]) -> Option<Q8Case> {
        let other: Vec<f64> = x.iter().map(|&c| -0.5 * c).collect();
        let (mins, scales) = q8_grids(&[x, &other])?;
        let qc = q8_query_codes(q, &mins, &scales);
        let xc = q8_row_codes(x, &mins, &scales);
        Some(Q8Case {
            rq: kernel::displacement_norm_q8w_query(q, &qc, &mins, &scales),
            rx: kernel::displacement_norm_q8w(x, &xc, &mins, &scales),
            w: scales.iter().map(|&s| s * s).collect(),
            qc,
            xc,
        })
    }

    fn threshold(&self, bound: f64) -> f64 {
        kernel::q8w_prune_threshold(bound, self.rq, self.rx, self.xc.len())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn dist2_matches_naive((a, b) in pair(64)) {
        let got = kernel::dist2(&a, &b);
        let want = naive_dist2(&a, &b);
        prop_assert!(
            (got - want).abs() <= 1e-12 * want.max(1.0),
            "dim {}: {got} vs {want}", a.len()
        );
    }

    #[test]
    fn manhattan_matches_naive((a, b) in pair(64)) {
        let got = kernel::manhattan(&a, &b);
        let want = naive_manhattan(&a, &b);
        prop_assert!(
            (got - want).abs() <= 1e-12 * want.max(1.0),
            "dim {}: {got} vs {want}", a.len()
        );
    }

    #[test]
    fn chebyshev_is_bit_identical_to_naive((a, b) in pair(64)) {
        // Max has no rounding, so lane order cannot change the result.
        let got = kernel::chebyshev(&a, &b);
        prop_assert_eq!(got.to_bits(), naive_chebyshev(&a, &b).to_bits());
    }

    #[test]
    fn bounded_kernels_are_bit_for_bound((a, b) in pair(64), frac in 0.0f64..1.5) {
        type Full = fn(&[f64], &[f64]) -> f64;
        type Bounded = fn(&[f64], &[f64], f64) -> Option<f64>;
        let cases: [(Full, Bounded); 3] = [
            (kernel::dist2, kernel::dist2_bounded),
            (kernel::manhattan, kernel::manhattan_bounded),
            (kernel::chebyshev, kernel::chebyshev_bounded),
        ];
        for (full, bounded) in cases {
            let v = full(&a, &b);
            let bound = v * frac;
            match bounded(&a, &b, bound) {
                // A returned value is the full kernel's value, bit for bit.
                Some(got) => prop_assert_eq!(got.to_bits(), v.to_bits()),
                // Abandoning is only allowed when the truth exceeds the bound.
                None => prop_assert!(v > bound, "abandoned although {v} <= {bound}"),
            }
        }
    }

    #[test]
    fn f32_lower_bound_never_exceeds_the_exact_distance((q, x) in scaled_pair(64)) {
        let dim = q.len();
        let q32: Vec<f32> = q.iter().map(|&c| c as f32).collect();
        let x32: Vec<f32> = x.iter().map(|&c| c as f32).collect();
        let rq = kernel::displacement_norm_f32(&q, &q32);
        let rx = kernel::displacement_norm_f32(&x, &x32);
        let s = kernel::dist2_f32(&q32, &x32);
        let lb = kernel::lb2_from_f32(s, rq, rx, dim);
        let exact = kernel::dist2(&q, &x);
        prop_assert!(lb <= exact, "dim {dim}: lb {lb} > dist2 {exact}");
    }

    #[test]
    fn f32_certified_prune_implies_dist2_at_least_bound(
        (q, x) in scaled_pair(64),
        frac in 0.0f64..2.0,
    ) {
        let dim = q.len();
        let q32: Vec<f32> = q.iter().map(|&c| c as f32).collect();
        let x32: Vec<f32> = x.iter().map(|&c| c as f32).collect();
        let rq = kernel::displacement_norm_f32(&q, &q32);
        let rx = kernel::displacement_norm_f32(&x, &x32);
        let exact = kernel::dist2(&q, &x);
        let bound = exact * frac;
        let t = kernel::f32_prune_threshold(bound, rq, rx, dim);
        let (s, _) = kernel::dist2_f32_bounded_depth(&q32, &x32, kernel::f32_kernel_bound(t));
        if kernel::f32_row_prunable(s, t) {
            // A certified prune must never drop a row whose computed f64
            // distance is inside the bound.
            prop_assert!(exact >= bound, "dim {dim}: pruned although {exact} < {bound}");
        }
    }

    #[test]
    fn q8_lower_bound_never_exceeds_the_exact_distance((q, x) in scaled_pair(64)) {
        // The weighted q8 sum certifies no bound above the exact distance:
        // not even the next float up.
        if let Some(case) = Q8Case::new(&q, &x) {
            let exact = kernel::dist2(&q, &x);
            let above = f64::from_bits(exact.to_bits() + 1);
            let s = kernel::dist2_q8w(&case.qc, &case.xc, &case.w);
            let t = case.threshold(above);
            prop_assert!(!kernel::q8w_row_prunable(Some(s), t), "dim {}: {s} >= {t}", q.len());
        }
    }

    #[test]
    fn q8_certified_prune_implies_dist2_at_least_bound(
        (q, x) in scaled_pair(64),
        frac in 0.0f64..2.0,
    ) {
        if let Some(case) = Q8Case::new(&q, &x) {
            let exact = kernel::dist2(&q, &x);
            let bound = exact * frac;
            let t = case.threshold(bound);
            let (s, _) = kernel::dist2_q8w_bounded_depth(&case.qc, &case.xc, &case.w, t);
            if kernel::q8w_row_prunable(s, t) {
                prop_assert!(
                    exact >= bound,
                    "dim {}: pruned although {exact} < {bound}", q.len()
                );
            }
        }
    }

    #[test]
    fn batch_matches_row_kernels(
        (dim, q, block) in (1usize..=32).prop_flat_map(|dim| {
            (
                Just(dim),
                prop::collection::vec(-1.0f64..1.0, dim),
                (0usize..=8).prop_flat_map(move |rows| {
                    prop::collection::vec(-1.0f64..1.0, rows * dim)
                }),
            )
        })
    ) {
        let rows = block.len() / dim;
        let mut out = vec![0.0f64; rows];
        kernel::dist2_batch(&q, &block, dim, &mut out);
        for (i, o) in out.iter().enumerate() {
            let row = &block[i * dim..(i + 1) * dim];
            prop_assert_eq!(o.to_bits(), kernel::dist2(&q, row).to_bits());
        }
    }
}
