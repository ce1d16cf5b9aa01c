//! Property tests of the bulk arena build: `VectorArena::from_rows` must
//! reproduce, bit for bit, the state that pushing the same rows one at a
//! time gives — the canonical rows and every derived view (scan copy, f32
//! mirror and radius, q8 codes, grids, weights and radius) — both as built
//! and after a scan-order permutation. Floats are compared by `to_bits`,
//! so a NaN, a signed zero or a radius rounded the other way all count as
//! a divergence.

use proptest::prelude::*;

use parsim_storage::VectorArena;

/// Every derived view of an arena, as bit patterns.
#[derive(Debug, PartialEq)]
struct Views {
    flat: Vec<u64>,
    flat_scan: Vec<u64>,
    flat_f32: Vec<u32>,
    f32_radius: u64,
    codes: Vec<u8>,
    q8_grid: Option<(Vec<u64>, Vec<u64>)>,
    q8_weights: Vec<u64>,
    q8_radius: u64,
    scan_perm: Option<Vec<u32>>,
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn views(a: &VectorArena) -> Views {
    Views {
        flat: bits(a.as_flat()),
        flat_scan: bits(a.as_flat_scan()),
        flat_f32: a.as_flat_f32().iter().map(|x| x.to_bits()).collect(),
        f32_radius: a.f32_radius().to_bits(),
        codes: a.as_codes().to_vec(),
        q8_grid: a.q8_grid().map(|(mins, scales)| (bits(mins), bits(scales))),
        q8_weights: bits(a.q8_weights()),
        q8_radius: a.q8_radius().to_bits(),
        scan_perm: a.scan_perm().map(<[u32]>::to_vec),
    }
}

fn pushed(dim: usize, rows: &[Vec<f64>]) -> VectorArena {
    let mut a = VectorArena::new(dim);
    for row in rows {
        a.push(row);
    }
    a
}

/// Checks `from_rows` against the push-by-push arena as built, after
/// `perm` is installed on both, and after one more push onto both.
fn assert_equivalent(dim: usize, rows: &[Vec<f64>], perm: Vec<u32>) {
    let mut bulk = VectorArena::from_rows(dim, rows.iter().map(Vec::as_slice));
    let mut inc = pushed(dim, rows);
    assert_eq!(views(&bulk), views(&inc), "as built: {rows:?}");
    bulk.set_permutation(perm.clone());
    inc.set_permutation(perm.clone());
    assert_eq!(views(&bulk), views(&inc), "permuted {perm:?}: {rows:?}");
    let extra: Vec<f64> = (0..dim).map(|j| j as f64 - 0.5).collect();
    bulk.push(&extra);
    inc.push(&extra);
    assert_eq!(views(&bulk), views(&inc), "pushed after: {rows:?}");
}

/// A permutation of `0..dim` that reverses the lanes and rotates them by
/// one, so no lane stays in place for `dim >= 3`.
fn shuffled(dim: usize) -> Vec<u32> {
    (0..dim as u32).rev().cycle().skip(1).take(dim).collect()
}

/// One coordinate drawn from a mix of bands: plain, wide and offset,
/// coarsely rounded (ties, constant lanes and signed zeros), and tiny
/// (subnormal range).
fn coord(band: u8, v: f64) -> f64 {
    match band % 4 {
        0 => v,
        1 => 1e3 * v + 17.0,
        2 => (4.0 * v).round() * 0.25,
        _ => v * 1e-310,
    }
}

/// Rows of `dim` coordinates whose bands are drawn per lane, so one block
/// mixes lanes of very different ranges.
fn rows_strategy() -> impl Strategy<Value = (usize, Vec<Vec<f64>>, Vec<u64>)> {
    (1usize..=12, 0usize..=90).prop_flat_map(|(dim, n)| {
        (
            Just(dim),
            prop::collection::vec(prop::collection::vec(-1.0f64..1.0, dim), n),
            prop::collection::vec(any::<u64>(), dim),
        )
    })
}

fn banded(rows: Vec<Vec<f64>>, bands: &[u64]) -> Vec<Vec<f64>> {
    rows.into_iter()
        .map(|row| {
            row.into_iter()
                .zip(bands)
                .map(|(v, &b)| coord(b as u8, v))
                .collect()
        })
        .collect()
}

/// `perm` as a permutation of `0..dim`: the lanes ranked by `keys`.
fn ranked(keys: &[u64]) -> Vec<u32> {
    let mut perm: Vec<u32> = (0..keys.len() as u32).collect();
    perm.sort_by_key(|&j| keys[j as usize]);
    perm
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn from_rows_matches_push_by_push((dim, rows, keys) in rows_strategy()) {
        let rows = banded(rows, &keys);
        assert_equivalent(dim, &rows, ranked(&keys));
    }

    #[test]
    fn from_rows_matches_push_by_push_on_sorted_rows((dim, rows, keys) in rows_strategy()) {
        // Ascending rows widen the grids on every push: the worst case of
        // the incremental path, and the longest replay of its grid growth.
        let mut rows = banded(rows, &keys);
        rows.sort_by(|a, b| a[0].total_cmp(&b[0]));
        assert_equivalent(dim, &rows, shuffled(dim));
        rows.reverse();
        assert_equivalent(dim, &rows, shuffled(dim));
    }
}

#[test]
fn one_row() {
    assert_equivalent(3, &[vec![0.25, -4.0, 1e9]], shuffled(3));
}

#[test]
fn no_rows() {
    assert_equivalent(2, &[], vec![1, 0]);
}

#[test]
fn constant_lane() {
    let rows: Vec<Vec<f64>> = (0..20).map(|i| vec![0.5, i as f64 * 0.1, 0.5]).collect();
    let bulk = VectorArena::from_rows(3, rows.iter().map(Vec::as_slice));
    assert_eq!(bulk.q8_grid().expect("constant lanes are exact").1[0], 0.0);
    assert_equivalent(3, &rows, shuffled(3));
}

#[test]
fn signed_zeros() {
    let rows = vec![
        vec![0.0, -0.0],
        vec![-0.0, 0.0],
        vec![0.0, 1.0],
        vec![-0.0, -0.0],
    ];
    assert_equivalent(2, &rows, vec![1, 0]);
}

#[test]
fn nan_coordinate() {
    let rows = vec![
        vec![0.1, 0.2, 0.3],
        vec![f64::NAN, 0.5, 0.0],
        vec![0.4, f64::NAN, 0.9],
        vec![0.2, 0.3, 0.4],
    ];
    assert_equivalent(3, &rows, shuffled(3));
    assert_equivalent(3, &[vec![f64::NAN; 3], vec![1.0; 3]], shuffled(3));
}

#[test]
fn infinite_coordinates() {
    let rows = vec![
        vec![0.0, 1.0],
        vec![f64::INFINITY, 0.5],
        vec![0.5, f64::NEG_INFINITY],
        vec![0.25, 0.75],
    ];
    assert_equivalent(2, &rows, vec![1, 0]);
}

#[test]
fn overflowing_grid() {
    // A lane spanning ±1e308 has no finite grid step: the block opts out
    // of q8, and rows that fit the overflowed grid after the last widening
    // push still carry their per-lane codes.
    let rows = vec![
        vec![1e308, 0.0],
        vec![-1e308, 1.0],
        vec![0.0, 0.5],
        vec![5.0, 0.25],
    ];
    let bulk = VectorArena::from_rows(2, rows.iter().map(Vec::as_slice));
    assert!(bulk.q8_grid().is_none());
    assert_eq!(bulk.q8_radius(), f64::INFINITY);
    assert_equivalent(2, &rows, vec![1, 0]);
}

#[test]
#[should_panic(expected = "row dimension mismatch")]
fn from_rows_rejects_wrong_dimension() {
    VectorArena::from_rows(3, [&[0.0, 1.0][..]]);
}
