//! Unrolled distance kernels over flat `&[f64]` slices.
//!
//! Every distance the workspace computes ultimately lands here: the
//! [`crate::Point`] methods and the [`crate::Metric`] implementations all
//! delegate to these kernels, so the arena-backed leaf scans and the
//! `Vec<Point>` paths produce **bit-identical** results by construction.
//!
//! The kernels process coordinates in chunks of four with four independent
//! accumulators, which breaks the add-latency dependency chain and lets the
//! compiler keep four FMAs (or mul+adds) in flight. The tail (`dim % 4`
//! coordinates) is folded into the first accumulator, and the accumulators
//! are combined as `(s0 + s1) + (s2 + s3)` — a fixed reduction order, so a
//! given build computes one well-defined value per input pair.
//!
//! The `*_bounded` variants implement **partial-distance early abandon**:
//! after each chunk of [`CHECKPOINT_LANES`] terms they compare the running
//! sum against the caller's bound (the current k-th-best distance) and bail
//! with `None` once it is exceeded. Because every term is non-negative and
//! IEEE-754 rounding is monotone, the running sum never decreases, so a
//! checkpoint that exceeds the bound proves the full distance would too —
//! abandoning is *exact*, never approximate. When the scan survives every
//! checkpoint, the returned `Some(value)` is bit-identical to the unbounded
//! kernel because both run the very same accumulation.
//!
//! # Precision tiers
//!
//! Next to the canonical f64 kernels this module carries two cheap tiers
//! used by the two-phase leaf scan: **f32** kernels over single-precision
//! mirrors ([`dist2_f32`], [`dist2_batch_f32_bounded_depth`]) and **q8**
//! kernels over 8-bit codes on per-dimension grids ([`dist2_q8w`],
//! [`dist2_batch_q8w_bounded_depth`]). The plain kernels
//! [`dist2_batch_f32`], [`dist2_q8`] and [`dist2_batch_q8`] are timed by
//! the benchmarks; no scan path calls them.
//! Neither tier ever *answers* a query; their results are turned into
//! certified **lower bounds** on the true f64 distance via the
//! `*_prune_threshold` helpers below, so a row they
//! disqualify provably cannot enter the k-NN result and every survivor is
//! re-ranked with the canonical [`dist2`] — returned answers stay
//! bit-identical to a pure f64 scan.
//!
//! The certification argument is the triangle inequality plus a forward
//! error bound: with `q̂`, `x̂` the low-precision representations and
//! `r_q ≥ ‖q−q̂‖`, `r_x ≥ ‖x−x̂‖` (computed in f64, stored as
//! overestimates), `‖q−x‖ ≥ ‖q̂−x̂‖ − r_q − r_x`. The f32 kernel does not
//! compute `‖q̂−x̂‖²` exactly; its accumulated sum `S` satisfies
//! `S ≤ (1+γ)·σ` with `σ` the exact sum and `γ =` [`f32_accum_slack`], so
//! `σ ≥ S/(1+γ)` is still certain. The q8 kernel's squared code
//! differences are exact; its slack is the weighted f64 accumulation
//! ([`q8w_accum_slack`]) plus the rounding of the reconstruction grid,
//! absorbed into the stored `r` values by [`displacement_norm_q8w`]. Every
//! helper rounds its slack *against* the pruning decision, so
//! `lb ≤ dist2` holds unconditionally (certified for dimensions up to
//! ~10⁶; see [`CERT_PAD`]).

/// Accumulator-lane count of every kernel in this module — and therefore
/// the **checkpoint cadence** of the `*_bounded` variants, which compare
/// the running sum against the bound once per `CHECKPOINT_LANES` terms.
///
/// This constant is load-bearing for the lower-bound certification, not a
/// style choice: [`f32_accum_slack`] budgets the accumulation error as
/// `2·(dim + CHECKPOINT_LANES)·ε₃₂`, where the `+ CHECKPOINT_LANES` term
/// pays for the final cross-lane reduction `(s0 + s1) + (s2 + s3)`. A wider
/// unroll without a matching slack update would under-estimate the error
/// and could certify a false prune. The kernel bodies hard-code the width
/// in their `chunks_exact(4)` / `xa[0..=3]` shape; the compile-time guard
/// below and `checkpoint_cadence_is_four_lanes` in the test module keep the
/// constant and the bodies from drifting apart.
pub const CHECKPOINT_LANES: usize = 4;

// The kernel bodies index lanes 0..=3 explicitly; they must agree with the
// advertised cadence.
const _: () = assert!(CHECKPOINT_LANES == 4);

/// Fused multiply-add when the target actually has an FMA unit, plain
/// mul+add otherwise.
///
/// On the baseline `x86-64` target (SSE2 only) `f64::mul_add` lowers to a
/// libm soft-float call that is an order of magnitude slower than a mul and
/// an add, so the fused form is only worth emitting when
/// `target_feature = "fma"` is enabled (e.g. `-C target-cpu=native`).
#[inline(always)]
fn fmadd(a: f64, b: f64, acc: f64) -> f64 {
    #[cfg(target_feature = "fma")]
    {
        a.mul_add(b, acc)
    }
    #[cfg(not(target_feature = "fma"))]
    {
        acc + a * b
    }
}

/// Squared Euclidean distance between two coordinate slices.
///
/// This is *the* canonical L2 arithmetic of the workspace:
/// [`crate::Point::dist2`] delegates here.
#[inline]
pub fn dist2(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "dimension mismatch");
    let mut s0 = 0.0f64;
    let mut s1 = 0.0f64;
    let mut s2 = 0.0f64;
    let mut s3 = 0.0f64;
    let ca = a.chunks_exact(4);
    let cb = b.chunks_exact(4);
    let (ta, tb) = (ca.remainder(), cb.remainder());
    for (xa, xb) in ca.zip(cb) {
        let d0 = xa[0] - xb[0];
        let d1 = xa[1] - xb[1];
        let d2 = xa[2] - xb[2];
        let d3 = xa[3] - xb[3];
        s0 = fmadd(d0, d0, s0);
        s1 = fmadd(d1, d1, s1);
        s2 = fmadd(d2, d2, s2);
        s3 = fmadd(d3, d3, s3);
    }
    for (x, y) in ta.iter().zip(tb) {
        let d = x - y;
        s0 = fmadd(d, d, s0);
    }
    (s0 + s1) + (s2 + s3)
}

/// Manhattan (L1) distance between two coordinate slices.
#[inline]
pub fn manhattan(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "dimension mismatch");
    let mut s0 = 0.0f64;
    let mut s1 = 0.0f64;
    let mut s2 = 0.0f64;
    let mut s3 = 0.0f64;
    let ca = a.chunks_exact(4);
    let cb = b.chunks_exact(4);
    let (ta, tb) = (ca.remainder(), cb.remainder());
    for (xa, xb) in ca.zip(cb) {
        s0 += (xa[0] - xb[0]).abs();
        s1 += (xa[1] - xb[1]).abs();
        s2 += (xa[2] - xb[2]).abs();
        s3 += (xa[3] - xb[3]).abs();
    }
    for (x, y) in ta.iter().zip(tb) {
        s0 += (x - y).abs();
    }
    (s0 + s1) + (s2 + s3)
}

/// Chebyshev (L∞ / maximum) distance between two coordinate slices.
///
/// `max` is exactly order-independent over non-negative terms, so this
/// kernel agrees bit-for-bit with any sequential fold.
#[inline]
pub fn chebyshev(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "dimension mismatch");
    let mut s0 = 0.0f64;
    let mut s1 = 0.0f64;
    let mut s2 = 0.0f64;
    let mut s3 = 0.0f64;
    let ca = a.chunks_exact(4);
    let cb = b.chunks_exact(4);
    let (ta, tb) = (ca.remainder(), cb.remainder());
    for (xa, xb) in ca.zip(cb) {
        s0 = s0.max((xa[0] - xb[0]).abs());
        s1 = s1.max((xa[1] - xb[1]).abs());
        s2 = s2.max((xa[2] - xb[2]).abs());
        s3 = s3.max((xa[3] - xb[3]).abs());
    }
    for (x, y) in ta.iter().zip(tb) {
        s0 = s0.max((x - y).abs());
    }
    (s0.max(s1)).max(s2.max(s3))
}

/// Squared Euclidean distance with partial-distance early abandon.
///
/// Returns `None` as soon as a chunk checkpoint proves the full distance
/// exceeds `bound`; otherwise `Some(d2)` where `d2` is bit-identical to
/// [`dist2`]. `Some(d2)` with `d2 > bound` is possible when only the tail
/// coordinates push the sum over — callers comparing against an exact
/// radius must re-check.
#[inline]
pub fn dist2_bounded(a: &[f64], b: &[f64], bound: f64) -> Option<f64> {
    dist2_bounded_depth(a, b, bound).0
}

/// [`dist2_bounded`] plus the number of checkpoint comparisons performed.
///
/// The second value is the **abandon depth** in units of
/// [`CHECKPOINT_LANES`] coordinates: an abandon at the `c`-th checkpoint
/// returns `(None, c)`, meaning `c · CHECKPOINT_LANES` coordinates were
/// consumed before the partial sum cleared the bound; a survivor returns
/// `(Some(d2), dim / CHECKPOINT_LANES)`. The `Option` is bit-identical to
/// [`dist2_bounded`] — the counter only observes the checkpoints the
/// shared accumulation already evaluates.
#[inline]
pub fn dist2_bounded_depth(a: &[f64], b: &[f64], bound: f64) -> (Option<f64>, u64) {
    debug_assert_eq!(a.len(), b.len(), "dimension mismatch");
    let mut s0 = 0.0f64;
    let mut s1 = 0.0f64;
    let mut s2 = 0.0f64;
    let mut s3 = 0.0f64;
    let mut cp = 0u64;
    let ca = a.chunks_exact(4);
    let cb = b.chunks_exact(4);
    let (ta, tb) = (ca.remainder(), cb.remainder());
    for (xa, xb) in ca.zip(cb) {
        let d0 = xa[0] - xb[0];
        let d1 = xa[1] - xb[1];
        let d2 = xa[2] - xb[2];
        let d3 = xa[3] - xb[3];
        s0 = fmadd(d0, d0, s0);
        s1 = fmadd(d1, d1, s1);
        s2 = fmadd(d2, d2, s2);
        s3 = fmadd(d3, d3, s3);
        cp += 1;
        if (s0 + s1) + (s2 + s3) > bound {
            return (None, cp);
        }
    }
    for (x, y) in ta.iter().zip(tb) {
        let d = x - y;
        s0 = fmadd(d, d, s0);
    }
    (Some((s0 + s1) + (s2 + s3)), cp)
}

/// Manhattan distance with partial-distance early abandon (see
/// [`dist2_bounded`] for the contract).
#[inline]
pub fn manhattan_bounded(a: &[f64], b: &[f64], bound: f64) -> Option<f64> {
    debug_assert_eq!(a.len(), b.len(), "dimension mismatch");
    let mut s0 = 0.0f64;
    let mut s1 = 0.0f64;
    let mut s2 = 0.0f64;
    let mut s3 = 0.0f64;
    let ca = a.chunks_exact(4);
    let cb = b.chunks_exact(4);
    let (ta, tb) = (ca.remainder(), cb.remainder());
    for (xa, xb) in ca.zip(cb) {
        s0 += (xa[0] - xb[0]).abs();
        s1 += (xa[1] - xb[1]).abs();
        s2 += (xa[2] - xb[2]).abs();
        s3 += (xa[3] - xb[3]).abs();
        if (s0 + s1) + (s2 + s3) > bound {
            return None;
        }
    }
    for (x, y) in ta.iter().zip(tb) {
        s0 += (x - y).abs();
    }
    Some((s0 + s1) + (s2 + s3))
}

/// Chebyshev distance with early abandon (see [`dist2_bounded`] for the
/// contract).
#[inline]
pub fn chebyshev_bounded(a: &[f64], b: &[f64], bound: f64) -> Option<f64> {
    debug_assert_eq!(a.len(), b.len(), "dimension mismatch");
    let mut s0 = 0.0f64;
    let mut s1 = 0.0f64;
    let mut s2 = 0.0f64;
    let mut s3 = 0.0f64;
    let ca = a.chunks_exact(4);
    let cb = b.chunks_exact(4);
    let (ta, tb) = (ca.remainder(), cb.remainder());
    for (xa, xb) in ca.zip(cb) {
        s0 = s0.max((xa[0] - xb[0]).abs());
        s1 = s1.max((xa[1] - xb[1]).abs());
        s2 = s2.max((xa[2] - xb[2]).abs());
        s3 = s3.max((xa[3] - xb[3]).abs());
        if (s0.max(s1)).max(s2.max(s3)) > bound {
            return None;
        }
    }
    for (x, y) in ta.iter().zip(tb) {
        s0 = s0.max((x - y).abs());
    }
    Some((s0.max(s1)).max(s2.max(s3)))
}

/// Scans a whole row-major block of vectors against one query, writing the
/// squared Euclidean distance of every row into `out`.
///
/// `block` must hold `out.len()` rows of `dim` coordinates each. Each
/// written distance is bit-identical to [`dist2`] on the corresponding row.
///
/// # Panics
///
/// Panics if `block.len() != out.len() * dim` or the query has the wrong
/// dimension.
pub fn dist2_batch(query: &[f64], block: &[f64], dim: usize, out: &mut [f64]) {
    assert!(dim > 0, "zero-dimensional block");
    assert_eq!(query.len(), dim, "query dimension mismatch");
    assert_eq!(block.len(), out.len() * dim, "block/out shape mismatch");
    for (row, slot) in block.chunks_exact(dim).zip(out.iter_mut()) {
        *slot = dist2(query, row);
    }
}

/// Squared Euclidean distance between two f32 mirrors, single precision.
///
/// Four-lane accumulation like [`dist2`], but deliberately **without** the
/// FMA gate: the certification slack [`f32_accum_slack`] is derived for
/// plain round-to-nearest mul+add (FMA would only shrink the error, so the
/// slack stays valid either way, but one fixed shape keeps the analysis
/// readable). The result is *not* a distance anyone may return — it feeds
/// [`lb2_from_f32`] / [`f32_prune_threshold`] which turn it into a
/// certified lower bound on the f64 distance.
#[inline]
pub fn dist2_f32(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len(), "dimension mismatch");
    let mut s0 = 0.0f32;
    let mut s1 = 0.0f32;
    let mut s2 = 0.0f32;
    let mut s3 = 0.0f32;
    let ca = a.chunks_exact(4);
    let cb = b.chunks_exact(4);
    let (ta, tb) = (ca.remainder(), cb.remainder());
    for (xa, xb) in ca.zip(cb) {
        let d0 = xa[0] - xb[0];
        let d1 = xa[1] - xb[1];
        let d2 = xa[2] - xb[2];
        let d3 = xa[3] - xb[3];
        s0 += d0 * d0;
        s1 += d1 * d1;
        s2 += d2 * d2;
        s3 += d3 * d3;
    }
    for (x, y) in ta.iter().zip(tb) {
        let d = x - y;
        s0 += d * d;
    }
    (s0 + s1) + (s2 + s3)
}

/// [`dist2_f32`] with partial-distance early abandon at the
/// [`CHECKPOINT_LANES`] cadence, plus the number of checkpoint
/// comparisons performed (see [`dist2_bounded_depth`] for the depth
/// contract).
///
/// Abandoning is certified by monotonicity exactly as for
/// [`dist2_bounded`]: non-negative terms under round-to-nearest never
/// shrink a lane, so a checkpoint above `bound` proves the full sum ends
/// above `bound` too. Overflow is safe by the same argument — once a lane
/// reaches `+∞` it stays there, and `∞ > bound` holds for every finite
/// bound. Callers that pass `bound = f32::INFINITY` disable abandonment
/// (nothing exceeds it, including `∞` itself) and must treat non-finite
/// `Some` sums as uncertified (see [`f32_row_prunable`]).
#[inline]
pub fn dist2_f32_bounded_depth(a: &[f32], b: &[f32], bound: f32) -> (Option<f32>, u64) {
    debug_assert_eq!(a.len(), b.len(), "dimension mismatch");
    let mut s0 = 0.0f32;
    let mut s1 = 0.0f32;
    let mut s2 = 0.0f32;
    let mut s3 = 0.0f32;
    let mut cp = 0u64;
    let ca = a.chunks_exact(4);
    let cb = b.chunks_exact(4);
    let (ta, tb) = (ca.remainder(), cb.remainder());
    for (xa, xb) in ca.zip(cb) {
        let d0 = xa[0] - xb[0];
        let d1 = xa[1] - xb[1];
        let d2 = xa[2] - xb[2];
        let d3 = xa[3] - xb[3];
        s0 += d0 * d0;
        s1 += d1 * d1;
        s2 += d2 * d2;
        s3 += d3 * d3;
        cp += 1;
        if (s0 + s1) + (s2 + s3) > bound {
            return (None, cp);
        }
    }
    for (x, y) in ta.iter().zip(tb) {
        let d = x - y;
        s0 += d * d;
    }
    (Some((s0 + s1) + (s2 + s3)), cp)
}

/// Scans a row-major f32 block against one f32 query, writing every row's
/// [`dist2_f32`] into `out`.
///
/// # Panics
///
/// Panics if `block.len() != out.len() * dim` or the query has the wrong
/// dimension.
pub fn dist2_batch_f32(query: &[f32], block: &[f32], dim: usize, out: &mut [f32]) {
    assert!(dim > 0, "zero-dimensional block");
    assert_eq!(query.len(), dim, "query dimension mismatch");
    assert_eq!(block.len(), out.len() * dim, "block/out shape mismatch");
    for (row, slot) in block.chunks_exact(dim).zip(out.iter_mut()) {
        *slot = dist2_f32(query, row);
    }
}

/// Scans a row-major f32 block against one f32 query with
/// [`dist2_f32_bounded_depth`], `None` marking rows abandoned at a
/// checkpoint, and returns `(abandoned_rows, abandon_checkpoints)`: the
/// second figure sums the checkpoint count of every **abandoned** row
/// (survivor checkpoints are not counted, so
/// `abandon_checkpoints / abandoned_rows` is the mean abandon depth in
/// [`CHECKPOINT_LANES`] units).
///
/// # Panics
///
/// Panics if `block.len() != out.len() * dim` or the query has the wrong
/// dimension.
pub fn dist2_batch_f32_bounded_depth(
    query: &[f32],
    block: &[f32],
    dim: usize,
    bound: f32,
    out: &mut [Option<f32>],
) -> (u64, u64) {
    assert!(dim > 0, "zero-dimensional block");
    assert_eq!(query.len(), dim, "query dimension mismatch");
    assert_eq!(block.len(), out.len() * dim, "block/out shape mismatch");
    let (mut rows, mut cps) = (0u64, 0u64);
    for (row, slot) in block.chunks_exact(dim).zip(out.iter_mut()) {
        let (s, cp) = dist2_f32_bounded_depth(query, row, bound);
        if s.is_none() {
            rows += 1;
            cps += cp;
        }
        *slot = s;
    }
    (rows, cps)
}

/// Code-space squared distance between two 8-bit quantized rows: the
/// **exact** integer `Σ (a[i] − b[i])²` over the u8 codes.
///
/// Four u64 lanes; each term is at most `255² = 65025`, so the sum is
/// exact for any realistic dimension (no overflow below `dim ≈ 2⁵⁰`), and
/// `(sum as f64)` is exact below `2⁵³`. The caller owns the grid.
#[inline]
pub fn dist2_q8(a: &[u8], b: &[u8]) -> u64 {
    debug_assert_eq!(a.len(), b.len(), "dimension mismatch");
    let mut s0 = 0u64;
    let mut s1 = 0u64;
    let mut s2 = 0u64;
    let mut s3 = 0u64;
    let ca = a.chunks_exact(4);
    let cb = b.chunks_exact(4);
    let (ta, tb) = (ca.remainder(), cb.remainder());
    for (xa, xb) in ca.zip(cb) {
        let d0 = xa[0] as i32 - xb[0] as i32;
        let d1 = xa[1] as i32 - xb[1] as i32;
        let d2 = xa[2] as i32 - xb[2] as i32;
        let d3 = xa[3] as i32 - xb[3] as i32;
        s0 += (d0 * d0) as u64;
        s1 += (d1 * d1) as u64;
        s2 += (d2 * d2) as u64;
        s3 += (d3 * d3) as u64;
    }
    for (x, y) in ta.iter().zip(tb) {
        let d = *x as i32 - *y as i32;
        s0 += (d * d) as u64;
    }
    (s0 + s1) + (s2 + s3)
}

/// Scans a row-major q8 code block against one quantized query, writing
/// every row's [`dist2_q8`] into `out`.
///
/// # Panics
///
/// Panics if `block.len() != out.len() * dim` or the query has the wrong
/// dimension.
pub fn dist2_batch_q8(query: &[u8], block: &[u8], dim: usize, out: &mut [u64]) {
    assert!(dim > 0, "zero-dimensional block");
    assert_eq!(query.len(), dim, "query dimension mismatch");
    assert_eq!(block.len(), out.len() * dim, "block/out shape mismatch");
    for (row, slot) in block.chunks_exact(dim).zip(out.iter_mut()) {
        *slot = dist2_q8(query, row);
    }
}

/// Weighted code-space squared distance for **per-dimension** q8 grids:
/// `Σ_j w[j] · (a[j] − b[j])²` accumulated in f64, with `w[j]` the squared
/// grid step of lane `j` (see `VectorArena::q8_weights`).
///
/// With per-lane scales the reconstruction distance is no longer
/// `scale²·Σ d²` of one global grid; each lane contributes
/// `(scale_j·d_j)²`. The integer code difference squared (`≤ 255² =
/// 65025`) is exact in f64, so the only rounding is the weight product and
/// the four-lane accumulation, budgeted by [`q8w_accum_slack`]. Same
/// four-lane shape and checkpoint cadence as every other kernel here;
/// plain mul+add (no FMA gate) like [`dist2_f32`], so one fixed rounding
/// model backs the slack.
///
/// Degenerate lanes (constant coordinate, `scale = 0`) carry weight `0`
/// and contribute nothing — their reconstruction is exact, so per-lane
/// grids never force a whole block off the q8 tier the way a constant
/// block did under the old scalar grid.
///
/// The query side `a` is **wide** i32 codes (see [`Q8W_CODE_CAP`]): a
/// query coordinate outside the block's per-lane range encodes to a code
/// beyond `[0, 255]` instead of clamping to the grid edge. Per-leaf lanes
/// are narrow, so clamping would routinely inflate the query displacement
/// `r_q` to the full query-to-leaf distance and destroy the pruning
/// margin; wide codes keep `r_q` at half a grid step per lane. Code
/// differences stay `≤ 2·Q8W_CODE_CAP`, so `d²` is exact in both i64 and
/// f64.
#[inline]
pub fn dist2_q8w(a: &[i32], b: &[u8], w: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "dimension mismatch");
    debug_assert_eq!(a.len(), w.len(), "weight dimension mismatch");
    let mut s0 = 0.0f64;
    let mut s1 = 0.0f64;
    let mut s2 = 0.0f64;
    let mut s3 = 0.0f64;
    let ca = a.chunks_exact(4);
    let cb = b.chunks_exact(4);
    let cw = w.chunks_exact(4);
    let (ta, tb, tw) = (ca.remainder(), cb.remainder(), cw.remainder());
    for ((xa, xb), xw) in ca.zip(cb).zip(cw) {
        let d0 = (xa[0] as i64 - xb[0] as i64).pow(2) as f64;
        let d1 = (xa[1] as i64 - xb[1] as i64).pow(2) as f64;
        let d2 = (xa[2] as i64 - xb[2] as i64).pow(2) as f64;
        let d3 = (xa[3] as i64 - xb[3] as i64).pow(2) as f64;
        s0 += xw[0] * d0;
        s1 += xw[1] * d1;
        s2 += xw[2] * d2;
        s3 += xw[3] * d3;
    }
    for ((x, y), wj) in ta.iter().zip(tb).zip(tw) {
        let d = (*x as i64 - *y as i64).pow(2) as f64;
        s0 += wj * d;
    }
    (s0 + s1) + (s2 + s3)
}

/// Magnitude cap on the wide query codes of the weighted q8 kernels.
///
/// With `|code| ≤ 2²⁵` the difference against a row code (`∈ [0, 255]`)
/// stays below `2²⁶`, so its square is below `2⁵²` — exactly representable
/// in f64, preserving the "`d²` is exact" premise of
/// [`q8w_accum_slack`]. Queries that would encode beyond the cap are
/// clamped to it; the residual reconstruction error is charged to the
/// query displacement `r_q` by the encoder, so certification stays valid
/// (such a query is ≥ `2²⁵` grid steps outside the block — pruning power
/// there is irrelevant).
pub const Q8W_CODE_CAP: i32 = 1 << 25;

/// [`dist2_q8w`] with early abandon at the [`CHECKPOINT_LANES`] cadence,
/// plus the checkpoint count (see [`dist2_bounded_depth`]).
///
/// Every term `w[j]·d²` is non-negative and IEEE addition is monotone, so
/// a checkpoint above `bound` certifies the full sum would be too. An
/// overflowed (`+∞`) running sum abandons safely as well: reaching `∞`
/// requires the exact sum to exceed `f64::MAX / 2`, astronomically above
/// any threshold derived from a finite pruning bound.
#[inline]
pub fn dist2_q8w_bounded_depth(a: &[i32], b: &[u8], w: &[f64], bound: f64) -> (Option<f64>, u64) {
    debug_assert_eq!(a.len(), b.len(), "dimension mismatch");
    debug_assert_eq!(a.len(), w.len(), "weight dimension mismatch");
    let mut s0 = 0.0f64;
    let mut s1 = 0.0f64;
    let mut s2 = 0.0f64;
    let mut s3 = 0.0f64;
    let mut cp = 0u64;
    let ca = a.chunks_exact(4);
    let cb = b.chunks_exact(4);
    let cw = w.chunks_exact(4);
    let (ta, tb, tw) = (ca.remainder(), cb.remainder(), cw.remainder());
    for ((xa, xb), xw) in ca.zip(cb).zip(cw) {
        let d0 = (xa[0] as i64 - xb[0] as i64).pow(2) as f64;
        let d1 = (xa[1] as i64 - xb[1] as i64).pow(2) as f64;
        let d2 = (xa[2] as i64 - xb[2] as i64).pow(2) as f64;
        let d3 = (xa[3] as i64 - xb[3] as i64).pow(2) as f64;
        s0 += xw[0] * d0;
        s1 += xw[1] * d1;
        s2 += xw[2] * d2;
        s3 += xw[3] * d3;
        cp += 1;
        if (s0 + s1) + (s2 + s3) > bound {
            return (None, cp);
        }
    }
    for ((x, y), wj) in ta.iter().zip(tb).zip(tw) {
        let d = (*x as i64 - *y as i64).pow(2) as f64;
        s0 += wj * d;
    }
    (Some((s0 + s1) + (s2 + s3)), cp)
}

/// Scans a row-major q8 code block against one quantized query with the
/// weighted per-dimension kernel, abandoning rows at `bound` and returning
/// `(abandoned_rows, abandon_checkpoints)` (see
/// [`dist2_batch_f32_bounded_depth`] for the accounting contract).
///
/// # Panics
///
/// Panics if `block.len() != out.len() * dim`, or the query or weight
/// vector has the wrong dimension.
pub fn dist2_batch_q8w_bounded_depth(
    query: &[i32],
    block: &[u8],
    w: &[f64],
    dim: usize,
    bound: f64,
    out: &mut [Option<f64>],
) -> (u64, u64) {
    assert!(dim > 0, "zero-dimensional block");
    assert_eq!(query.len(), dim, "query dimension mismatch");
    assert_eq!(w.len(), dim, "weight dimension mismatch");
    assert_eq!(block.len(), out.len() * dim, "block/out shape mismatch");
    let (mut rows, mut cps) = (0u64, 0u64);
    for (row, slot) in block.chunks_exact(dim).zip(out.iter_mut()) {
        let (s, cp) = dist2_q8w_bounded_depth(query, row, w, bound);
        if s.is_none() {
            rows += 1;
            cps += cp;
        }
        *slot = s;
    }
    (rows, cps)
}

/// Relative padding applied wherever the certification helpers do f64
/// arithmetic of their own (a handful of mul/add/sqrt roundings, each
/// bounded by `ε₆₄ ≈ 2.2·10⁻¹⁶` relative).
///
/// `10⁻⁹` over-covers those roundings by six orders of magnitude while
/// costing a relative `10⁻⁹` of pruning power — unmeasurable. It also
/// absorbs the rounding of the *canonical f64 kernel itself*: a certified
/// prune guarantees `dist2 ≥ bound·(1+CERT_PAD)` in exact arithmetic, so
/// the computed [`dist2`] stays `≥ bound` as long as its own relative
/// error `2·(dim+4)·ε₆₄` is below `CERT_PAD`, i.e. for dimensions up to
/// about `2·10⁶`.
pub const CERT_PAD: f64 = 1e-9;

/// Relative forward-error budget of the f32 accumulation in
/// [`dist2_f32`]: the computed sum `S` and the exact sum `σ` satisfy
/// `|S − σ| ≤ f32_accum_slack(dim) · σ`.
///
/// Budgeted as `2·(dim + CHECKPOINT_LANES)·ε₃₂` with `ε₃₂ = f32::EPSILON`:
/// `dim` products, per-lane chains of at most `dim` additions, plus the
/// cross-lane reduction — a standard Higham-style bound, stated with the
/// full machine epsilon (twice the unit roundoff) for headroom. Returns a
/// value `≥ 1` only for absurd dimensions (`> 2²²`), where the f32 tier
/// certifies nothing and callers should stay on f64.
pub fn f32_accum_slack(dim: usize) -> f64 {
    2.0 * (dim + CHECKPOINT_LANES) as f64 * f32::EPSILON as f64
}

/// Relative forward-error budget of the weighted q8 accumulation in
/// [`dist2_q8w`]: the computed sum `S` and the exact `σ = Σ w_j·d_j²`
/// satisfy `|S − σ| ≤ q8w_accum_slack(dim) · σ`.
///
/// Per term: the weight itself carries one rounding (`scale_j²`), the
/// product `w_j·d_j²` another (`d_j²` is an exact integer in f64), and the
/// additions contribute a Higham chain of at most `dim` roundings per lane
/// plus the cross-lane reduction — `4·(dim + CHECKPOINT_LANES)·ε₆₄` covers
/// all of it with headroom (stated with the full machine epsilon, twice
/// the unit roundoff).
pub fn q8w_accum_slack(dim: usize) -> f64 {
    4.0 * (dim + CHECKPOINT_LANES) as f64 * f64::EPSILON
}

/// Overestimate of the displacement `‖v − m‖₂` between a row and its f32
/// mirror, suitable as the `r` input of the f32 certification helpers.
///
/// The sum runs in f64 over exactly representable inputs (f32 → f64 is
/// exact), so its error is purely relative and far below the
/// [`CERT_PAD`] inflation applied at the end.
pub fn displacement_norm_f32(v: &[f64], m: &[f32]) -> f64 {
    debug_assert_eq!(v.len(), m.len(), "dimension mismatch");
    let mut s = 0.0f64;
    for (x, y) in v.iter().zip(m) {
        let d = x - *y as f64;
        s += d * d;
    }
    s.sqrt() * (1.0 + CERT_PAD)
}

/// Overestimate of the displacement `‖v − x̂‖₂` between a row and its q8
/// reconstruction `x̂[j] = mins[j] + codes[j]·scales[j]` (the *ideal* grid
/// point in exact arithmetic, each lane on its own grid), suitable as the
/// `r` input of [`q8w_prune_threshold`]. Degenerate lanes
/// (`scales[j] = 0`) reconstruct to `mins[j]` exactly.
///
/// The reconstruction is computed, not stored, so each coordinate carries
/// an absolute f64 error up to a few `ε₆₄·|x̂[j]|`; the
/// `8·ε₆₄·amax·√dim` term over-covers that before the relative
/// [`CERT_PAD`] inflation.
pub fn displacement_norm_q8w(v: &[f64], codes: &[u8], mins: &[f64], scales: &[f64]) -> f64 {
    debug_assert_eq!(v.len(), codes.len(), "dimension mismatch");
    debug_assert_eq!(v.len(), mins.len(), "grid dimension mismatch");
    debug_assert_eq!(v.len(), scales.len(), "grid dimension mismatch");
    let mut s = 0.0f64;
    let mut amax = 0.0f64;
    for (j, (x, c)) in v.iter().zip(codes).enumerate() {
        let r = mins[j] + *c as f64 * scales[j];
        amax = amax.max(r.abs()).max(x.abs());
        let d = x - r;
        s += d * d;
    }
    let fudge = 8.0 * f64::EPSILON * amax * (v.len() as f64).sqrt();
    (s.sqrt() + fudge) * (1.0 + CERT_PAD)
}

/// [`displacement_norm_q8w`] for the **query** side's wide i32 codes (see
/// [`Q8W_CODE_CAP`]): identical math, but codes may lie outside
/// `[0, 255]`, so an in-range-per-lane query reconstructs within half a
/// grid step even when it falls outside the block's bounding box — this is
/// what keeps the q8 prune threshold tight on narrow per-leaf grids.
pub fn displacement_norm_q8w_query(v: &[f64], codes: &[i32], mins: &[f64], scales: &[f64]) -> f64 {
    debug_assert_eq!(v.len(), codes.len(), "dimension mismatch");
    debug_assert_eq!(v.len(), mins.len(), "grid dimension mismatch");
    debug_assert_eq!(v.len(), scales.len(), "grid dimension mismatch");
    let mut s = 0.0f64;
    let mut amax = 0.0f64;
    for (j, (x, c)) in v.iter().zip(codes).enumerate() {
        let r = mins[j] + *c as f64 * scales[j];
        amax = amax.max(r.abs()).max(x.abs());
        let d = x - r;
        s += d * d;
    }
    let fudge = 8.0 * f64::EPSILON * amax * (v.len() as f64).sqrt();
    (s.sqrt() + fudge) * (1.0 + CERT_PAD)
}

/// Certified lower bound on the **exact** squared f64 distance `‖q−x‖²`
/// from the f32 kernel sum `s = dist2_f32(q̂, x̂)` and displacement
/// overestimates `rq ≥ ‖q−q̂‖`, `rx ≥ ‖x−x̂‖`.
///
/// Non-finite `s` (overflow to `∞`, or NaN from `∞−∞` diffs) certifies
/// nothing and yields the trivial bound `0`.
pub fn lb2_from_f32(s: f32, rq: f64, rx: f64, dim: usize) -> f64 {
    if !s.is_finite() {
        return 0.0;
    }
    // σ ≥ S/(1+γ); deflate every own rounding toward zero.
    let sigma = s as f64 / ((1.0 + f32_accum_slack(dim)) * (1.0 + CERT_PAD));
    let lb = (sigma.sqrt() * (1.0 - CERT_PAD) - rq - rx).max(0.0);
    (lb * lb) * (1.0 - CERT_PAD)
}

/// Phase-1 prune threshold for the f32 tier: a row whose f32 kernel sum
/// `S` satisfies `(S as f64) ≥ f32_prune_threshold(bound, rq, rx, dim)` is
/// certified to have **computed** f64 `dist2 ≥ bound` and may be dropped
/// without re-ranking (see [`f32_row_prunable`]).
///
/// Derivation: pruning needs the exact `‖q̂−x̂‖² = σ ≥ (√(bound·(1+pad)) +
/// rq + rx)²`; since `σ ≥ S/(1+γ)`, comparing `S` against `(1+γ)` times
/// that target suffices, with [`CERT_PAD`] inflations covering both this
/// function's own roundings and the canonical kernel's.
pub fn f32_prune_threshold(bound: f64, rq: f64, rx: f64, dim: usize) -> f64 {
    if !bound.is_finite() {
        return f64::INFINITY;
    }
    let w = (bound * (1.0 + CERT_PAD)).sqrt() + rq + rx;
    (1.0 + f32_accum_slack(dim)) * (w * w) * (1.0 + CERT_PAD)
}

/// Phase-1 prune threshold for the per-dimension q8 tier: a row whose
/// weighted kernel sum `S` satisfies `S ≥ q8w_prune_threshold(...)` is
/// certified to have computed f64 `dist2 ≥ bound` (see
/// [`q8w_row_prunable`]). Same derivation as [`f32_prune_threshold`], with
/// [`q8w_accum_slack`] as the accumulation-error budget. The threshold is
/// the kernel's abandon bound directly — no cast step is needed, the sum
/// is already f64.
pub fn q8w_prune_threshold(bound: f64, rq: f64, rx: f64, dim: usize) -> f64 {
    if !bound.is_finite() {
        return f64::INFINITY;
    }
    let w = (bound * (1.0 + CERT_PAD)).sqrt() + rq + rx;
    (1.0 + q8w_accum_slack(dim)) * (w * w) * (1.0 + CERT_PAD)
}

/// The f32 bound to feed [`dist2_f32_bounded_depth`] for a phase-1
/// threshold `t` (from [`f32_prune_threshold`]).
///
/// Inflated by `10⁻⁶` before the cast so round-to-nearest can never land
/// below `t` (f32 cast error is `≤ 2⁻²⁴ ≈ 6·10⁻⁸` relative); when even the
/// inflated value overflows f32 the abandon path is disabled entirely
/// (`∞` bound) because an overflowed running sum would certify only
/// `σ ≳ 3.4·10³⁸`, which may be below `t` — such rows surface as
/// non-finite `Some` sums and survive to the f64 re-rank instead.
pub fn f32_kernel_bound(t: f64) -> f32 {
    let inflated = t * (1.0 + 1e-6);
    if inflated <= f32::MAX as f64 {
        inflated as f32
    } else {
        f32::INFINITY
    }
}

/// The certified phase-1 decision for one f32-tier row: `true` iff the row
/// provably has computed f64 `dist2 ≥` the bound that produced `t` via
/// [`f32_prune_threshold`].
///
/// `None` (abandoned at a checkpoint) is certified because
/// [`f32_kernel_bound`] only enables abandonment when the kernel bound is
/// finite and `≥ t`, and checkpoint sums are monotone. A finite `Some`
/// compares against `t` exactly in f64; non-finite sums certify nothing.
pub fn f32_row_prunable(s: Option<f32>, t: f64) -> bool {
    match s {
        None => true,
        Some(v) => v.is_finite() && v as f64 >= t,
    }
}

/// The certified phase-1 decision for one weighted q8-tier row. `None` is
/// certified because [`dist2_q8w_bounded_depth`] abandons on `sum > t`
/// with monotone non-negative accumulation (and an overflowed sum implies
/// an exact sum beyond any finite threshold); finite `Some` compares
/// against `t` in f64 directly.
pub fn q8w_row_prunable(s: Option<f64>, t: f64) -> bool {
    match s {
        None => true,
        Some(v) => v.is_finite() && v >= t,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_dist2(a: &[f64], b: &[f64]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| {
                let d = x - y;
                d * d
            })
            .sum()
    }

    fn vecs(dim: usize) -> (Vec<f64>, Vec<f64>) {
        // Deterministic, mildly irregular coordinates covering the tail
        // paths of every chunking scheme.
        let a: Vec<f64> = (0..dim)
            .map(|i| (i as f64 * 0.37).sin() * 0.5 + 0.5)
            .collect();
        let b: Vec<f64> = (0..dim)
            .map(|i| (i as f64 * 0.61).cos() * 0.5 + 0.5)
            .collect();
        (a, b)
    }

    #[test]
    fn dist2_matches_naive_closely_for_all_tail_lengths() {
        for dim in 1..=17 {
            let (a, b) = vecs(dim);
            let k = dist2(&a, &b);
            let n = naive_dist2(&a, &b);
            assert!((k - n).abs() <= 1e-12 * n.max(1.0), "dim {dim}: {k} vs {n}");
        }
    }

    #[test]
    fn small_dims_are_exact() {
        // Dims below the unroll width take the pure tail path, which is the
        // plain sequential sum.
        assert_eq!(dist2(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
        assert_eq!(manhattan(&[0.0, 0.0], &[3.0, 4.0]), 7.0);
        assert_eq!(chebyshev(&[0.0, 0.0], &[3.0, 4.0]), 4.0);
    }

    #[test]
    fn bounded_some_is_bit_identical_to_full() {
        for dim in [1usize, 3, 4, 5, 8, 13, 16, 31] {
            let (a, b) = vecs(dim);
            let full = dist2(&a, &b);
            // A bound the scan always survives.
            let got = dist2_bounded(&a, &b, f64::INFINITY).unwrap();
            assert_eq!(got.to_bits(), full.to_bits(), "dim {dim}");
            let full = manhattan(&a, &b);
            let got = manhattan_bounded(&a, &b, f64::INFINITY).unwrap();
            assert_eq!(got.to_bits(), full.to_bits(), "dim {dim}");
            let full = chebyshev(&a, &b);
            let got = chebyshev_bounded(&a, &b, f64::INFINITY).unwrap();
            assert_eq!(got.to_bits(), full.to_bits(), "dim {dim}");
        }
    }

    #[test]
    fn bounded_abandons_only_above_the_bound() {
        let (a, b) = vecs(32);
        let full = dist2(&a, &b);
        // Bound below the true distance: may abandon (and here, with 8
        // chunks, certainly does for a tiny bound).
        assert_eq!(dist2_bounded(&a, &b, full / 16.0), None);
        // Bound at exactly the true distance: `>` means it must survive.
        assert_eq!(dist2_bounded(&a, &b, full), Some(full));
        assert_eq!(
            manhattan_bounded(&a, &b, manhattan(&a, &b)),
            Some(manhattan(&a, &b))
        );
        assert_eq!(
            chebyshev_bounded(&a, &b, chebyshev(&a, &b)),
            Some(chebyshev(&a, &b))
        );
    }

    #[test]
    fn batch_matches_single_rows() {
        let dim = 7;
        let rows = 5;
        let (q, _) = vecs(dim);
        let block: Vec<f64> = (0..rows * dim).map(|i| (i as f64 * 0.13).fract()).collect();
        let mut out = vec![0.0; rows];
        dist2_batch(&q, &block, dim, &mut out);
        for (r, row) in block.chunks_exact(dim).enumerate() {
            assert_eq!(out[r].to_bits(), dist2(&q, row).to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn batch_rejects_ragged_blocks() {
        let mut out = vec![0.0; 2];
        dist2_batch(&[0.5, 0.5], &[0.0; 5], 2, &mut out);
    }

    /// Pins the checkpoint cadence the certification depends on: bounded
    /// kernels check once per [`CHECKPOINT_LANES`] coordinates and never in
    /// the tail. If someone widens the unroll without updating
    /// [`CHECKPOINT_LANES`] (and with it the f32 slack), this fails.
    #[test]
    fn checkpoint_cadence_is_four_lanes() {
        // One full chunk whose sum exceeds the bound: must abandon at the
        // first (and only) checkpoint.
        let big = vec![10.0f64; CHECKPOINT_LANES * 2];
        let zero = vec![0.0f64; CHECKPOINT_LANES * 2];
        assert_eq!(dist2_bounded(&big, &zero, 1.0), None);
        // Same mass moved entirely into the tail (dim = lanes + 1, chunk
        // part zero): the tail is never checkpointed, so the kernel must
        // return Some(value > bound) instead of abandoning.
        let mut tail_heavy = vec![0.0f64; CHECKPOINT_LANES + 1];
        tail_heavy[CHECKPOINT_LANES] = 10.0;
        let zeros = vec![0.0f64; CHECKPOINT_LANES + 1];
        let got = dist2_bounded(&tail_heavy, &zeros, 1.0);
        assert_eq!(got, Some(100.0), "tail coordinates must not checkpoint");
        // The f32 bounded kernel shares the cadence (the q8w one is
        // checked in `q8w_kernel_matches_naive_weighted_sum`).
        let big32: Vec<f32> = big.iter().map(|&v| v as f32).collect();
        let zero32 = vec![0.0f32; big.len()];
        assert_eq!(dist2_f32_bounded_depth(&big32, &zero32, 1.0), (None, 1));
        let mut t32 = vec![0.0f32; CHECKPOINT_LANES + 1];
        t32[CHECKPOINT_LANES] = 10.0;
        assert_eq!(
            dist2_f32_bounded_depth(&t32, &vec![0.0f32; t32.len()], 1.0).0,
            Some(100.0)
        );
    }

    #[test]
    fn f32_kernel_matches_f64_shape() {
        for dim in [1usize, 3, 4, 5, 8, 13, 16, 31] {
            let (a, b) = vecs(dim);
            let a32: Vec<f32> = a.iter().map(|&v| v as f32).collect();
            let b32: Vec<f32> = b.iter().map(|&v| v as f32).collect();
            let s = dist2_f32(&a32, &b32);
            let full = dist2(&a, &b);
            // Same accumulation shape, lower precision: close, not equal.
            assert!(
                (s as f64 - full).abs() <= 1e-5 * full.max(1.0),
                "dim {dim}: {s} vs {full}"
            );
            // Unbounded survival is bit-identical to the plain kernel.
            let got = dist2_f32_bounded_depth(&a32, &b32, f32::INFINITY)
                .0
                .unwrap();
            assert_eq!(got.to_bits(), s.to_bits(), "dim {dim}");
        }
    }

    #[test]
    fn q8_kernel_is_exact_integer_arithmetic() {
        for dim in [1usize, 3, 4, 5, 8, 13, 16, 31] {
            let a: Vec<u8> = (0..dim).map(|i| (i * 37 % 256) as u8).collect();
            let b: Vec<u8> = (0..dim).map(|i| (i * 91 % 256) as u8).collect();
            let naive: u64 = a
                .iter()
                .zip(&b)
                .map(|(&x, &y)| {
                    let d = x as i64 - y as i64;
                    (d * d) as u64
                })
                .sum();
            assert_eq!(dist2_q8(&a, &b), naive, "dim {dim}");
        }
    }

    #[test]
    fn tier_batches_match_row_kernels() {
        let dim = 7;
        let rows = 5;
        let block32: Vec<f32> = (0..rows * dim).map(|i| (i as f32 * 0.13).fract()).collect();
        let q32: Vec<f32> = (0..dim).map(|i| (i as f32 * 0.37).fract()).collect();
        let mut out32 = vec![0.0f32; rows];
        dist2_batch_f32(&q32, &block32, dim, &mut out32);
        let mut bounded32 = vec![None; rows];
        let (abandoned, _) =
            dist2_batch_f32_bounded_depth(&q32, &block32, dim, f32::INFINITY, &mut bounded32);
        assert_eq!(abandoned, 0);
        for (r, row) in block32.chunks_exact(dim).enumerate() {
            assert_eq!(out32[r].to_bits(), dist2_f32(&q32, row).to_bits());
            assert_eq!(bounded32[r].unwrap().to_bits(), out32[r].to_bits());
        }
        let blockq: Vec<u8> = (0..rows * dim).map(|i| (i * 53 % 256) as u8).collect();
        let qq: Vec<u8> = (0..dim).map(|i| (i * 29 % 256) as u8).collect();
        let mut outq = vec![0u64; rows];
        dist2_batch_q8(&qq, &blockq, dim, &mut outq);
        for (r, row) in blockq.chunks_exact(dim).enumerate() {
            assert_eq!(outq[r], dist2_q8(&qq, row));
        }
    }

    #[test]
    fn kernel_bounds_round_in_the_safe_direction() {
        // f32: the cast bound never lands below the threshold.
        for t in [0.0, 1e-30, 1.0, 1e30, 1e38, 1e39, f64::INFINITY] {
            let b = f32_kernel_bound(t);
            assert!(b as f64 >= t || b == f32::INFINITY, "t={t}, b={b}");
            if t * (1.0 + 1e-6) > f32::MAX as f64 {
                assert_eq!(b, f32::INFINITY, "overflowing t must disable abandon");
            }
        }
    }

    #[test]
    fn lower_bounds_stay_below_exact_distances() {
        for dim in [1usize, 4, 7, 16] {
            let (a, b) = vecs(dim);
            let exact = dist2(&a, &b);
            // f32 tier.
            let a32: Vec<f32> = a.iter().map(|&v| v as f32).collect();
            let b32: Vec<f32> = b.iter().map(|&v| v as f32).collect();
            let rq = displacement_norm_f32(&a, &a32);
            let rx = displacement_norm_f32(&b, &b32);
            let lb = lb2_from_f32(dist2_f32(&a32, &b32), rq, rx, dim);
            assert!(lb <= exact, "f32 dim {dim}: lb {lb} > exact {exact}");
        }
    }

    #[test]
    fn depth_variants_are_bit_identical_and_count_checkpoints() {
        for dim in [1usize, 3, 4, 5, 8, 13, 16, 32] {
            let (a, b) = vecs(dim);
            // Survivors: same value, checkpoints = full chunks.
            let (s, cp) = dist2_bounded_depth(&a, &b, f64::INFINITY);
            assert_eq!(s.unwrap().to_bits(), dist2(&a, &b).to_bits(), "dim {dim}");
            assert_eq!(cp, (dim / CHECKPOINT_LANES) as u64, "dim {dim}");
            let a32: Vec<f32> = a.iter().map(|&v| v as f32).collect();
            let b32: Vec<f32> = b.iter().map(|&v| v as f32).collect();
            let (s32, cp32) = dist2_f32_bounded_depth(&a32, &b32, f32::INFINITY);
            assert_eq!(s32.unwrap().to_bits(), dist2_f32(&a32, &b32).to_bits());
            assert_eq!(cp32, (dim / CHECKPOINT_LANES) as u64);
        }
        // An abandon reports the checkpoint it fired at: uniform mass means
        // the very first checkpoint clears a tiny bound.
        let big = vec![1.0f64; 32];
        let zero = vec![0.0f64; 32];
        assert_eq!(dist2_bounded_depth(&big, &zero, 1.0), (None, 1));
        // Mass only in the last chunk: every earlier checkpoint survives.
        let mut late = vec![0.0f64; 32];
        late[31] = 10.0;
        assert_eq!(dist2_bounded_depth(&late, &zero, 1.0), (None, 8));
    }

    #[test]
    fn q8w_kernel_matches_naive_weighted_sum() {
        for dim in [1usize, 3, 4, 5, 8, 13, 16, 31] {
            // Query codes are wide i32 and may leave [0, 255].
            let a: Vec<i32> = (0..dim).map(|i| (i as i32 * 37 % 600) - 100).collect();
            let b: Vec<u8> = (0..dim).map(|i| (i * 91 % 256) as u8).collect();
            let w: Vec<f64> = (0..dim).map(|i| ((i * 7 % 5) as f64) * 1e-4).collect();
            let naive: f64 = a
                .iter()
                .zip(&b)
                .zip(&w)
                .map(|((&x, &y), &wj)| {
                    let d = ((x as i64 - y as i64).pow(2)) as f64;
                    wj * d
                })
                .sum();
            let got = dist2_q8w(&a, &b, &w);
            assert!(
                (got - naive).abs() <= 1e-12 * naive.max(1.0),
                "dim {dim}: {got} vs {naive}"
            );
            // Unbounded survival is bit-identical to the plain kernel, and
            // the checkpoint cadence matches the other tiers.
            let (s, cp) = dist2_q8w_bounded_depth(&a, &b, &w, f64::INFINITY);
            assert_eq!(s.unwrap().to_bits(), got.to_bits(), "dim {dim}");
            assert_eq!(cp, (dim / CHECKPOINT_LANES) as u64);
        }
        // Abandon fires at the checkpoint, never in the tail.
        let big = vec![200i32; CHECKPOINT_LANES * 2];
        let zero = vec![0u8; CHECKPOINT_LANES * 2];
        let w = vec![1.0f64; CHECKPOINT_LANES * 2];
        assert_eq!(dist2_q8w_bounded_depth(&big, &zero, &w, 10.0), (None, 1));
        let mut tq = vec![0i32; CHECKPOINT_LANES + 1];
        tq[CHECKPOINT_LANES] = 200;
        let w = vec![1.0f64; CHECKPOINT_LANES + 1];
        assert_eq!(
            dist2_q8w_bounded_depth(&tq, &vec![0u8; tq.len()], &w, 10.0).0,
            Some(40_000.0)
        );
        // Wide codes at the cap stay exact: d² = (2²⁵ + 255)² round-trips
        // through f64 with no rounding.
        let far = vec![Q8W_CODE_CAP];
        let row = vec![255u8];
        let d = Q8W_CODE_CAP as i64 - 255;
        assert_eq!(dist2_q8w(&[-255i32], &row, &[1.0]), (510i64 * 510) as f64);
        assert_eq!(dist2_q8w(&far, &row, &[1.0]), (d * d) as f64);
    }

    #[test]
    fn q8w_lower_bounds_stay_below_exact_distances() {
        for dim in [1usize, 4, 7, 16] {
            let (mut a, mut bq) = vecs(dim);
            // Per-lane grids spanning both vectors, one degenerate lane
            // forced equal so its scale collapses to zero.
            a[0] = 0.5;
            bq[0] = 0.5;
            let mins: Vec<f64> = (0..dim).map(|j| a[j].min(bq[j])).collect();
            let maxs: Vec<f64> = (0..dim).map(|j| a[j].max(bq[j])).collect();
            let scales: Vec<f64> = mins
                .iter()
                .zip(&maxs)
                .map(|(&lo, &hi)| if hi > lo { (hi - lo) / 255.0 } else { 0.0 })
                .collect();
            let w: Vec<f64> = scales.iter().map(|&s| s * s).collect();
            let code = |v: f64, j: usize| {
                if scales[j] > 0.0 {
                    (((v - mins[j]) / scales[j]).round().clamp(0.0, 255.0)) as u8
                } else {
                    0
                }
            };
            let qcode = |v: f64, j: usize| -> i32 {
                if scales[j] > 0.0 {
                    ((v - mins[j]) / scales[j])
                        .round()
                        .clamp(-(Q8W_CODE_CAP as f64), Q8W_CODE_CAP as f64)
                        as i32
                } else {
                    0
                }
            };
            let ca: Vec<i32> = a.iter().enumerate().map(|(j, &v)| qcode(v, j)).collect();
            let cb: Vec<u8> = bq.iter().enumerate().map(|(j, &v)| code(v, j)).collect();
            let rq = displacement_norm_q8w_query(&a, &ca, &mins, &scales);
            let rx = displacement_norm_q8w(&bq, &cb, &mins, &scales);
            let exact = dist2(&a, &bq);
            // The prune threshold is safe: a certified row really is ≥ the
            // bound that produced the threshold, so no bound above the
            // exact distance can be certified.
            let s = dist2_q8w(&ca, &cb, &w);
            for frac in [0.25, 0.5, 0.99, 1.0, 1.01, 2.0] {
                let bound = exact * frac;
                let t = q8w_prune_threshold(bound, rq, rx, dim);
                if q8w_row_prunable(Some(s), t) {
                    assert!(exact >= bound, "q8w dim {dim}: false prune at {frac}");
                }
            }
        }
    }
}
