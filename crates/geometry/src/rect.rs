//! Axis-parallel hyper-rectangles (minimum bounding rectangles).
//!
//! Index pages of R*-trees and X-trees are described by MBRs; the
//! nearest-neighbor algorithms of Roussopoulos et al. [RKV 95] and
//! Hjaltason/Samet [HS 95] prune the search with the `MINDIST` and
//! `MINMAXDIST` bounds implemented here.

use serde::{Deserialize, Serialize};

use crate::error::GeometryError;
use crate::point::Point;

/// An axis-parallel hyper-rectangle `[lo_0,hi_0] × … × [lo_{d-1},hi_{d-1}]`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct HyperRect {
    lo: Box<[f64]>,
    hi: Box<[f64]>,
}

impl HyperRect {
    /// Creates a rectangle from its lower and upper corner.
    ///
    /// # Errors
    ///
    /// Fails on empty corners, mismatched dimensions, non-finite bounds or
    /// `lo > hi` on any axis.
    pub fn new(lo: Vec<f64>, hi: Vec<f64>) -> Result<Self, GeometryError> {
        if lo.is_empty() {
            return Err(GeometryError::ZeroDimensional);
        }
        if lo.len() != hi.len() {
            return Err(GeometryError::DimensionMismatch {
                left: lo.len(),
                right: hi.len(),
            });
        }
        for (axis, (&l, &h)) in lo.iter().zip(hi.iter()).enumerate() {
            if !l.is_finite() {
                return Err(GeometryError::NonFiniteCoordinate { axis, value: l });
            }
            if !h.is_finite() {
                return Err(GeometryError::NonFiniteCoordinate { axis, value: h });
            }
            if l > h {
                return Err(GeometryError::InvertedBounds { axis });
            }
        }
        Ok(HyperRect {
            lo: lo.into_boxed_slice(),
            hi: hi.into_boxed_slice(),
        })
    }

    /// The degenerate rectangle covering exactly one point.
    pub fn from_point(p: &Point) -> Self {
        Self::from_coords(p.coords())
    }

    /// The degenerate rectangle covering exactly one coordinate row (the
    /// arena-backed counterpart of [`HyperRect::from_point`]).
    pub fn from_coords(coords: &[f64]) -> Self {
        debug_assert!(!coords.is_empty(), "zero-dimensional rectangle");
        HyperRect {
            lo: coords.into(),
            hi: coords.into(),
        }
    }

    /// The rectangle with corners `lo` and `hi` copied from raw bound rows
    /// that already form a valid rectangle — the way directory slabs, which
    /// store `lo` then `hi` per entry, hand out an owned rectangle.
    pub fn from_bounds(lo: &[f64], hi: &[f64]) -> Self {
        debug_assert!(!lo.is_empty(), "zero-dimensional rectangle");
        debug_assert_eq!(lo.len(), hi.len());
        debug_assert!(lo.iter().zip(hi).all(|(l, h)| l <= h), "inverted bounds");
        HyperRect {
            lo: lo.into(),
            hi: hi.into(),
        }
    }

    /// The unit data space `[0,1]^d` the paper assumes.
    pub fn unit(dim: usize) -> Self {
        assert!(dim > 0, "zero-dimensional rectangle");
        HyperRect {
            lo: vec![0.0; dim].into_boxed_slice(),
            hi: vec![1.0; dim].into_boxed_slice(),
        }
    }

    /// Dimensionality.
    #[inline]
    pub fn dim(&self) -> usize {
        self.lo.len()
    }

    /// Lower bound on axis `axis`.
    #[inline]
    pub fn lo(&self, axis: usize) -> f64 {
        self.lo[axis]
    }

    /// Upper bound on axis `axis`.
    #[inline]
    pub fn hi(&self, axis: usize) -> f64 {
        self.hi[axis]
    }

    /// All lower bounds.
    #[inline]
    pub fn lo_coords(&self) -> &[f64] {
        &self.lo
    }

    /// All upper bounds.
    #[inline]
    pub fn hi_coords(&self) -> &[f64] {
        &self.hi
    }

    /// Side length on axis `axis`.
    #[inline]
    pub fn extent(&self, axis: usize) -> f64 {
        self.hi[axis] - self.lo[axis]
    }

    /// The center point of the rectangle.
    pub fn center(&self) -> Point {
        Point::from_vec(
            self.lo
                .iter()
                .zip(self.hi.iter())
                .map(|(l, h)| 0.5 * (l + h))
                .collect(),
        )
    }

    /// Volume (area in 2-d). Zero for degenerate rectangles.
    pub fn volume(&self) -> f64 {
        self.lo
            .iter()
            .zip(self.hi.iter())
            .map(|(l, h)| h - l)
            .product()
    }

    /// Surface measure used by the R*-tree split heuristic: the sum of the
    /// side lengths ("margin").
    pub fn margin(&self) -> f64 {
        self.lo.iter().zip(self.hi.iter()).map(|(l, h)| h - l).sum()
    }

    /// True if the point lies inside the closed rectangle.
    pub fn contains_point(&self, p: &Point) -> bool {
        self.contains_coords(p.coords())
    }

    /// [`HyperRect::contains_point`] on a raw coordinate row.
    pub fn contains_coords(&self, coords: &[f64]) -> bool {
        debug_assert_eq!(self.dim(), coords.len());
        coords
            .iter()
            .enumerate()
            .all(|(i, &c)| self.lo[i] <= c && c <= self.hi[i])
    }

    /// True if `other` lies entirely inside `self`.
    pub fn contains_rect(&self, other: &HyperRect) -> bool {
        debug_assert_eq!(self.dim(), other.dim());
        (0..self.dim()).all(|i| self.lo[i] <= other.lo[i] && other.hi[i] <= self.hi[i])
    }

    /// True if the two closed rectangles share at least one point.
    pub fn intersects(&self, other: &HyperRect) -> bool {
        debug_assert_eq!(self.dim(), other.dim());
        (0..self.dim()).all(|i| self.lo[i] <= other.hi[i] && other.lo[i] <= self.hi[i])
    }

    /// Volume of the intersection (zero if disjoint) — the "overlap" measure
    /// minimized by the R*-tree and X-tree split algorithms.
    pub fn overlap_volume(&self, other: &HyperRect) -> f64 {
        debug_assert_eq!(self.dim(), other.dim());
        let mut vol = 1.0;
        for i in 0..self.dim() {
            let lo = self.lo[i].max(other.lo[i]);
            let hi = self.hi[i].min(other.hi[i]);
            if lo >= hi {
                return 0.0;
            }
            vol *= hi - lo;
        }
        vol
    }

    /// The smallest rectangle containing both operands.
    pub fn union(&self, other: &HyperRect) -> HyperRect {
        debug_assert_eq!(self.dim(), other.dim());
        HyperRect {
            lo: self
                .lo
                .iter()
                .zip(other.lo.iter())
                .map(|(a, b)| a.min(*b))
                .collect(),
            hi: self
                .hi
                .iter()
                .zip(other.hi.iter())
                .map(|(a, b)| a.max(*b))
                .collect(),
        }
    }

    /// Grows `self` in place to cover `p`.
    pub fn expand_to_point(&mut self, p: &Point) {
        self.expand_to_coords(p.coords());
    }

    /// [`HyperRect::expand_to_point`] on a raw coordinate row.
    pub fn expand_to_coords(&mut self, coords: &[f64]) {
        debug_assert_eq!(self.dim(), coords.len());
        for (i, &c) in coords.iter().enumerate() {
            if c < self.lo[i] {
                self.lo[i] = c;
            }
            if c > self.hi[i] {
                self.hi[i] = c;
            }
        }
    }

    /// Grows `self` in place to cover `other`.
    pub fn expand_to_rect(&mut self, other: &HyperRect) {
        debug_assert_eq!(self.dim(), other.dim());
        for i in 0..self.dim() {
            if other.lo[i] < self.lo[i] {
                self.lo[i] = other.lo[i];
            }
            if other.hi[i] > self.hi[i] {
                self.hi[i] = other.hi[i];
            }
        }
    }

    /// How much the volume grows if `self` is expanded to cover `other` —
    /// the R-tree "least enlargement" insertion criterion.
    pub fn enlargement(&self, other: &HyperRect) -> f64 {
        self.union(other).volume() - self.volume()
    }

    /// `MINDIST²(q, R)`: squared Euclidean distance from `q` to the closest
    /// point of the rectangle; `0` if `q` is inside. The fundamental lower
    /// bound of branch-and-bound NN search.
    #[inline]
    pub fn min_dist2(&self, q: &Point) -> f64 {
        debug_assert_eq!(self.dim(), q.dim());
        let mut acc = 0.0;
        for (i, &c) in q.iter().enumerate() {
            let lo = self.lo[i];
            let hi = self.hi[i];
            let d = if c < lo {
                lo - c
            } else if c > hi {
                c - hi
            } else {
                continue;
            };
            acc += d * d;
        }
        acc
    }

    /// `MAXDIST²(q, R)`: squared distance from `q` to the farthest point of
    /// the rectangle — an upper bound on the distance to anything inside.
    pub fn max_dist2(&self, q: &Point) -> f64 {
        debug_assert_eq!(self.dim(), q.dim());
        let mut acc = 0.0;
        for (i, &c) in q.iter().enumerate() {
            let d = (c - self.lo[i]).abs().max((c - self.hi[i]).abs());
            acc += d * d;
        }
        acc
    }

    /// `MINMAXDIST²(q, R)` of Roussopoulos et al. [RKV 95]: the smallest
    /// upper bound on the distance from `q` to the *nearest data point* that
    /// a non-empty rectangle can guarantee. Every face of the MBR must touch
    /// a data point, hence along some axis `k` the nearer face contains one;
    /// the bound minimizes over `k` the distance to the nearer face on `k`
    /// combined with the farther faces on all other axes.
    pub fn min_max_dist2(&self, q: &Point) -> f64 {
        min_max_dist2_bounds(&self.lo, &self.hi, q.coords())
    }

    /// Splits the rectangle at `value` on `axis`, returning the lower and
    /// upper halves. `value` is clamped into the rectangle's extent.
    pub fn split_at(&self, axis: usize, value: f64) -> (HyperRect, HyperRect) {
        assert!(axis < self.dim(), "axis out of range");
        let v = value.clamp(self.lo[axis], self.hi[axis]);
        let mut lower = self.clone();
        let mut upper = self.clone();
        lower.hi[axis] = v;
        upper.lo[axis] = v;
        (lower, upper)
    }
}

/// [`HyperRect::min_max_dist2`] on raw bound rows (`lo`, `hi`) and a raw
/// query row, for rectangles stored in a slab instead of a [`HyperRect`].
///
/// Two passes, no scratch memory: the first sums the far-face terms, the
/// second re-derives each axis's near- and far-face term and minimizes
/// `near_k + (far_sum − far_k)`.
pub fn min_max_dist2_bounds(lo: &[f64], hi: &[f64], q: &[f64]) -> f64 {
    debug_assert_eq!(lo.len(), q.len());
    debug_assert_eq!(hi.len(), q.len());
    // Squared distances from `q` to the nearer face (rm_k) and the farther
    // face (rM_k) on axis `i`.
    let faces2 = |i: usize| -> (f64, f64) {
        let c = q[i];
        let mid = 0.5 * (lo[i] + hi[i]);
        let rm = if c <= mid { lo[i] } else { hi[i] };
        let rmx = if c >= mid { lo[i] } else { hi[i] };
        ((c - rm) * (c - rm), (c - rmx) * (c - rmx))
    };
    let mut far_sum = 0.0;
    for i in 0..q.len() {
        far_sum += faces2(i).1;
    }
    let mut best = f64::INFINITY;
    for k in 0..q.len() {
        let (near2, far2) = faces2(k);
        let v = near2 + (far_sum - far2);
        if v < best {
            best = v;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(coords: &[f64]) -> Point {
        Point::new(coords.to_vec()).unwrap()
    }

    fn r(lo: &[f64], hi: &[f64]) -> HyperRect {
        HyperRect::new(lo.to_vec(), hi.to_vec()).unwrap()
    }

    #[test]
    fn constructor_validation() {
        assert!(HyperRect::new(vec![], vec![]).is_err());
        assert!(HyperRect::new(vec![0.0], vec![0.0, 1.0]).is_err());
        assert!(HyperRect::new(vec![1.0], vec![0.0]).is_err());
        assert!(HyperRect::new(vec![f64::NAN], vec![1.0]).is_err());
    }

    #[test]
    fn volume_margin_center() {
        let rect = r(&[0.0, 0.0], &[0.5, 0.25]);
        assert!((rect.volume() - 0.125).abs() < 1e-12);
        assert!((rect.margin() - 0.75).abs() < 1e-12);
        assert_eq!(rect.center().coords(), &[0.25, 0.125]);
    }

    #[test]
    fn containment_and_intersection() {
        let outer = r(&[0.0, 0.0], &[1.0, 1.0]);
        let inner = r(&[0.25, 0.25], &[0.5, 0.5]);
        let disjoint = r(&[2.0, 2.0], &[3.0, 3.0]);
        assert!(outer.contains_rect(&inner));
        assert!(!inner.contains_rect(&outer));
        assert!(outer.intersects(&inner));
        assert!(!outer.intersects(&disjoint));
        assert!(outer.contains_point(&p(&[1.0, 1.0])));
        assert!(!outer.contains_point(&p(&[1.0, 1.1])));
    }

    #[test]
    fn overlap_volume() {
        let a = r(&[0.0, 0.0], &[0.6, 0.6]);
        let b = r(&[0.4, 0.4], &[1.0, 1.0]);
        assert!((a.overlap_volume(&b) - 0.04).abs() < 1e-12);
        let c = r(&[0.7, 0.0], &[1.0, 0.3]);
        assert_eq!(a.overlap_volume(&c), 0.0);
        // Touching edges have zero overlap volume but do intersect.
        let d = r(&[0.6, 0.0], &[1.0, 1.0]);
        assert_eq!(a.overlap_volume(&d), 0.0);
        assert!(a.intersects(&d));
    }

    #[test]
    fn union_and_enlargement() {
        let a = r(&[0.0, 0.0], &[0.5, 0.5]);
        let b = r(&[0.5, 0.5], &[1.0, 1.0]);
        let u = a.union(&b);
        assert_eq!(u, HyperRect::unit(2));
        assert!((a.enlargement(&b) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn expansion() {
        let mut rect = HyperRect::from_point(&p(&[0.5, 0.5]));
        rect.expand_to_point(&p(&[0.2, 0.8]));
        assert_eq!(rect.lo_coords(), &[0.2, 0.5]);
        assert_eq!(rect.hi_coords(), &[0.5, 0.8]);
        rect.expand_to_rect(&r(&[0.0, 0.0], &[0.1, 0.1]));
        assert_eq!(rect.lo_coords(), &[0.0, 0.0]);
    }

    #[test]
    fn mindist_inside_is_zero() {
        let rect = r(&[0.2, 0.2], &[0.8, 0.8]);
        assert_eq!(rect.min_dist2(&p(&[0.5, 0.5])), 0.0);
        assert_eq!(rect.min_dist2(&p(&[0.2, 0.8])), 0.0);
    }

    #[test]
    fn mindist_outside() {
        let rect = r(&[0.2, 0.2], &[0.8, 0.8]);
        // Query left of the rect: distance only on axis 0.
        assert!((rect.min_dist2(&p(&[0.0, 0.5])) - 0.04).abs() < 1e-12);
        // Query diagonal: both axes contribute.
        assert!((rect.min_dist2(&p(&[0.0, 0.0])) - 0.08).abs() < 1e-12);
    }

    #[test]
    fn maxdist_upper_bounds_mindist() {
        let rect = r(&[0.2, 0.2], &[0.8, 0.8]);
        let q = p(&[0.1, 0.9]);
        assert!(rect.max_dist2(&q) >= rect.min_dist2(&q));
    }

    #[test]
    fn minmaxdist_between_min_and_max() {
        let rect = r(&[0.2, 0.4], &[0.6, 0.9]);
        let q = p(&[0.0, 0.0]);
        let mn = rect.min_dist2(&q);
        let mm = rect.min_max_dist2(&q);
        let mx = rect.max_dist2(&q);
        assert!(mn <= mm && mm <= mx, "{mn} <= {mm} <= {mx}");
    }

    #[test]
    fn minmaxdist_known_value_1d() {
        // 1-d: MINMAXDIST is the distance to the nearer face.
        let rect = HyperRect::new(vec![0.4], vec![0.8]).unwrap();
        let q = Point::new(vec![0.0]).unwrap();
        assert!((rect.min_max_dist2(&q) - 0.16).abs() < 1e-12);
    }

    /// The formula as it was written before it stopped allocating: per-axis
    /// near/far terms stored in two scratch vectors.
    fn min_max_dist2_with_scratch(rect: &HyperRect, q: &Point) -> f64 {
        let d = rect.dim();
        let mut rm2 = vec![0.0; d];
        let mut rmx2 = vec![0.0; d];
        let mut far_sum = 0.0;
        for i in 0..d {
            let c = q[i];
            let mid = 0.5 * (rect.lo(i) + rect.hi(i));
            let rm = if c <= mid { rect.lo(i) } else { rect.hi(i) };
            let rmx = if c >= mid { rect.lo(i) } else { rect.hi(i) };
            rm2[i] = (c - rm) * (c - rm);
            rmx2[i] = (c - rmx) * (c - rmx);
            far_sum += rmx2[i];
        }
        let mut best = f64::INFINITY;
        for k in 0..d {
            let v = rm2[k] + (far_sum - rmx2[k]);
            if v < best {
                best = v;
            }
        }
        best
    }

    #[test]
    fn minmaxdist_is_bit_identical_to_the_scratch_formula() {
        // A small deterministic generator keeps the test dependency-free.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for dim in 1..=63usize {
            let mut lo = Vec::with_capacity(dim);
            let mut hi = Vec::with_capacity(dim);
            for axis in 0..dim {
                let (a, b) = (next(), next());
                lo.push(a.min(b));
                // Every third axis is degenerate (`lo == hi`).
                hi.push(if axis % 3 == 2 { a.min(b) } else { a.max(b) });
            }
            let rect = r(&lo, &hi);
            let inside: Vec<f64> = (0..dim).map(|i| 0.5 * (lo[i] + hi[i])).collect();
            let outside: Vec<f64> = (0..dim)
                .map(|i| {
                    if i % 2 == 0 {
                        lo[i] - next()
                    } else {
                        hi[i] + next()
                    }
                })
                .collect();
            let mut on_face = inside.clone();
            on_face[dim / 2] = hi[dim / 2];
            let random: Vec<f64> = (0..dim).map(|_| next()).collect();
            for q in [inside, outside, on_face, random, lo.clone(), hi.clone()] {
                let q = p(&q);
                let want = min_max_dist2_with_scratch(&rect, &q);
                assert_eq!(rect.min_max_dist2(&q).to_bits(), want.to_bits(), "d={dim}");
                assert_eq!(
                    min_max_dist2_bounds(&lo, &hi, q.coords()).to_bits(),
                    want.to_bits(),
                    "d={dim}"
                );
            }
        }
    }

    #[test]
    fn from_bounds_copies_the_corners() {
        let rect = HyperRect::from_bounds(&[0.1, 0.2], &[0.3, 0.2]);
        assert_eq!(rect, r(&[0.1, 0.2], &[0.3, 0.2]));
    }

    #[test]
    fn split_at_partitions_volume() {
        let rect = HyperRect::unit(3);
        let (a, b) = rect.split_at(1, 0.25);
        assert!((a.volume() + b.volume() - rect.volume()).abs() < 1e-12);
        assert_eq!(a.hi(1), 0.25);
        assert_eq!(b.lo(1), 0.25);
        // Split value outside is clamped.
        let (c, d) = rect.split_at(0, 2.0);
        assert_eq!(c.hi(0), 1.0);
        assert_eq!(d.volume(), 0.0);
    }
}
