//! A small deterministic property-test harness.
//!
//! Replaces the external `proptest` dependency with a hermetic, in-repo
//! equivalent: every property runs over a fixed number of seeded cases, so
//! a failure is reproducible from the reported case number alone — no
//! shrinking, no persisted regression files. Crates across the workspace
//! use it from their `#[cfg(test)]` code via `sf_tensor::testkit`.
//!
//! # Examples
//!
//! ```
//! use sf_tensor::testkit::check_cases;
//!
//! check_cases(32, |c| {
//!     let shape = c.shape(1..4, 1..5);
//!     let t = c.rng().uniform(&shape, -1.0, 1.0);
//!     assert_eq!(t.numel(), shape.iter().product::<usize>());
//! });
//! ```

use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

use crate::TensorRng;

/// `(m, k, n)` of every convolution's GEMM in the standard fused plan, in
/// op order (`roadseg plan`): `m` output channels, `k = in_c·kh·kw`,
/// `n = OH·OW`. One entry per op, so a pass over the table is one image's
/// GEMM work — the shapes the kernel oracle suite and the `plan_shapes`
/// benches run.
pub const PLAN_GEMM_SHAPES: [(usize, usize, usize); 21] = [
    (8, 27, 3072),  // enc0.rgb
    (8, 9, 3072),   // enc0.depth
    (8, 8, 768),    // fuse0
    (12, 72, 768),  // enc1.rgb
    (12, 72, 768),  // enc1.depth
    (12, 12, 192),  // fuse1
    (16, 108, 192), // enc2.rgb
    (16, 108, 192), // enc2.depth
    (16, 16, 48),   // fuse2
    (24, 144, 48),  // enc3.rgb
    (24, 144, 48),  // enc3.depth
    (24, 24, 12),   // fuse3
    (32, 216, 12),  // enc4.rgb
    (32, 216, 12),  // enc4.depth
    (32, 32, 3),    // fuse4
    (24, 288, 12),  // dec0
    (16, 216, 48),  // dec1
    (12, 144, 192), // dec2
    (8, 108, 768),  // dec3
    (8, 72, 3072),  // dec4
    (1, 8, 3072),   // head
];

/// Per-case context handed to a property: the case number plus a seeded
/// generator for drawing inputs.
pub struct CaseCtx {
    /// Zero-based case number; also the seed of this case's generator, so
    /// `c.case` doubles as the value for "arbitrary seed" style properties.
    pub case: u64,
    rng: TensorRng,
}

impl CaseCtx {
    /// The case's seeded generator, for drawing arbitrary tensor inputs.
    pub fn rng(&mut self) -> &mut TensorRng {
        &mut self.rng
    }

    /// A fresh `u64` seed derived from the case stream, for properties
    /// quantified over seeds.
    pub fn seed(&mut self) -> u64 {
        let mut child = self.rng.fork();
        child.index(usize::MAX) as u64
    }

    /// An arbitrary shape with rank drawn from `rank` and every dimension
    /// drawn from `dims` (both half-open, lower bounds must be ≥ 1).
    pub fn shape(&mut self, rank: Range<usize>, dims: Range<usize>) -> Vec<usize> {
        let r = self.usize_in(rank.start, rank.end);
        (0..r)
            .map(|_| self.usize_in(dims.start, dims.end))
            .collect()
    }

    /// A uniform `f32` in `[lo, hi)`.
    pub fn f32_in(&mut self, lo: f32, hi: f32) -> f32 {
        self.rng.uniform_scalar(lo, hi)
    }

    /// A uniform `usize` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo < hi, "usize_in requires lo < hi, got {lo}..{hi}");
        lo + self.rng.index(hi - lo)
    }
}

/// Runs `property` over `cases` deterministic cases (case numbers `0..cases`,
/// each seeding its own [`TensorRng`]), re-raising the first failure with
/// the case number attached.
///
/// Case 0 always runs, which keeps seed-zero regressions (the only seed the
/// old proptest setup ever persisted) permanently covered.
///
/// # Panics
///
/// Panics if `property` panics for any case, after printing which one.
pub fn check_cases(cases: u64, mut property: impl FnMut(&mut CaseCtx)) {
    for case in 0..cases {
        let mut ctx = CaseCtx {
            case,
            rng: TensorRng::seed_from(case),
        };
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| property(&mut ctx))) {
            eprintln!("property failed at case {case}/{cases} (deterministic; rerun reproduces)");
            resume_unwind(payload);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cases_are_deterministic() {
        let mut first: Vec<f32> = Vec::new();
        check_cases(8, |c| first.push(c.f32_in(0.0, 1.0)));
        let mut second: Vec<f32> = Vec::new();
        check_cases(8, |c| second.push(c.f32_in(0.0, 1.0)));
        assert_eq!(first, second);
        assert!(first.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn shape_respects_bounds() {
        check_cases(32, |c| {
            let s = c.shape(1..5, 2..7);
            assert!((1..5).contains(&s.len()));
            assert!(s.iter().all(|d| (2..7).contains(d)));
        });
    }

    #[test]
    fn failure_reports_case() {
        let caught = catch_unwind(AssertUnwindSafe(|| {
            check_cases(16, |c| assert!(c.case < 5, "boom at {}", c.case));
        }));
        assert!(caught.is_err());
    }
}
