//! The kernel seam: every hot inner loop of the stack, written once and
//! instantiated per instruction-set level.
//!
//! Each kernel is a value implementing [`Kernel`] whose `run` body is
//! `#[inline(always)]` safe Rust. [`run_at`] inlines that body into a
//! function compiled for the chosen [`Isa`] level — the build target's
//! baseline, or `#[target_feature(enable = "avx2")]` on x86-64 when
//! `std::is_x86_feature_detected!` reports it — so the auto-vectoriser
//! emits 8-lane code from the same source that produces the baseline.
//!
//! The contract is **bit-identity on every machine**, which is why the
//! bodies are written the way they are:
//!
//! - per output cell the f32 GEMM adds its products in ascending `p`,
//!   multiply and add stay two operations (no `mul_add`, no `+fma`, no
//!   `target-cpu`: a fused multiply-add rounds once instead of twice and
//!   would change results between machines), and a zero weight
//!   contributes nothing even against a NaN/Inf activation;
//! - the i8 GEMM accumulates exact integers, so any tiling is exact;
//! - the quantizer's rounding is exact integer/float arithmetic with no
//!   libm call, equal to `f32::round` + clamp on all 2³² inputs.
//!
//! `reference` keeps the original scalar loops as the oracle the tests
//! compare every level against with `to_bits()`.

use std::ops::Range;

/// An instruction-set level the kernel bodies are instantiated for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Isa {
    /// Whatever the build target guarantees (SSE2 on x86-64).
    Baseline,
    /// AVX2: 8 f32 / 16 i16 lanes. Never FMA.
    #[cfg(target_arch = "x86_64")]
    Avx2,
}

impl Isa {
    /// Every level this host can run, best last. The detection macro
    /// caches its CPUID read, so this is one atomic load.
    pub(crate) fn supported() -> &'static [Isa] {
        #[cfg(target_arch = "x86_64")]
        if std::is_x86_feature_detected!("avx2") {
            return &[Isa::Baseline, Isa::Avx2];
        }
        &[Isa::Baseline]
    }
}

/// The ISA level the kernels run at in this process (`"avx2"` or
/// `"baseline"`), so recorded numbers can be attributed to it.
pub fn kernel_isa() -> &'static str {
    match Isa::supported() {
        [Isa::Baseline] => "baseline",
        _ => "avx2",
    }
}

/// One kernel invocation: its arguments plus the loop to run over them.
/// Implementations mark `run` `#[inline(always)]` so the loop is compiled
/// with the target features of whichever [`run_at`] arm it lands in.
pub(crate) trait Kernel {
    fn run(self);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn run_avx2<K: Kernel>(kernel: K) {
    kernel.run()
}

/// Runs `kernel` compiled for `isa`.
///
/// # Panics
///
/// Panics if the host does not support `isa`.
pub(crate) fn run_at<K: Kernel>(isa: Isa, kernel: K) {
    match isa {
        Isa::Baseline => kernel.run(),
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => {
            assert!(
                std::is_x86_feature_detected!("avx2"),
                "kernel requested at AVX2 on a host without it"
            );
            // SAFETY: `run_avx2` is safe Rust whose only requirement is
            // that the CPU executes AVX2 instructions, which the assert
            // above has just established for this process.
            unsafe { run_avx2(kernel) }
        }
    }
}

/// Runs `kernel` at the best level the host supports.
pub(crate) fn dispatch<K: Kernel>(kernel: K) {
    let best = Isa::supported()
        .last()
        .expect("baseline is always supported");
    run_at(*best, kernel);
}

/// Minimum number of output elements before a GEMM splits its rows
/// across the worker pool. Small problems are faster single-threaded.
const PARALLEL_THRESHOLD: usize = 64 * 1024;

/// `out[m, n] += a[m, k] · b[k, n]` at the best ISA level, rows split
/// across the worker pool when the output is large enough. Chunk
/// boundaries depend only on `(m, n, threads)` and every row is computed
/// by the identical serial kernel, so the parallel result is
/// bit-identical to the serial one.
pub(crate) fn gemm<A: Sync, T: Send>(a: &[A], b: &[A], out: &mut [T], m: usize, k: usize, n: usize)
where
    for<'a> Gemm<'a, A, T>: Kernel,
{
    let out = &mut out[..m * n];
    let rows_kernel = |out: &mut [T], rows: Range<usize>| {
        dispatch(Gemm {
            a,
            b,
            out,
            rows,
            k,
            n,
        })
    };
    let threads = sf_runtime::num_threads();
    if m * n < PARALLEL_THRESHOLD || threads <= 1 || m < 2 {
        return rows_kernel(out, 0..m);
    }
    let chunk = m.div_ceil(threads);
    sf_runtime::parallel_chunks_mut(out, chunk * n, |ci, rows_out| {
        let row0 = ci * chunk;
        rows_kernel(rows_out, row0..row0 + rows_out.len() / n);
    });
}

/// Rows per register tile of both GEMMs.
const MR: usize = 4;

/// An accumulator type of the GEMM tiles: `f32`, or `i32` for the i8 GEMM.
pub(crate) trait Acc:
    Copy + Default + PartialEq + std::ops::Add<Output = Self> + std::ops::Mul<Output = Self>
{
}
impl Acc for f32 {}
impl Acc for i32 {}

/// `out[rows, n] += a[rows, k] · b[k, n]`: `a` and `b` are whole
/// matrices, `out` holds only `rows`. Runs as f32 (`Gemm<f32, f32>`) or
/// as i8 operands widened into i32 accumulators (`Gemm<i8, i32>`).
pub(crate) struct Gemm<'a, A, T> {
    pub a: &'a [A],
    pub b: &'a [A],
    pub out: &'a mut [T],
    pub rows: Range<usize>,
    pub k: usize,
    pub n: usize,
}

impl Kernel for Gemm<'_, f32, f32> {
    #[inline(always)]
    fn run(self) {
        let (m, k, n) = (self.rows.len(), self.k, self.n);
        let a = &self.a[self.rows.start * k..self.rows.end * k];
        // Exact zeros are rare in trained weights: test once, and only a
        // matrix that has one pays for the per-step skip branches.
        if a.iter().all(|&v| v != 0.0) {
            gemm_rows::<f32, f32, false>(a, self.b, self.out, m, k, n);
        } else {
            gemm_rows::<f32, f32, true>(a, self.b, self.out, m, k, n);
        }
    }
}

/// `a` steps widened per pass of the i8 GEMM (8 KiB of stack).
const I8_KC: usize = 512;

impl Kernel for Gemm<'_, i8, i32> {
    #[inline(always)]
    fn run(self) {
        let (rows, k, n) = (self.rows, self.k, self.n);
        // The weights of one row group are widened to i32 once, so the
        // tile's per-step broadcast is a plain 32-bit load like the f32
        // kernel's. Integer sums are exact, so cutting `k` into passes
        // (and any tiling) leaves every result unchanged.
        let mut wide = [0i32; MR * I8_KC];
        for group in rows.clone().step_by(MR) {
            let m = MR.min(rows.end - group);
            let out = &mut self.out[(group - rows.start) * n..][..m * n];
            for p0 in (0..k).step_by(I8_KC) {
                let kc = I8_KC.min(k - p0);
                let wide = &mut wide[..m * kc];
                for (r, wide_row) in wide.chunks_exact_mut(kc).enumerate() {
                    let a_row = &self.a[(group + r) * k + p0..][..kc];
                    for (w, &v) in wide_row.iter_mut().zip(a_row) {
                        *w = i32::from(v);
                    }
                }
                gemm_rows::<i32, i8, false>(wide, &self.b[p0 * n..], out, m, kc, n);
            }
        }
    }
}

/// `out[m, n] += a[m, k] · b[k, n]`, register tiled; `b` is read as `B`
/// and widened into `T` on load. A strip of each width is cut while it
/// fits, widest first, so every `n` decomposes exactly and no cell is
/// ever accumulated through memory. The widest tile is `MR` × 2 vectors
/// of 8: its 8 accumulators, 2 panel vectors and `MR` broadcasts sit in
/// 14 of AVX2's 16 registers (`MR` × 3 vectors spilled three
/// accumulators and measured 8 % slower over the plan's shapes).
#[inline(always)]
fn gemm_rows<T: Acc, B: Copy + Into<T>, const SKIP: bool>(
    a: &[T],
    b: &[B],
    out: &mut [T],
    m: usize,
    k: usize,
    n: usize,
) {
    let mut j0 = 0;
    j0 = strip::<T, B, 2, 8, SKIP>(a, b, out, m, k, n, j0);
    j0 = strip::<T, B, 1, 8, SKIP>(a, b, out, m, k, n, j0);
    j0 = strip::<T, B, 1, 4, SKIP>(a, b, out, m, k, n, j0);
    j0 = strip::<T, B, 1, 2, SKIP>(a, b, out, m, k, n, j0);
    strip::<T, B, 1, 1, SKIP>(a, b, out, m, k, n, j0);
}

/// Cuts `V·L`-wide column strips from `j0` while they fit; within a strip
/// all row groups run back to back so the `k × V·L` panel of `b` stays
/// cache-resident. Returns the first column not covered.
///
/// Each tile loads its accumulators from `out` once, keeps them in
/// registers across all of `k`, and stores them once. The `MR` rows are
/// spelled out as `c0..c3` so each is a value of its own: looped over as
/// an array they stayed in memory and the tile did not vectorise.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn strip<T: Acc, B: Copy + Into<T>, const V: usize, const L: usize, const SKIP: bool>(
    a: &[T],
    b: &[B],
    out: &mut [T],
    m: usize,
    k: usize,
    n: usize,
    mut j0: usize,
) -> usize {
    while j0 + V * L <= n {
        let mut i = 0;
        while i + MR <= m {
            let o = i * n + j0;
            let [a0, a1, a2, a3]: [&[T]; MR] = std::array::from_fn(|r| &a[(i + r) * k..][..k]);
            let mut c0 = load::<T, T, V, L>(&out[o..]);
            let mut c1 = load::<T, T, V, L>(&out[o + n..]);
            let mut c2 = load::<T, T, V, L>(&out[o + 2 * n..]);
            let mut c3 = load::<T, T, V, L>(&out[o + 3 * n..]);
            for p in 0..k {
                let panel = load::<T, B, V, L>(&b[p * n + j0..]);
                c0 = axpy::<T, V, L, SKIP>(c0, a0[p], &panel);
                c1 = axpy::<T, V, L, SKIP>(c1, a1[p], &panel);
                c2 = axpy::<T, V, L, SKIP>(c2, a2[p], &panel);
                c3 = axpy::<T, V, L, SKIP>(c3, a3[p], &panel);
            }
            store(&c0, &mut out[o..]);
            store(&c1, &mut out[o + n..]);
            store(&c2, &mut out[o + 2 * n..]);
            store(&c3, &mut out[o + 3 * n..]);
            i += MR;
        }
        while i < m {
            let o = i * n + j0;
            let a0 = &a[i * k..][..k];
            let mut c0 = load::<T, T, V, L>(&out[o..]);
            for p in 0..k {
                let panel = load::<T, B, V, L>(&b[p * n + j0..]);
                c0 = axpy::<T, V, L, SKIP>(c0, a0[p], &panel);
            }
            store(&c0, &mut out[o..]);
            i += 1;
        }
        j0 += V * L;
    }
    j0
}

#[inline(always)]
fn load<T: Acc, S: Copy + Into<T>, const V: usize, const L: usize>(src: &[S]) -> [[T; L]; V] {
    let src = &src[..V * L];
    std::array::from_fn(|v| std::array::from_fn(|l| src[v * L + l].into()))
}

#[inline(always)]
fn store<T: Acc, const V: usize, const L: usize>(acc: &[[T; L]; V], dst: &mut [T]) {
    for (dst, acc) in dst[..V * L].chunks_exact_mut(L).zip(acc) {
        dst.copy_from_slice(acc);
    }
}

/// `acc + av · panel` for one row of a register tile — per cell exactly
/// the reference's step: one multiply, one add, and with `SKIP` a zero
/// weight contributes nothing (not even against NaN/Inf).
#[inline(always)]
fn axpy<T: Acc, const V: usize, const L: usize, const SKIP: bool>(
    mut acc: [[T; L]; V],
    av: T,
    panel: &[[T; L]; V],
) -> [[T; L]; V] {
    if !SKIP || av != T::default() {
        for (acc, panel) in acc.iter_mut().zip(panel) {
            for (o, &bv) in acc.iter_mut().zip(panel) {
                *o = *o + av * bv;
            }
        }
    }
    acc
}

/// `dst = clamp(round(src · inv), −127, 127)`, round-half-away-from-zero,
/// NaN → 0 — `(v · inv).round().clamp(-127.0, 127.0) as i8` without the
/// libm `roundf` call per element, and in a form that vectorises.
pub(crate) struct QuantizeI8<'a> {
    pub src: &'a [f32],
    pub inv: f32,
    pub dst: &'a mut [i8],
}

impl Kernel for QuantizeI8<'_> {
    #[inline(always)]
    fn run(self) {
        /// Adding 2²³ to `0 ≤ m < 2²²` leaves no fraction bits, so the sum
        /// is `m` rounded to an integer (ties to even).
        const INT_ULP: f32 = 8_388_608.0;
        /// 1.5·2²³: a sum with it keeps an integer `|q| < 2²²` in the low
        /// mantissa bits, two's complement.
        const INT_BITS: f32 = 12_582_912.0;
        for (d, &v) in self.dst.iter_mut().zip(self.src) {
            let x = v * self.inv;
            // Clamping first is equivalent because the bounds are
            // integers; it also brings ±Inf and ±1e30 into range.
            let x = if x.is_nan() {
                0.0
            } else {
                x.clamp(-127.0, 127.0)
            };
            let m = x.abs();
            let even = (m + INT_ULP) - INT_ULP;
            // `m − even` is exact and in [−0.5, 0.5]; +0.5 is the one
            // case ties-to-even rounded towards zero.
            let away = if m - even == 0.5 { even + 1.0 } else { even };
            let q = (away.copysign(x) + INT_BITS).to_bits() as i32 - INT_BITS.to_bits() as i32;
            *d = q as i8;
        }
    }
}

/// Inference-mode BatchNorm folded to four per-output-channel constants,
/// applied as `((v − mean)·scale)·gamma + beta` — four f32 operations in
/// that order, deliberately not merged algebraically.
#[derive(Debug, Clone, Copy)]
pub struct BnFold<'a> {
    pub mean: &'a [f32],
    pub scale: &'a [f32],
    pub gamma: &'a [f32],
    pub beta: &'a [f32],
}

/// An int8 convolution's i32 accumulators `[out_c, cols]` and the scales
/// that turn them back into f32: `v = acc as f32 · (in_scale · wscale[oc])`.
#[derive(Debug, Clone, Copy)]
pub struct Dequant<'a> {
    pub acc: &'a [i32],
    pub in_scale: f32,
    pub wscale: &'a [f32],
}

/// What [`conv_epilogue`] applies to each output element, in this order:
/// the value is `dst`'s own (or `dequant`'s when set), then `+bias[oc]`,
/// the folded BatchNorm, `max(0)`, and `+accumulate` (a folded
/// element-wise sum, laid out like `dst`).
#[derive(Debug, Clone, Copy, Default)]
pub struct ConvEpilogue<'a> {
    pub dequant: Option<Dequant<'a>>,
    pub bias: Option<&'a [f32]>,
    pub bn: Option<BnFold<'a>>,
    pub relu: bool,
    pub accumulate: Option<&'a [f32]>,
}

/// Applies a convolution's fused epilogue to its `[out_c, cols]` output
/// plane `dst` in a single pass. The per-element operation order is fixed
/// (see [`ConvEpilogue`]), so the compiled plan's f32 and int8
/// convolutions stay bit-identical to the graph path's separate
/// `add → batch_norm → relu → add` tensors.
///
/// # Panics
///
/// Panics if `dst` is not a whole number of `cols`-long rows, or an
/// operand is shorter than `dst`'s geometry implies.
pub fn conv_epilogue(dst: &mut [f32], cols: usize, ep: ConvEpilogue<'_>) {
    assert!(cols > 0 && dst.len().is_multiple_of(cols));
    assert!(ep.dequant.is_none_or(|q| q.acc.len() >= dst.len()));
    assert!(ep.accumulate.is_none_or(|a| a.len() >= dst.len()));
    dispatch(EpilogueRun { dst, cols, ep });
}

pub(crate) struct EpilogueRun<'a> {
    pub dst: &'a mut [f32],
    pub cols: usize,
    pub ep: ConvEpilogue<'a>,
}

impl Kernel for EpilogueRun<'_> {
    #[inline(always)]
    fn run(self) {
        let EpilogueRun { dst, cols, ep } = self;
        for (oc, row) in dst.chunks_exact_mut(cols).enumerate() {
            let bias = ep.bias.map(|b| b[oc]);
            let bn = ep
                .bn
                .map(|bn| [bn.mean[oc], bn.scale[oc], bn.gamma[oc], bn.beta[oc]]);
            let span = oc * cols..(oc + 1) * cols;
            let deq = ep
                .dequant
                .map(|q| (&q.acc[span.clone()], q.in_scale * q.wscale[oc]));
            let add = ep.accumulate.map(|a| &a[span]);
            match (deq, add) {
                (None, None) => {
                    for v in row {
                        *v = finish(*v, bias, bn, ep.relu);
                    }
                }
                (None, Some(add)) => {
                    for (v, &av) in row.iter_mut().zip(add) {
                        *v = finish(*v, bias, bn, ep.relu) + av;
                    }
                }
                (Some((acc, mul)), None) => {
                    for (v, &q) in row.iter_mut().zip(acc) {
                        *v = finish(q as f32 * mul, bias, bn, ep.relu);
                    }
                }
                (Some((acc, mul)), Some(add)) => {
                    for ((v, &q), &av) in row.iter_mut().zip(acc).zip(add) {
                        *v = finish(q as f32 * mul, bias, bn, ep.relu) + av;
                    }
                }
            }
        }
    }
}

/// `+bias`, folded BatchNorm, ReLU — everything between an element's
/// source and its `+accumulate`.
#[inline(always)]
fn finish(mut v: f32, bias: Option<f32>, bn: Option<[f32; 4]>, relu: bool) -> f32 {
    if let Some(b) = bias {
        v += b;
    }
    if let Some([mean, scale, gamma, beta]) = bn {
        v = ((v - mean) * scale) * gamma + beta;
    }
    if relu {
        v = v.max(0.0);
    }
    v
}

/// The original scalar loops, kept verbatim as the oracle every ISA
/// level of every kernel is compared against bit for bit.
#[cfg(test)]
pub(crate) mod reference {
    use super::ConvEpilogue;

    const MM_PANEL_ELEMS: usize = 1 << 16;

    pub(crate) fn mm_ikj_rows(
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        rows: std::ops::Range<usize>,
        k: usize,
        n: usize,
    ) {
        let block = (MM_PANEL_ELEMS / k.max(1)).max(256).min(n.max(1));
        let base = rows.start;
        let mut j0 = 0;
        while j0 < n {
            let j1 = (j0 + block).min(n);
            for i in rows.clone() {
                let arow = &a[i * k..(i + 1) * k];
                let orow = &mut out[(i - base) * n + j0..(i - base) * n + j1];
                for (p, &av) in arow.iter().enumerate() {
                    if av == 0.0 {
                        continue;
                    }
                    let brow = &b[p * n + j0..p * n + j1];
                    for (o, &bv) in orow.iter_mut().zip(brow) {
                        *o += av * bv;
                    }
                }
            }
            j0 = j1;
        }
    }

    pub(crate) fn mm_i8_rows(
        a: &[i8],
        b: &[i8],
        out: &mut [i32],
        rows: std::ops::Range<usize>,
        k: usize,
        n: usize,
    ) {
        let block = (MM_PANEL_ELEMS / k.max(1)).max(256).min(n.max(1));
        let base = rows.start;
        let mut j0 = 0;
        while j0 < n {
            let j1 = (j0 + block).min(n);
            for i in rows.clone() {
                let arow = &a[i * k..(i + 1) * k];
                let orow = &mut out[(i - base) * n + j0..(i - base) * n + j1];
                for (p, &av) in arow.iter().enumerate() {
                    if av == 0 {
                        continue;
                    }
                    let av = i32::from(av);
                    let brow = &b[p * n + j0..p * n + j1];
                    for (o, &bv) in orow.iter_mut().zip(brow) {
                        *o += av * i32::from(bv);
                    }
                }
            }
            j0 = j1;
        }
    }

    pub(crate) fn quantize_i8(src: &[f32], inv: f32, dst: &mut [i8]) {
        for (d, &v) in dst.iter_mut().zip(src) {
            *d = (v * inv).round().clamp(-127.0, 127.0) as i8;
        }
    }

    /// The plan executor's former epilogue: one pass per stage.
    pub(crate) fn conv_epilogue(dst: &mut [f32], cols: usize, ep: ConvEpilogue<'_>) {
        let out_c = dst.len() / cols;
        if let Some(q) = ep.dequant {
            for oc in 0..out_c {
                let mul = q.in_scale * q.wscale[oc];
                for (v, &a) in dst[oc * cols..(oc + 1) * cols]
                    .iter_mut()
                    .zip(&q.acc[oc * cols..(oc + 1) * cols])
                {
                    *v = a as f32 * mul;
                }
            }
        }
        if let Some(bias) = ep.bias {
            for (oc, &bv) in bias.iter().enumerate() {
                for v in &mut dst[oc * cols..(oc + 1) * cols] {
                    *v += bv;
                }
            }
        }
        if let Some(bn) = ep.bn {
            for oc in 0..out_c {
                let (m, s, ga, be) = (bn.mean[oc], bn.scale[oc], bn.gamma[oc], bn.beta[oc]);
                for v in &mut dst[oc * cols..(oc + 1) * cols] {
                    *v = ((*v - m) * s) * ga + be;
                }
            }
        }
        if ep.relu {
            for v in dst.iter_mut() {
                *v = v.max(0.0);
            }
        }
        if let Some(a) = ep.accumulate {
            for (v, &av) in dst.iter_mut().zip(a) {
                *v += av;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{check_cases, PLAN_GEMM_SHAPES};
    use crate::TensorRng;

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn random_f32(rng: &mut TensorRng, len: usize) -> Vec<f32> {
        rng.uniform(&[len], -2.0, 2.0).into_vec()
    }

    fn random_i8(rng: &mut TensorRng, len: usize) -> Vec<i8> {
        (0..len).map(|_| rng.index(256) as u8 as i8).collect()
    }

    /// Runs the f32 GEMM at every supported level, on a non-zero `out`
    /// and a row window, and compares each cell's bits to the reference.
    fn check_gemm_f32(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, what: &str) {
        for rows in [0..m, m / 2..m] {
            let seed: Vec<f32> = (0..rows.len() * n).map(|i| (i % 7) as f32 - 3.0).collect();
            let mut want = seed.clone();
            reference::mm_ikj_rows(a, b, &mut want, rows.clone(), k, n);
            for &isa in Isa::supported() {
                let mut got = seed.clone();
                run_at(
                    isa,
                    Gemm {
                        a,
                        b,
                        out: &mut got,
                        rows: rows.clone(),
                        k,
                        n,
                    },
                );
                assert_eq!(
                    bits(&got),
                    bits(&want),
                    "{what}: {m}x{k}x{n} rows {rows:?} at {isa:?}"
                );
            }
        }
    }

    fn check_gemm_i8(a: &[i8], b: &[i8], m: usize, k: usize, n: usize, what: &str) {
        for rows in [0..m, m / 2..m] {
            let seed: Vec<i32> = (0..rows.len() * n).map(|i| i as i32 % 11 - 5).collect();
            let mut want = seed.clone();
            reference::mm_i8_rows(a, b, &mut want, rows.clone(), k, n);
            for &isa in Isa::supported() {
                let mut got = seed.clone();
                run_at(
                    isa,
                    Gemm {
                        a,
                        b,
                        out: &mut got,
                        rows: rows.clone(),
                        k,
                        n,
                    },
                );
                assert_eq!(got, want, "{what}: {m}x{k}x{n} rows {rows:?} at {isa:?}");
            }
        }
    }

    #[test]
    fn this_host_runs_the_level_it_reports() {
        let levels = Isa::supported();
        assert_eq!(levels[0], Isa::Baseline);
        assert_eq!(kernel_isa() == "avx2", levels.len() == 2);
    }

    #[test]
    fn gemms_match_the_reference_on_every_plan_shape() {
        let mut rng = TensorRng::seed_from(13);
        for &(m, k, n) in &PLAN_GEMM_SHAPES {
            let (a, b) = (random_f32(&mut rng, m * k), random_f32(&mut rng, k * n));
            check_gemm_f32(&a, &b, m, k, n, "plan shape");
            let (qa, qb) = (random_i8(&mut rng, m * k), random_i8(&mut rng, k * n));
            check_gemm_i8(&qa, &qb, m, k, n, "plan shape");
        }
    }

    #[test]
    fn gemms_match_the_reference_on_ragged_shapes() {
        // m % MR != 0, n below and between the strip widths, k = 1.
        check_cases(96, |c| {
            let m = c.usize_in(1, 11);
            let k = if c.case % 5 == 0 {
                1
            } else {
                c.usize_in(1, 40)
            };
            let n = c.usize_in(1, 45);
            let mut a = random_f32(c.rng(), m * k);
            let b = random_f32(c.rng(), k * n);
            if c.case % 2 == 0 {
                // Sparse weights take the zero-skipping instantiation.
                for v in a.iter_mut().step_by(3) {
                    *v = 0.0;
                }
            }
            check_gemm_f32(&a, &b, m, k, n, "ragged");
            let (qa, qb) = (random_i8(c.rng(), m * k), random_i8(c.rng(), k * n));
            check_gemm_i8(&qa, &qb, m, k, n, "ragged");
        });
    }

    #[test]
    fn zero_weights_contribute_nothing_against_non_finite_activations() {
        let (m, k, n) = (5, 6, 19);
        let mut rng = TensorRng::seed_from(17);
        let mut a = random_f32(&mut rng, m * k);
        let mut b = random_f32(&mut rng, k * n);
        // Activation rows 1, 3 and 4 are poisoned; exactly those weight
        // columns are ±0.0, so 0·NaN and 0·Inf must never be formed.
        for (p, poison) in [(1, f32::NAN), (3, f32::INFINITY), (4, f32::NEG_INFINITY)] {
            b[p * n..(p + 1) * n].fill(poison);
            for i in 0..m {
                a[i * k + p] = if i % 2 == 0 { 0.0 } else { -0.0 };
            }
        }
        check_gemm_f32(&a, &b, m, k, n, "zero weights");
        let mut out = vec![0.0f32; m * n];
        dispatch(Gemm {
            a: &a,
            b: &b,
            out: &mut out,
            rows: 0..m,
            k,
            n,
        });
        assert!(out.iter().all(|v| v.is_finite()));
        // A non-zero weight against the same activations does propagate.
        a[1] = 1.0;
        check_gemm_f32(&a, &b, m, k, n, "nan propagates");
    }

    #[test]
    fn i8_gemm_is_exact_at_the_extremes_and_across_k_passes() {
        // The deepest plan patch (dec0: k = 288) at full magnitude.
        let (m, k, n) = (24, 288, 12);
        for (av, bv) in [(127i8, 127i8), (-127, 127), (-128, -128), (-128, 127)] {
            check_gemm_i8(&vec![av; m * k], &vec![bv; k * n], m, k, n, "extremes");
        }
        // k beyond one widening pass.
        let (m, k, n) = (5, I8_KC + 37, 21);
        let mut rng = TensorRng::seed_from(19);
        let (a, b) = (random_i8(&mut rng, m * k), random_i8(&mut rng, k * n));
        check_gemm_i8(&a, &b, m, k, n, "two k passes");
    }

    const SCALES: [f32; 3] = [1.0, 0.0123, 37.5];

    fn check_quantize(src: &[f32], inv: f32) {
        let mut want = vec![0i8; src.len()];
        reference::quantize_i8(src, inv, &mut want);
        for &isa in Isa::supported() {
            let mut got = vec![0i8; src.len()];
            run_at(
                isa,
                QuantizeI8 {
                    src,
                    inv,
                    dst: &mut got,
                },
            );
            if got != want {
                let i = got.iter().zip(&want).position(|(g, w)| g != w).unwrap();
                panic!(
                    "quantize({:e} = bits {:#010x}, inv {inv}) = {} at {isa:?}, reference {}",
                    src[i],
                    src[i].to_bits(),
                    got[i],
                    want[i]
                );
            }
        }
    }

    #[test]
    fn quantizer_matches_round_and_clamp_on_the_edge_cases() {
        let mut src: Vec<f32> = (-256..=256).map(|h| h as f32 / 2.0).collect();
        src.extend([
            0.499_999_97,
            -0.499_999_97,
            0.500_000_06,
            126.499_99,
            126.5,
            127.499_99,
            -0.0,
            f32::NAN,
            -f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            1e30,
            -1e30,
            f32::MIN_POSITIVE,
            1e-45,
            f32::MAX,
            f32::MIN,
        ]);
        for scale in SCALES {
            check_quantize(&src, 1.0 / scale);
        }
        let mut q = [0i8; 6];
        dispatch(QuantizeI8 {
            src: &[0.5, -0.5, 1.5, 2.5, 400.0, f32::NAN],
            inv: 1.0,
            dst: &mut q,
        });
        assert_eq!(q, [1, -1, 2, 3, 127, 0]);
    }

    #[test]
    fn quantizer_matches_round_and_clamp_on_a_strided_sweep_of_all_bit_patterns() {
        let src: Vec<f32> = (0..=u32::MAX).step_by(4099).map(f32::from_bits).collect();
        for scale in SCALES {
            check_quantize(&src, 1.0 / scale);
        }
    }

    /// All 2³² inputs at three scales, split across the available cores
    /// (minutes): `cargo test --release -p sf-tensor -- --ignored`.
    #[test]
    #[ignore = "exhaustive: 3 x 2^32 inputs per ISA level"]
    fn quantizer_matches_round_and_clamp_on_all_bit_patterns() {
        const CHUNK: u64 = 1 << 22;
        let threads = std::thread::available_parallelism().map_or(1, |t| t.get()) as u64;
        std::thread::scope(|scope| {
            for t in 0..threads {
                scope.spawn(move || {
                    let mut src = Vec::with_capacity(CHUNK as usize);
                    for chunk in (t..(1u64 << 32) / CHUNK).step_by(threads as usize) {
                        src.clear();
                        src.extend(
                            (chunk * CHUNK..(chunk + 1) * CHUNK).map(|b| f32::from_bits(b as u32)),
                        );
                        for scale in SCALES {
                            check_quantize(&src, 1.0 / scale);
                        }
                    }
                });
            }
        });
    }

    #[test]
    fn epilogue_single_pass_matches_the_staged_passes_for_every_option_set() {
        let (out_c, cols) = (5, 37);
        let mut rng = TensorRng::seed_from(23);
        let mut plane = random_f32(&mut rng, out_c * cols);
        // Values whose handling differs between careless rewrites.
        plane[..6].copy_from_slice(&[-0.0, 0.0, f32::NAN, f32::INFINITY, -1e-40, -3.5]);
        let acc: Vec<i32> = (0..out_c * cols)
            .map(|i| (i as i32 * 37) % 4001 - 2000)
            .collect();
        let per_channel: Vec<Vec<f32>> = (0..6).map(|_| random_f32(&mut rng, out_c)).collect();
        let mut accumulate = random_f32(&mut rng, out_c * cols);
        accumulate[0] = 0.0;
        for options in 0..32u32 {
            let on = |bit: u32| options & (1 << bit) != 0;
            let ep = ConvEpilogue {
                dequant: on(0).then_some(Dequant {
                    acc: &acc,
                    in_scale: 0.031,
                    wscale: &per_channel[0],
                }),
                bias: on(1).then_some(&per_channel[1]),
                bn: on(2).then_some(BnFold {
                    mean: &per_channel[2],
                    scale: &per_channel[3],
                    gamma: &per_channel[4],
                    beta: &per_channel[5],
                }),
                relu: on(3),
                accumulate: on(4).then_some(&accumulate),
            };
            let mut want = plane.clone();
            reference::conv_epilogue(&mut want, cols, ep);
            for &isa in Isa::supported() {
                let mut got = plane.clone();
                run_at(
                    isa,
                    EpilogueRun {
                        dst: &mut got,
                        cols,
                        ep,
                    },
                );
                assert_eq!(bits(&got), bits(&want), "options {options:#07b} at {isa:?}");
            }
        }
    }
}
