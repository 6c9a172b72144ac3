//! Micro-benchmarks of the numerical kernels that dominate training:
//! convolution forward/backward, matmul, pooling — plus a head-to-head
//! of the persistent `sf-runtime` pool against spawning fresh OS threads
//! on every call (the strategy the pool replaced).

use sf_bench::BenchHarness;
use sf_tensor::int8::{matmul_i8_into, quantize_i8};
use sf_tensor::testkit::PLAN_GEMM_SHAPES;
use sf_tensor::{
    conv2d, conv2d_backward, matmul, matmul_into, max_pool2d, Conv2dSpec, Tensor, TensorRng,
};

fn bench_conv_forward(h: &mut BenchHarness) {
    // The actual stage geometries of the standard fusion network.
    for &(name, n, ci, co, hh, w) in &[
        (
            "conv2d_forward/stage1_3to8_32x96",
            1usize,
            3usize,
            8usize,
            32usize,
            96usize,
        ),
        ("conv2d_forward/stage3_12to16_8x24", 1, 12, 16, 8, 24),
        ("conv2d_forward/stage5_24to32_2x6", 1, 24, 32, 2, 6),
    ] {
        let mut rng = TensorRng::seed_from(1);
        let x = rng.uniform(&[n, ci, hh, w], -1.0, 1.0);
        let wgt = rng.kaiming(&[co, ci, 3, 3]);
        h.bench(name, || {
            conv2d(&x, &wgt, None, Conv2dSpec::same(3)).expect("valid geometry")
        });
    }
}

fn bench_conv_backward(h: &mut BenchHarness) {
    let mut rng = TensorRng::seed_from(2);
    let x = rng.uniform(&[1, 8, 16, 48], -1.0, 1.0);
    let w = rng.kaiming(&[12, 8, 3, 3]);
    let spec = Conv2dSpec::same(3);
    let y = conv2d(&x, &w, None, spec).expect("valid geometry");
    let dy = rng.uniform(y.shape(), -1.0, 1.0);
    h.bench("conv2d_backward_8to12_16x48", || {
        conv2d_backward(&x, &w, &dy, spec).expect("valid geometry")
    });
}

fn bench_fusion_filter(h: &mut BenchHarness) {
    // The paper's 1×1 Fusion-filter at the widest fusion stage.
    let mut rng = TensorRng::seed_from(3);
    let x = rng.uniform(&[1, 8, 16, 48], -1.0, 1.0);
    let w = rng.kaiming(&[8, 8, 1, 1]);
    h.bench("fusion_filter_1x1_8ch_16x48", || {
        conv2d(&x, &w, None, Conv2dSpec::default()).expect("valid geometry")
    });
}

fn bench_matmul(h: &mut BenchHarness) {
    let mut rng = TensorRng::seed_from(4);
    let a = rng.uniform(&[72, 128], -1.0, 1.0);
    let b = rng.uniform(&[128, 512], -1.0, 1.0);
    h.bench("matmul_72x128x512", || {
        matmul(&a, &b).expect("shapes agree")
    });
}

fn bench_plan_shapes(h: &mut BenchHarness) {
    // One image's worth of the compiled plan's GEMM and quantize work,
    // straight through the kernel seam (`sf_tensor::kernel_isa()` names
    // the ISA level these rows ran at).
    let mut rng = TensorRng::seed_from(8);
    let mut f32_ops: Vec<(Vec<f32>, Vec<f32>, Vec<f32>)> = PLAN_GEMM_SHAPES
        .iter()
        .map(|&(m, k, n)| {
            let a = rng.uniform(&[m, k], -1.0, 1.0).into_vec();
            let b = rng.uniform(&[k, n], -1.0, 1.0).into_vec();
            (a, b, vec![0.0f32; m * n])
        })
        .collect();
    h.bench("plan_shapes/matmul_f32_21convs", || {
        for (&(m, k, n), (a, b, out)) in PLAN_GEMM_SHAPES.iter().zip(f32_ops.iter_mut()) {
            out.fill(0.0);
            matmul_into(a, b, out, m, k, n);
        }
    });
    let to_i8 = |v: &[f32]| -> Vec<i8> { v.iter().map(|&x| (x * 127.0) as i8).collect() };
    let mut i8_ops: Vec<(Vec<i8>, Vec<i8>, Vec<i32>)> = f32_ops
        .iter()
        .map(|(a, b, out)| (to_i8(a), to_i8(b), vec![0i32; out.len()]))
        .collect();
    h.bench("plan_shapes/matmul_i8_21convs", || {
        for (&(m, k, n), (a, b, out)) in PLAN_GEMM_SHAPES.iter().zip(i8_ops.iter_mut()) {
            out.fill(0);
            matmul_i8_into(a, b, out, m, k, n);
        }
    });
    for &(name, m, k, n) in &[
        ("dec4_8x72x3072", 8usize, 72usize, 3072usize),
        ("enc1_12x72x768", 12, 72, 768),
        ("enc4_32x216x12", 32, 216, 12),
    ] {
        let a = rng.uniform(&[m, k], -1.0, 1.0).into_vec();
        let b = rng.uniform(&[k, n], -1.0, 1.0).into_vec();
        let mut out = vec![0.0f32; m * n];
        h.bench(&format!("plan_shapes/matmul_f32_{name}"), || {
            out.fill(0.0);
            matmul_into(&a, &b, &mut out, m, k, n);
        });
        let (qa, qb) = (to_i8(&a), to_i8(&b));
        let mut acc = vec![0i32; m * n];
        h.bench(&format!("plan_shapes/matmul_i8_{name}"), || {
            acc.fill(0);
            matmul_i8_into(&qa, &qb, &mut acc, m, k, n);
        });
    }
    // dec4's input plane: the largest activation the int8 plan quantizes.
    let plane = rng.uniform(&[8 * 32 * 96], -3.0, 3.0).into_vec();
    let mut q = vec![0i8; plane.len()];
    h.bench("plan_shapes/quantize_i8_24576", || {
        quantize_i8(&plane, 3.0 / 127.0, &mut q);
    });
}

fn bench_max_pool(h: &mut BenchHarness) {
    let mut rng = TensorRng::seed_from(5);
    let x = rng.uniform(&[4, 8, 32, 96], -1.0, 1.0);
    h.bench_with_setup(
        "max_pool_2x2_batch4_8ch_32x96",
        || x.clone(),
        |x| max_pool2d(&x, 2, 2).expect("valid geometry"),
    );
}

fn bench_elementwise_fusion(h: &mut BenchHarness) {
    // The baseline's fusion op itself: element-wise summation.
    let mut rng = TensorRng::seed_from(6);
    let a = rng.uniform(&[1, 8, 16, 48], -1.0, 1.0);
    let b = rng.uniform(&[1, 8, 16, 48], -1.0, 1.0);
    h.bench("elementwise_sum_8ch_16x48", || a.add(&b));
}

/// The old parallel strategy: split the output rows across threads but
/// spawn (and join) a fresh OS thread per chunk on every single call.
/// Same ikj accumulation as `sf_tensor::matmul`'s parallel path.
fn matmul_spawn_per_call(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = (a.shape()[0], a.shape()[1]);
    let n = b.shape()[1];
    let threads = sf_runtime::num_threads();
    let mut out = vec![0.0f32; m * n];
    let chunk_rows = m.div_ceil(threads);
    let (a_data, b_data) = (a.data(), b.data());
    std::thread::scope(|scope| {
        for (ci, rows_out) in out.chunks_mut(chunk_rows * n).enumerate() {
            scope.spawn(move || {
                let row0 = ci * chunk_rows;
                for (r, out_row) in rows_out.chunks_mut(n).enumerate() {
                    let i = row0 + r;
                    for (p, &aik) in a_data[i * k..(i + 1) * k].iter().enumerate() {
                        let b_row = &b_data[p * n..(p + 1) * n];
                        for (o, &bpj) in out_row.iter_mut().zip(b_row) {
                            *o += aik * bpj;
                        }
                    }
                }
            });
        }
    });
    Tensor::from_vec(out, &[m, n]).expect("shape matches data")
}

/// The old conv strategy: one freshly spawned thread per image, per call.
fn conv_spawn_per_call(images: &[Tensor], w: &Tensor, spec: Conv2dSpec) -> Vec<Tensor> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = images
            .iter()
            .map(|x| scope.spawn(move || conv2d(x, w, None, spec).expect("valid geometry")))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

fn bench_pool_vs_spawn(h: &mut BenchHarness) {
    // Large matmul: above the parallel threshold, so `matmul` dispatches
    // row chunks onto the persistent pool. The spawn-per-call variant
    // does the identical row split with fresh OS threads every call.
    let mut rng = TensorRng::seed_from(7);
    let a = rng.uniform(&[256, 192], -1.0, 1.0);
    let b = rng.uniform(&[192, 256], -1.0, 1.0);
    h.bench("pool_vs_spawn/matmul_256x192x256_pool", || {
        matmul(&a, &b).expect("shapes agree")
    });
    h.bench("pool_vs_spawn/matmul_256x192x256_spawn_per_call", || {
        matmul_spawn_per_call(&a, &b)
    });

    // Batched conv forward: the pool path fans the batch across workers;
    // the spawn path launches one thread per image on every call.
    let batch = rng.uniform(&[8, 8, 16, 48], -1.0, 1.0);
    let images: Vec<Tensor> = (0..8)
        .map(|i| {
            let plane = 8 * 16 * 48;
            Tensor::from_vec(
                batch.data()[i * plane..(i + 1) * plane].to_vec(),
                &[1, 8, 16, 48],
            )
            .expect("shape matches data")
        })
        .collect();
    let w = rng.kaiming(&[12, 8, 3, 3]);
    let spec = Conv2dSpec::same(3);
    h.bench("pool_vs_spawn/conv2d_batch8_8to12_16x48_pool", || {
        conv2d(&batch, &w, None, spec).expect("valid geometry")
    });
    h.bench(
        "pool_vs_spawn/conv2d_batch8_8to12_16x48_spawn_per_call",
        || conv_spawn_per_call(&images, &w, spec),
    );
}

fn main() {
    let mut h = BenchHarness::new("kernels");
    h.sample_size(20);
    bench_conv_forward(&mut h);
    bench_conv_backward(&mut h);
    bench_fusion_filter(&mut h);
    bench_matmul(&mut h);
    bench_plan_shapes(&mut h);
    bench_max_pool(&mut h);
    bench_elementwise_fusion(&mut h);
    bench_pool_vs_spawn(&mut h);
    h.finish();
}
