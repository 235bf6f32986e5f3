//! GEMM kernel scaling: blocked serial vs row-parallel, and the two
//! transposed products of the backward pass on the same convolution shapes,
//! so the three GEMMs of a dense training step read off one table.

use adr_bench::timing::BenchGroup;
use adr_tensor::matrix::Matrix;
use adr_tensor::par::matmul_par;
use adr_tensor::rng::AdrRng;

fn random_matrix(r: usize, c: usize, seed: u64) -> Matrix {
    let mut rng = AdrRng::seeded(seed);
    Matrix::from_fn(r, c, |_, _| rng.gauss())
}

fn main() {
    let mut group = BenchGroup::new("gemm", 10);
    // Shapes mirror the unfolded convolutions of the bench models:
    // (N, K, M) triples.
    for &(n, k, m) in &[(1024usize, 75usize, 64usize), (784, 800, 64), (3600, 1600, 64)] {
        let a = random_matrix(n, k, 1);
        let b = random_matrix(k, m, 2);
        group.bench(&format!("serial/{n}x{k}x{m}"), || a.matmul(&b));
        group.bench(&format!("parallel/{n}x{k}x{m}"), || matmul_par(&a, &b));
    }
    // One dense training step's three products on both bench-scale CifarNet
    // convolutions at batch 16: y = x·W, ∇W = xᵀ·δy, δx = δy·Wᵀ — the same
    // N·K·M multiply–adds each.
    for &(name, n, k, m) in &[("conv1", 4096usize, 75usize, 64usize), ("conv2", 784, 1600, 64)] {
        let x = random_matrix(n, k, 3);
        let dy = random_matrix(n, m, 4);
        let w = random_matrix(k, m, 5);
        group.bench(&format!("{name}/forward_x_w/{n}x{k}x{m}"), || matmul_par(&x, &w));
        group.bench(&format!("{name}/weight_grad_xT_dy/{n}x{k}x{m}"), || x.matmul_t_a(&dy));
        group.bench(&format!("{name}/input_delta_dy_wT/{n}x{k}x{m}"), || dy.matmul_t_b(&w));
    }
    group.finish();
}
