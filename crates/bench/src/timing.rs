//! Minimal wall-clock harness for the three ablation sweeps in `benches/`
//! (`granularity`, `cost_model`, `kmeans_vs_lsh`).
//!
//! The workspace builds fully offline, so those targets use this tiny
//! criterion-style shim instead of an external harness: each benchmark runs
//! a warm-up pass, then `samples` timed iterations, and prints the minimum /
//! median / maximum per-iteration time. It ranks configurations against
//! each other within one run (the U-shaped granularity curve, the Eq. 5
//! ordering) and nothing more: it is not a performance record, keeps no
//! baseline, and no kernel PR is judged by it. Whether a change is faster
//! is answered by `benchmark/` (BENCHMARK.json), whose per-layer metrics
//! (`tensor.gemm*_ms_p50`, `reuse.hash_all_ms_p50`, `reuse.conv_{fwd,bwd}_ms`
//! beside `nn.conv_{fwd,bwd}_ms`) time the kernels on every run.

use std::hint::black_box;
use std::time::Instant;

/// A named group of related measurements, printed as one table.
pub struct BenchGroup {
    name: String,
    samples: usize,
    rows: Vec<(String, f64, f64, f64)>,
}

impl BenchGroup {
    /// Creates a group that times each benchmark `samples` times.
    ///
    /// # Panics
    /// Panics if `samples == 0`.
    pub fn new(name: &str, samples: usize) -> Self {
        assert!(samples > 0, "need at least one sample");
        Self { name: name.to_string(), samples, rows: Vec::new() }
    }

    /// Times `f`, recording per-iteration wall time under `id`.
    ///
    /// The closure's result is passed through [`black_box`] so the optimiser
    /// cannot delete the measured work.
    pub fn bench<T>(&mut self, id: &str, mut f: impl FnMut() -> T) {
        black_box(f()); // warm-up: page in buffers, warm caches
        let mut times: Vec<f64> = Vec::with_capacity(self.samples);
        for _ in 0..self.samples {
            let t0 = Instant::now();
            black_box(f());
            times.push(t0.elapsed().as_secs_f64() * 1e3);
        }
        times.sort_by(|a, b| a.total_cmp(b));
        let min = times[0];
        let med = times[times.len() / 2];
        let max = times[times.len() - 1];
        println!("{}/{id}: min {min:.3} ms, median {med:.3} ms, max {max:.3} ms", self.name);
        self.rows.push((id.to_string(), min, med, max));
    }

    /// Prints the group summary table.
    pub fn finish(self) {
        println!("\n== {} ({} samples/bench) ==", self.name, self.samples);
        let width = self.rows.iter().map(|r| r.0.len()).max().unwrap_or(4).max(4);
        println!("{:<width$}  {:>10}  {:>10}  {:>10}", "id", "min ms", "median ms", "max ms");
        for (id, min, med, max) in &self.rows {
            println!("{id:<width$}  {min:>10.3}  {med:>10.3}  {max:>10.3}");
        }
    }
}
