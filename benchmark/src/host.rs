//! What the run can say about the machine it ran on: identity of the code
//! and toolchain, core count, a reference kernel, peak memory, CPU affinity, and
//! the per-run scratch directory.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// First line of a command's stdout, or `unknown` (the driver's checkout is
/// not a git repository).
fn first_line_of(program: &str, args: &[&str], dir: &Path) -> String {
    Command::new(program)
        .args(args)
        .current_dir(dir)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// The benchmark package's directory, fixed when it was built.
pub fn benchmark_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

pub fn commit() -> String {
    first_line_of("git", &["rev-parse", "--short", "HEAD"], benchmark_dir())
}

pub fn rustc_version() -> String {
    first_line_of("rustc", &["--version"], benchmark_dir())
}

/// Cores this process may run on (affinity-aware).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// What the reference kernel takes on the calibration host when nothing
/// else runs beside it. Only a unit: timings are reported in "milliseconds
/// on a host where the reference takes this long".
pub const REFERENCE_NOMINAL_MS: f64 = 10.0;
/// The reference kernel is read again once this much time has passed.
const REFERENCE_PERIOD: Duration = Duration::from_millis(50);

/// A fixed matrix product owned by the benchmark, shaped like the workloads'
/// dominant GEMM (K = 1600, M = 64, 392 rows per thread) and split over as
/// many threads as the program under test uses.
struct Reference {
    a: Vec<f32>,
    b: Vec<f32>,
    c: Vec<f32>,
}

impl Reference {
    const K: usize = 1600;
    const M: usize = 64;
    const ROWS_PER_THREAD: usize = 392;

    fn new(threads: usize) -> Self {
        let rows = Self::ROWS_PER_THREAD * threads.max(1);
        Self {
            a: (0..rows * Self::K).map(|i| (i % 13) as f32 * 0.25).collect(),
            b: (0..Self::K * Self::M).map(|i| (i % 7) as f32 * 0.5).collect(),
            c: vec![0.0; rows * Self::M],
        }
    }

    fn run_ms(&mut self) -> f64 {
        let (k, m, rows) = (Self::K, Self::M, Self::ROWS_PER_THREAD);
        let (a, b) = (&self.a, &self.b);
        let start = Instant::now();
        std::thread::scope(|scope| {
            let mut blocks = self.c.chunks_mut(rows * m).enumerate();
            let first = blocks.next();
            let product = move |(t, block): (usize, &mut [f32])| {
                for (r, c_row) in block.chunks_mut(m).enumerate() {
                    let a_row = &a[(t * rows + r) * k..(t * rows + r + 1) * k];
                    c_row.fill(0.0);
                    for (&a_v, b_row) in a_row.iter().zip(b.chunks(m)) {
                        for (c_v, &b_v) in c_row.iter_mut().zip(b_row) {
                            *c_v += a_v * b_v;
                        }
                    }
                }
            };
            for block in blocks {
                scope.spawn(move || product(block));
            }
            first.into_iter().for_each(product);
        });
        std::hint::black_box(&mut self.c);
        ms(start.elapsed())
    }
}

pub fn ms(duration: Duration) -> f64 {
    duration.as_secs_f64() * 1e3
}

/// Wall milliseconds of a `(start, end)` interval.
pub fn raw_ms((start, end): (Instant, Instant)) -> f64 {
    ms(end - start)
}

/// Measures the host while the workload runs, so that its timings can be
/// stated at a fixed host speed.
///
/// The sandbox shares its cores with other tenants. For minutes at a time
/// everything, the fixed canary included, runs 1.4 to 1.8 times slower, and
/// no statistic of the raw times of one run can see that. The yardstick
/// reads the reference kernel every [`REFERENCE_PERIOD`] between operations;
/// each operation's time is then divided by the host factor (reference time
/// over its nominal time) read around it.
pub struct Yardstick {
    kernel: Reference,
    /// `(when the reading ended, reference milliseconds)`.
    readings: Vec<(Instant, f64)>,
}

impl Yardstick {
    /// Takes the first reading.
    pub fn new(threads: usize) -> Self {
        let mut yardstick = Self { kernel: Reference::new(threads), readings: Vec::new() };
        yardstick.read();
        yardstick
    }

    /// Takes a reading now. The kernel runs twice and the second time counts:
    /// the first pulls the operands back into cache, so the reading does not
    /// depend on how much of the cache the workload has just used.
    pub fn read(&mut self) {
        self.kernel.run_ms();
        let ms = self.kernel.run_ms();
        self.readings.push((Instant::now(), ms));
    }

    /// Takes a reading if the last one is older than [`REFERENCE_PERIOD`].
    /// Call between operations, never inside a timed one.
    pub fn tick(&mut self) {
        if self.readings.last().is_none_or(|(at, _)| at.elapsed() >= REFERENCE_PERIOD) {
            self.read();
        }
    }

    /// Host factor over `[start, end]`: the mean of the readings from the
    /// last one before the interval to the first one after it, over the
    /// nominal reference time. Above 1 on a slow or crowded host.
    fn factor_over(&self, start: Instant, end: Instant) -> f64 {
        let from = self.readings.partition_point(|(t, _)| *t <= start).saturating_sub(1);
        let to = (self.readings.partition_point(|(t, _)| *t < end) + 1).min(self.readings.len());
        let around = &self.readings[from..to];
        let mean = around.iter().map(|(_, ms)| ms).sum::<f64>() / around.len().max(1) as f64;
        mean / REFERENCE_NOMINAL_MS
    }

    /// Milliseconds of each `(start, end)` operation at nominal host speed.
    pub fn normalized_ms(&self, operations: &[(Instant, Instant)]) -> Vec<f64> {
        operations
            .iter()
            .map(|&(start, end)| raw_ms((start, end)) / self.factor_over(start, end))
            .collect()
    }

    /// The first and the latest reading in milliseconds: a large gap between
    /// them, or from the nominal time, marks a crowded host.
    pub fn first_and_last_ms(&self) -> (f64, f64) {
        let ms = |reading: Option<&(Instant, f64)>| reading.map_or(0.0, |r| r.1);
        (ms(self.readings.first()), ms(self.readings.last()))
    }

    /// Median host factor over the run.
    pub fn median_factor(&self) -> f64 {
        let ms: Vec<f64> = self.readings.iter().map(|(_, ms)| *ms).collect();
        crate::stats::median(&ms) / REFERENCE_NOMINAL_MS
    }
}

/// Peak resident set size (`VmHWM`) of this process in MB, 0 if unreadable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Words of the kernel CPU mask this module reads and writes (1024 CPUs).
const MASK_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Restricts this process to the lowest-numbered CPU it is allowed on, the
/// in-process equivalent of `taskset -c <cpu>`. Must run before the program
/// first asks for `hardware_threads()`, which caches the answer: from then
/// on the program's own crossover logic sees one core and stays serial.
///
/// Returns the CPU chosen, or `None` when the platform refused.
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a live, writable buffer of exactly the byte length
    // passed; pid 0 names the calling thread, and no thread has been spawned
    // yet, so the mask is inherited by every later thread.
    let got = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if got != 0 {
        return None;
    }
    let cpu = mask
        .iter()
        .enumerate()
        .find_map(|(w, &bits)| (bits != 0).then(|| w * 64 + bits.trailing_zeros() as usize))?;
    let mut one = [0u64; MASK_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live buffer of exactly the byte length passed.
    let set = unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) };
    (set == 0).then_some(cpu)
}

static RUN_DIRS: AtomicUsize = AtomicUsize::new(0);

/// Creates `benchmark/out/run-<pid>-<counter>/`, unique per call, so that
/// concurrent runs never share a checkpoint or trace path.
pub fn new_run_dir() -> std::io::Result<PathBuf> {
    let counter = RUN_DIRS.fetch_add(1, Ordering::Relaxed);
    let dir = benchmark_dir().join("out").join(format!("run-{}-{counter}", std::process::id()));
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_dirs_are_unique_and_inside_the_benchmark() {
        let a = new_run_dir().unwrap();
        let b = new_run_dir().unwrap();
        assert_ne!(a, b);
        assert!(a.starts_with(benchmark_dir().join("out")));
        for dir in [a, b] {
            std::fs::remove_dir(dir).unwrap();
        }
    }

    #[test]
    fn yardstick_divides_by_the_factor_read_around_an_operation() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let yardstick = Yardstick {
            kernel: Reference::new(1),
            readings: vec![(at(0), 10.0), (at(100), 20.0), (at(200), 40.0)],
        };
        // The readings on either side are 10 and 20: factor 1.5.
        let normalized = yardstick.normalized_ms(&[(at(20), at(80)), (at(210), at(230))]);
        assert!((normalized[0] - 60.0 / 1.5).abs() < 1e-9);
        // Past the last reading only that reading counts: factor 4.
        assert!((normalized[1] - 20.0 / 4.0).abs() < 1e-9);
        assert!((yardstick.median_factor() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn reference_kernel_runs_on_one_and_two_threads() {
        assert!(Reference::new(1).run_ms() > 0.0);
        let mut two = Reference::new(2);
        assert!(two.run_ms() > 0.0);
        // Row r of the product is a_row(r) . b: every thread's block is filled.
        assert!(two.c.iter().skip(Reference::ROWS_PER_THREAD * Reference::M).any(|&v| v != 0.0));
    }

    #[test]
    fn host_facts_are_readable() {
        assert!(nproc() >= 1);
        assert!(peak_rss_mb() > 0.0);
    }
}
