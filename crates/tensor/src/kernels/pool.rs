//! Persistent worker pool behind every hot-path fan-out.
//!
//! `std::thread::scope` spawns and joins OS threads on every call — roughly
//! 10–20 µs of overhead per fan-out, paid again at each matmul, im2col,
//! col2im, `hash_all`, and reconstruct. The pool here spawns
//! `hardware_threads() - 1` workers once (lazily, on the first parallel
//! fan-out) and reuses them for the life of the process; a fan-out becomes a
//! handful of channel sends plus an inline chunk on the calling thread.
//!
//! # Handoff
//!
//! Both waits of a fan-out — a worker's for its next job, the caller's for
//! its completion tokens — go through `recv_spinning`: poll the channel
//! for `SPIN_WINDOW`, then block on it. A thread blocked in `recv` is
//! parked, and waking it goes through the kernel to a halted core: 35–40 µs
//! for an empty two-way round trip on the benchmark host back to back, 55–110
//! after 2 ms idle. A polling thread sees the message as soon as it is
//! sent: 1.7 µs for the same round trip. Inside a training step the next
//! fan-out always follows within the window, so the step never waits for a
//! wake-up; an idle process parks every worker one window after its last
//! fan-out and costs nothing from then on.
//!
//! The poll yields (`yield_now`) between looks instead of pausing. With the
//! peer on another core the yield returns at once and costs nothing
//! measurable (1.7 µs either way). With the peer on the *same* core — the
//! scheduler's first placement of a new worker, an affinity mask narrowed
//! after start-up, `cargo test`'s own threads crowding two cores — the yield
//! is what lets the peer run: a pause loop there holds the core for its
//! whole window while the thread it waits for cannot run, and the same round
//! trip read 404 µs (2 × the window) where the yielding loop reads 2–5 µs.
//!
//! The protocol is the channel's own — polling adds no shared state, so the
//! join barrier, the panic replay and shutdown (a disconnect, which
//! `try_recv` reports like `recv`) are what they were.
//!
//! # Lifecycle
//!
//! * [`with_pool`] lazily creates the global pool under an `RwLock` and hands
//!   a clone of the `Arc` to the caller; steady-state cost is one read-lock.
//! * [`shutdown_pool`] drops the global handle, disconnecting the job
//!   channels so every worker drains and exits; `Drop` joins them. Tests
//!   that must end with no live threads (Miri rejects leaked threads at
//!   process exit) call this explicitly.
//!
//! # Determinism
//!
//! The pool only changes *where* a row block runs, never how blocks are cut:
//! callers decompose work exactly as the scoped-spawn code did and each block
//! writes a disjoint `split_at_mut` chunk, so results are bitwise identical
//! to both the serial and the old scoped-parallel paths.
//!
//! # Panic and borrow safety
//!
//! [`WorkerPool::scope_run`] is the only place jobs cross into the workers.
//! It erases the caller's `'env` lifetime (the one `unsafe` in this module)
//! and is sound because it never returns — by unwind or normal exit — until
//! every dispatched job has reported completion through its channel. Worker
//! panics are caught, carried back as payloads, and re-raised on the caller.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, RecvError, Sender, TryRecvError};
use std::sync::{Arc, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

type Job = Box<dyn FnOnce() + Send>;

/// How long a thread with nothing to do polls its channel before it parks.
///
/// Sized as a few of the kernel wake-ups it avoids (35–80 µs each), not
/// tuned: `train_vgg_reuse` reads the same from 200 µs to 2 ms and is within
/// 10 % of that at 20 µs (DESIGN.md §15.7). The serial stretches between the
/// fan-outs of one training step (ReLU, pooling, the small layers) are
/// shorter than this. An idle process burns one window per worker after its
/// last fan-out and nothing after that.
const SPIN_WINDOW: Duration = Duration::from_micros(200);

/// `rx.recv()` that polls for [`SPIN_WINDOW`] before blocking, yielding the
/// core between looks (module docs: a peer that shares it must get to run).
/// Returns what `recv` would: a message, or `RecvError` once every sender is
/// gone — seen by the polling phase too, so a disconnect never waits out the
/// window.
fn recv_spinning<T>(rx: &Receiver<T>) -> Result<T, RecvError> {
    let start = Instant::now();
    loop {
        match rx.try_recv() {
            Ok(message) => return Ok(message),
            Err(TryRecvError::Disconnected) => return Err(RecvError),
            Err(TryRecvError::Empty) if start.elapsed() < SPIN_WINDOW => std::thread::yield_now(),
            Err(TryRecvError::Empty) => return rx.recv(),
        }
    }
}

thread_local! {
    /// Set inside `worker_loop`. A pooled job that itself reaches a fan-out
    /// site must not enqueue onto the pool it is running on (the job at the
    /// front of its own queue would be itself — deadlock); `scope_run` checks
    /// this flag and degrades to serial execution, which is bitwise
    /// equivalent anyway.
    static IS_POOL_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Persistent worker threads fed by per-worker job channels.
pub struct WorkerPool {
    senders: Vec<Sender<Job>>,
    handles: Vec<JoinHandle<()>>,
}

fn worker_loop(rx: Receiver<Job>) {
    IS_POOL_WORKER.with(|f| f.set(true));
    while let Ok(job) = recv_spinning(&rx) {
        job();
    }
}

impl WorkerPool {
    /// Spawns `workers.max(1)` threads, each owning one job channel.
    #[expect(
        clippy::expect_used,
        reason = "internal-invariant: OS thread-spawn failure is a resource exhaustion the GEMM API cannot meaningfully surface"
    )]
    fn spawn(workers: usize) -> Self {
        let workers = workers.max(1);
        let mut senders = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for i in 0..workers {
            let (tx, rx) = channel::<Job>();
            senders.push(tx);
            let handle = std::thread::Builder::new()
                .name(format!("adr-pool-{i}"))
                .spawn(move || worker_loop(rx))
                .expect("spawning a pool worker thread failed");
            handles.push(handle);
        }
        Self { senders, handles }
    }

    /// Number of worker threads in the pool.
    pub fn workers(&self) -> usize {
        self.senders.len()
    }

    /// Runs `tasks` on the workers and `inline` on the calling thread, then
    /// blocks until every task has finished. Tasks may borrow from the
    /// caller's stack (`'env`), exactly like `std::thread::scope` closures.
    ///
    /// # Panics
    /// Re-raises the first panic payload from `inline` or any task after all
    /// tasks have completed, and panics if a worker disappears mid-run.
    #[expect(
        clippy::expect_used,
        clippy::panic,
        reason = "internal-invariant: workers only exit when the pool is dropped, and every dispatched job \
                  sends exactly one completion token, even when the job panics"
    )]
    pub fn scope_run<'env>(
        &self,
        tasks: Vec<Box<dyn FnOnce() + Send + 'env>>,
        inline: impl FnOnce(),
    ) {
        if tasks.is_empty() {
            inline();
            return;
        }
        if IS_POOL_WORKER.with(std::cell::Cell::get) {
            // Nested fan-out from inside a pooled job: run everything on this
            // worker. Same block decomposition, same bits, no deadlock.
            for task in tasks {
                task();
            }
            inline();
            return;
        }

        let count = tasks.len();
        let (done_tx, done_rx) = channel::<std::thread::Result<()>>();
        for (i, task) in tasks.into_iter().enumerate() {
            let done = done_tx.clone();
            // The 'env → 'static erasure below leans on the same guarantee
            // `std::thread::scope` provides via its join barrier: each job
            // sends its completion message strictly after the boxed task —
            // and every 'env borrow inside it — has been dropped, and the
            // drain loop below receives exactly `count` such messages.
            // SAFETY: scope_run never returns (normally or by unwind) before
            // the drain loop completes, so the caller's stack frame outlives
            // every use of the transmuted 'env borrows.
            let job: Job = unsafe {
                std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Job>(Box::new(move || {
                    let result = catch_unwind(AssertUnwindSafe(task));
                    // Receiver alive for the whole drain loop; a send error
                    // only means the caller is already panicking fatally.
                    let _ = done.send(result);
                }))
            };
            let slot = i % self.senders.len();
            self.senders[slot].send(job).expect("worker pool thread exited while pool was live");
        }
        drop(done_tx);

        let inline_result = catch_unwind(AssertUnwindSafe(inline));
        let mut first_task_panic: Option<Box<dyn std::any::Any + Send>> = None;
        for _ in 0..count {
            match recv_spinning(&done_rx) {
                Ok(Ok(())) => {}
                Ok(Err(payload)) => {
                    if first_task_panic.is_none() {
                        first_task_panic = Some(payload);
                    }
                }
                Err(_) => {
                    // A worker died without reporting: its catch_unwind
                    // always sends, so the channel can only close if the
                    // worker thread itself was torn down. Nothing borrows
                    // 'env anymore (all senders dropped), so panicking here
                    // is safe.
                    panic!("worker pool disconnected while tasks were in flight");
                }
            }
        }
        if let Err(payload) = inline_result {
            resume_unwind(payload);
        }
        if let Some(payload) = first_task_panic {
            resume_unwind(payload);
        }
    }
}

impl Drop for WorkerPool {
    #[expect(
        clippy::expect_used,
        reason = "internal-invariant: worker_loop only unwinds on a completion-channel bug; job panics are caught \
                  and replayed in scope_run"
    )]
    fn drop(&mut self) {
        // Disconnect every job channel so `worker_loop` sees `Err` and
        // returns, then join so no thread outlives the pool (Miri fails the
        // process on leaked threads).
        self.senders.clear();
        for handle in self.handles.drain(..) {
            // A worker only panics if a job's catch_unwind was bypassed by a
            // foreign exception; surfacing that at shutdown is correct.
            handle.join().expect("pool worker panicked outside a job");
        }
    }
}

static POOL: RwLock<Option<Arc<WorkerPool>>> = RwLock::new(None);

/// Runs `f` with the global pool, creating it on first use with
/// `hardware_threads() - 1` workers (the calling thread is the extra lane).
pub fn with_pool<R>(f: impl FnOnce(&WorkerPool) -> R) -> R {
    let existing = POOL.read().unwrap_or_else(std::sync::PoisonError::into_inner).clone();
    let pool = match existing {
        Some(pool) => pool,
        None => {
            let mut slot = POOL.write().unwrap_or_else(std::sync::PoisonError::into_inner);
            slot.get_or_insert_with(|| {
                Arc::new(WorkerPool::spawn(crate::par::hardware_threads().saturating_sub(1)))
            })
            .clone()
        }
    };
    f(&pool)
}

/// Tears down the global pool, joining every worker thread.
///
/// Fan-outs after shutdown transparently respawn the pool; this exists so
/// tests (Miri in particular) can end the process with zero live threads.
pub fn shutdown_pool() {
    let taken = POOL.write().unwrap_or_else(std::sync::PoisonError::into_inner).take();
    // Dropping the last Arc joins the workers. If a concurrent fan-out still
    // holds a clone, its drop performs the join instead.
    drop(taken);
}

#[cfg(test)]
#[expect(clippy::disallowed_types, reason = "test: Relaxed completion counters")]
mod tests {
    use super::*;

    #[test]
    fn scope_run_executes_all_tasks_and_inline() {
        let pool = WorkerPool::spawn(3);
        let mut parts: Vec<u64> = vec![0; 4];
        {
            let mut chunks = parts.chunks_mut(1);
            let mut tasks: Vec<Box<dyn FnOnce() + Send>> = Vec::new();
            for t in 0..3u64 {
                let chunk = chunks.next().expect("four chunks for four slots");
                tasks.push(Box::new(move || chunk[0] = (t + 1) * 10));
            }
            let inline_chunk = chunks.next().expect("four chunks for four slots");
            pool.scope_run(tasks, || inline_chunk[0] = 40);
        }
        assert_eq!(parts, vec![10, 20, 30, 40]);
    }

    /// Element `i` of every fill below; the serial result in closed form.
    fn value(i: u32, seed: u32) -> u32 {
        i.wrapping_mul(2_654_435_761).wrapping_add(seed)
    }

    /// One fan-out that fills eight elements, the upper half on the worker
    /// and the lower half inline.
    fn fill_halves(pool: &WorkerPool, seed: u32) -> [u32; 8] {
        let mut out = [0u32; 8];
        let (lo, hi) = out.split_at_mut(4);
        let fill = |row0: u32, half: &mut [u32]| {
            for (i, v) in (row0..).zip(half) {
                *v = value(i, seed);
            }
        };
        pool.scope_run(vec![Box::new(move || fill(4, hi))], || fill(0, lo));
        out
    }

    #[test]
    fn fan_outs_reach_a_polling_worker_and_a_parked_one() {
        let pool = WorkerPool::spawn(1);
        let serial = |seed: u32| [0, 1, 2, 3, 4, 5, 6, 7].map(|i| value(i, seed));
        // Back to back: each fan-out finds the worker inside the window it
        // opened after the previous job.
        for seed in 0..64 {
            assert_eq!(fill_halves(&pool, seed), serial(seed), "polling worker, round {seed}");
        }
        // Several windows later the worker has parked on its channel; the
        // blocking tail of the same loop must pick the job up.
        for seed in 64..67 {
            std::thread::sleep(SPIN_WINDOW * 5);
            assert_eq!(fill_halves(&pool, seed), serial(seed), "parked worker, round {seed}");
        }
    }

    #[test]
    fn recv_spinning_returns_what_recv_would() {
        let (tx, rx) = channel::<u32>();
        tx.send(7).unwrap();
        assert_eq!(recv_spinning(&rx), Ok(7), "a queued message is seen by the first poll");
        // A message that arrives only after the window closed: the blocking
        // tail receives it.
        let late = std::thread::spawn(move || {
            std::thread::sleep(SPIN_WINDOW * 5);
            tx.send(8).unwrap();
        });
        assert_eq!(recv_spinning(&rx), Ok(8));
        late.join().unwrap();
        // Every sender gone: the polling phase reports the disconnect itself.
        assert_eq!(recv_spinning(&rx), Err(RecvError));
    }

    #[test]
    fn drop_joins_a_worker_inside_its_polling_window() {
        // The job has just finished, so the worker is polling, not blocked:
        // the disconnect must end the poll loop or this join never returns.
        for _ in 0..8 {
            let pool = WorkerPool::spawn(2);
            assert_eq!(fill_halves(&pool, 1)[4], value(4, 1));
            drop(pool);
        }
    }

    #[test]
    fn nested_fan_out_from_a_pooled_job_runs_on_that_worker() {
        let pool = WorkerPool::spawn(2);
        let ids = std::sync::Mutex::new(Vec::new());
        let note = || ids.lock().unwrap().push(std::thread::current().id());
        let outer: Vec<Box<dyn FnOnce() + Send>> = vec![Box::new(|| {
            note();
            let inner: Vec<Box<dyn FnOnce() + Send>> = vec![Box::new(note), Box::new(note)];
            pool.scope_run(inner, note);
        })];
        pool.scope_run(outer, || {});
        let ids = ids.into_inner().unwrap();
        assert_eq!(ids.len(), 4);
        assert_ne!(ids[0], std::thread::current().id(), "the outer task ran on a worker");
        assert!(ids.iter().all(|id| *id == ids[0]), "nested tasks left their worker: {ids:?}");
    }

    /// The spin is bounded: one window after its last job a worker is parked
    /// and an idle pool costs no CPU. Read from the worker's own
    /// `/proc/<pid>/task/<tid>/stat` (utime + stime, in 10 ms ticks), so the
    /// other tests running in this process do not count.
    #[cfg(all(target_os = "linux", not(miri)))]
    #[test]
    fn an_idle_worker_parks_instead_of_spinning() {
        fn cpu_ticks(task: &std::path::Path) -> u64 {
            let stat = std::fs::read_to_string(task.join("stat")).unwrap();
            // Fields after the parenthesised command name: state is the
            // first, utime and stime the 12th and 13th.
            let fields: Vec<&str> = stat[stat.rfind(')').unwrap() + 2..].split(' ').collect();
            fields[11].parse::<u64>().unwrap() + fields[12].parse::<u64>().unwrap()
        }
        let pool = WorkerPool::spawn(1);
        let mut task_dir = None;
        let find_self = || task_dir = std::fs::read_link("/proc/thread-self").ok();
        pool.scope_run(vec![Box::new(find_self)], || {});
        let task_dir = std::path::Path::new("/proc").join(task_dir.expect("procfs is mounted"));
        let before = cpu_ticks(&task_dir);
        std::thread::sleep(Duration::from_millis(100));
        let spent = cpu_ticks(&task_dir) - before;
        // A worker that never parked would have burnt the whole sleep: 10.
        assert!(spent <= 2, "idle worker used {spent} ticks of CPU during a 100 ms sleep");
    }

    #[test]
    fn task_panic_propagates_after_all_tasks_finish() {
        let pool = WorkerPool::spawn(2);
        // Leave both workers polling, as they are in the middle of a step.
        pool.scope_run(vec![Box::new(|| {}), Box::new(|| {})], || {});
        let finished = std::sync::atomic::AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            let tasks: Vec<Box<dyn FnOnce() + Send>> = vec![
                Box::new(|| panic!("task boom")),
                Box::new(|| {
                    finished.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                }),
            ];
            pool.scope_run(tasks, || {});
        }));
        assert!(result.is_err(), "task panic must re-raise on the caller");
        assert_eq!(finished.load(std::sync::atomic::Ordering::Relaxed), 1);
        // The pool survives a panicking job and keeps serving.
        let mut ok = [false];
        pool.scope_run(vec![Box::new(|| ok[0] = true)], || {});
        assert!(ok[0]);
    }

    #[test]
    fn inline_panic_still_drains_tasks() {
        let pool = WorkerPool::spawn(2);
        let done = std::sync::atomic::AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            let tasks: Vec<Box<dyn FnOnce() + Send>> = vec![
                Box::new(|| {
                    done.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                }),
                Box::new(|| {
                    done.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                }),
            ];
            pool.scope_run(tasks, || panic!("inline boom"));
        }));
        assert!(result.is_err(), "inline panic must re-raise on the caller");
        assert_eq!(done.load(std::sync::atomic::Ordering::Relaxed), 2);
    }

    #[test]
    fn empty_task_list_runs_inline_without_touching_workers() {
        let pool = WorkerPool::spawn(1);
        let mut ran = false;
        pool.scope_run(Vec::new(), || ran = true);
        assert!(ran);
    }
}
