//! M:N cooperative node scheduler — the simulator's one runtime.
//!
//! The SP machine of the paper ran jobs at hundreds-to-1024 nodes. This
//! module multiplexes every simulated execution context — node bodies and
//! the engine service loops spawned through
//! [`crate::runtime::spawn_service`] — onto a small fixed pool of OS
//! workers, so a 1024-node job costs `~workers` threads instead of ~3000.
//!
//! The pieces:
//!
//! * **Fibers** — each task owns a stack and is entered/left with a
//!   16-instruction x86-64 context switch (`spsim_ctx_switch`). A task's
//!   blocking points (queue waits, barrier parks, engine condvars) switch
//!   back to the worker instead of blocking the OS thread, which is what
//!   keeps a 1-core host (`SPSIM_WORKERS=1`) live: a single worker round-
//!   robins every runnable task.
//! * **[`SimCondvar`]** — a condition variable whose waiters park through
//!   the scheduler when called from a fiber and wait on a raw condvar when
//!   called from a plain thread: test bodies and harness main threads wait
//!   on simulated primitives from outside any fiber, so the same call
//!   sites serve both.
//! * **Timers with quiescent fast-forward** — every blocking wait in the
//!   simulator carries a wall-clock deadline (poll/dispatch ticks, escape
//!   hatches). When every task is parked and nothing is runnable, real
//!   sleeping would only slow the job down without changing its virtual
//!   outcome (timeout paths charge no virtual time on an empty tick), so
//!   the pool fires the earliest deadline immediately. A budget — at most
//!   one full cycle of pending timers per external progress signal —
//!   stops that from busy-spinning when a timeout genuinely needs wall
//!   time to pass (deadlock escapes keep their wall-clock pacing).
//!
//! Determinism: traces and results are functions of virtual timestamps and
//! queue insertion sequence only, so the pool reproduces them byte-for-byte
//! at any worker count — one worker round-robining every task, or several
//! genuinely racing. `crates/lapi/tests/determinism.rs` asserts exactly that.

use std::any::Any;
use std::cell::{Cell, RefCell, UnsafeCell};
use std::collections::{BTreeMap, VecDeque};
use std::mem::MaybeUninit;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

use crate::config::env_knob;
use crate::diag::OrDiag;

// --------------------------------------------------------------- workers

/// An integer knob with a floor; empty means unset (CI passes `""`).
fn parse_at_least(var: &str, v: &str, min: usize, unset: &str) -> Result<Option<usize>, String> {
    if v.is_empty() {
        return Ok(None);
    }
    match v.parse::<usize>() {
        Ok(n) if n >= min => Ok(Some(n)),
        _ => Err(format!(
            "{var}={v:?} is not accepted: expected an integer ≥ {min}, or empty for {unset}"
        )),
    }
}

fn parse_workers(v: &str) -> Result<Option<usize>, String> {
    parse_at_least("SPSIM_WORKERS", v, 1, "the host core count")
}

fn parse_stack_kb(v: &str) -> Result<Option<usize>, String> {
    parse_at_least("SPSIM_STACK_KB", v, 32, "512")
}

// 0 = no override; otherwise the forced worker-pool cap.
static WORKER_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Programmatically cap the worker pool (`None` restores the
/// `SPSIM_WORKERS`/core-count default). Workers already spawned above a
/// lowered cap go idle rather than exiting; raising the cap re-engages
/// them. Process-global, like [`crate::runtime::set_schedule_tiebreak`]:
/// callers that flip it around a simulated run must serialize those runs
/// and restore it afterwards.
pub fn set_worker_cap(cap: Option<usize>) {
    // ordering: callers serialize whole runs around this hook (see above),
    // so no simulated thread races the store.
    WORKER_OVERRIDE.store(cap.unwrap_or(0), Ordering::Relaxed);
    if let Some(s) = Sched::get() {
        let mut st = s.state.lock().unwrap_or_else(|e| e.into_inner());
        st.active_cap = worker_cap();
        let target = st.live.clamp(1, st.active_cap);
        s.ensure_workers(&mut st, target);
        drop(st);
        // Ungated: workers idled by a lower cap sleep outside `idle`.
        s.work_cv.notify_all();
    }
}

fn env_workers() -> Option<usize> {
    static ENV: OnceLock<Option<usize>> = OnceLock::new();
    *ENV.get_or_init(|| env_knob("SPSIM_WORKERS", parse_workers).flatten())
}

fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The effective pool-size cap: explicit override, else `SPSIM_WORKERS`,
/// else the host core count (`min(cores, n)` is applied against live
/// tasks when the pool grows).
fn worker_cap() -> usize {
    // ordering: serialized between runs by the caller, see set_worker_cap.
    match WORKER_OVERRIDE.load(Ordering::Relaxed) {
        0 => env_workers().unwrap_or_else(host_cores),
        n => n,
    }
}

/// Per-fiber stack size: `SPSIM_STACK_KB` override, else 512 KiB. Stacks
/// are allocated uninitialized so untouched pages stay uncommitted — a
/// 1024-node job reserves address space, not RAM.
fn stack_bytes() -> usize {
    static ENV: OnceLock<usize> = OnceLock::new();
    *ENV.get_or_init(|| {
        env_knob("SPSIM_STACK_KB", parse_stack_kb)
            .flatten()
            .unwrap_or(512)
            * 1024
    })
}

// ---------------------------------------------------------- context switch

// The two architecture-specific pieces of the scheduler live in this one
// block: the stack switch, and the frame a new fiber is first switched
// into. A port adds a second `cfg` arm that provides the same two items;
// everything else in this module is target-independent.
#[cfg(not(target_arch = "x86_64"))]
compile_error!(
    "spsim fibers are implemented for x86_64 only: this target needs its own \
     `spsim_ctx_switch` and `Task::init_frame` (crates/sim/src/sched.rs)"
);

#[cfg(target_arch = "x86_64")]
mod arch {
    use super::{Task, CANARY};

    // System-V x86-64 stack switch: save the callee-saved registers and the
    // stack pointer of the current context, restore another's. The fiber's
    // first entry is faked as a restore whose popped registers were
    // pre-staged by `Task::init_frame` (r12 = the task pointer, return
    // address = `spsim_fiber_entry`).
    std::arch::global_asm!(
        ".text",
        ".globl spsim_ctx_switch",
        ".p2align 4",
        "spsim_ctx_switch:",
        "push rbp",
        "push rbx",
        "push r12",
        "push r13",
        "push r14",
        "push r15",
        "mov [rdi], rsp",
        "mov rsp, rsi",
        "pop r15",
        "pop r14",
        "pop r13",
        "pop r12",
        "pop rbx",
        "pop rbp",
        "ret",
        ".globl spsim_fiber_entry",
        ".p2align 4",
        "spsim_fiber_entry:",
        "mov rdi, r12",
        "and rsp, -16",
        "call spsim_fiber_main",
        "ud2",
    );

    extern "C" {
        /// Defined in the `global_asm!` block above.
        pub(super) fn spsim_ctx_switch(save_rsp: *mut usize, restore_rsp: usize);
        /// Label, never called from Rust — its address seeds new fiber frames.
        fn spsim_fiber_entry();
    }

    impl Task {
        /// Stage the initial stack frame so the first context switch
        /// "returns" into `spsim_fiber_entry` with r12 = the task pointer.
        ///
        /// # Safety
        /// Must run before the task is first enqueued, with no concurrent
        /// access to `fiber`.
        pub(super) unsafe fn init_frame(&self, me: *const Task) {
            let fb = &mut *self.fiber.get();
            let base = fb.stack.base() as *mut u64;
            // Canary at the stack's low end: clobbered means overflow.
            base.write(CANARY);
            let top = fb.stack.top();
            // 8 words below the top: r15 r14 r13 r12 rbx rbp ret pad.
            let frame = (top - 8 * 8) as *mut u64;
            for i in 0..6 {
                frame.add(i).write(0);
            }
            frame.add(3).write(me as u64); // restored into r12
            frame
                .add(6)
                .write(spsim_fiber_entry as *const () as usize as u64);
            frame.add(7).write(0);
            fb.rsp = frame as usize;
        }
    }
}
use arch::spsim_ctx_switch;

/// Rust side of the fiber trampoline: runs the task closure under
/// `catch_unwind`, records the outcome, and switches back to the worker
/// for the last time. Never returns.
#[no_mangle]
extern "C" fn spsim_fiber_main(task: *const Task) {
    // Safety: the worker that switched us in holds an Arc to this task for
    // the whole time the fiber can run (see `Worker::run_task`).
    let task = unsafe { &*task };
    let body = unsafe { (*task.fiber.get()).entry.take() };
    let body = body.or_diag("fiber entered twice");
    if let Err(p) = catch_unwind(AssertUnwindSafe(body)) {
        task.done.lock().unwrap_or_else(|e| e.into_inner()).panic = Some(p);
    }
    EXIT.with(|e| e.set(ExitKind::Finish));
    switch_to_worker(task);
    unreachable!("finished fiber resumed");
}

// ------------------------------------------------------------------ tasks

const CANARY: u64 = 0x5EED_F1B3_DEAD_CA11;

/// A fiber stack. Uninitialized on purpose: pages commit lazily as the
/// task actually touches them. Stored as u64 words so the canary and the
/// staged register frame are naturally aligned.
struct Stack {
    mem: Box<[MaybeUninit<u64>]>,
}

impl Stack {
    fn new(bytes: usize) -> Stack {
        let words = bytes.div_ceil(8);
        let mut v = Vec::with_capacity(words);
        // Safety: MaybeUninit<u64> is valid uninitialized.
        unsafe { v.set_len(words) };
        Stack {
            mem: v.into_boxed_slice(),
        }
    }

    fn base(&self) -> usize {
        self.mem.as_ptr() as usize
    }

    fn len_bytes(&self) -> usize {
        self.mem.len() * 8
    }

    fn top(&self) -> usize {
        (self.base() + self.len_bytes()) & !15
    }
}

/// Fiber-side state, touched only by the spawner (before the first
/// schedule) and by the single worker currently switching the task —
/// hand-offs are serialized through the scheduler lock.
struct FiberState {
    stack: Stack,
    /// Saved stack pointer while the task is off-CPU.
    rsp: usize,
    entry: Option<Box<dyn FnOnce() + Send + 'static>>,
}

struct Done {
    finished: bool,
    panic: Option<Box<dyn Any + Send + 'static>>,
    /// Fibers parked in `join_task`, unparked when this task finishes.
    fiber_waiters: Vec<Arc<Task>>,
}

/// One scheduled execution context: a node body or an engine service loop.
pub(crate) struct Task {
    name: String,
    fiber: UnsafeCell<FiberState>,
    /// True while the task sits in the parked set (scheduler-lock guarded).
    parked: AtomicBool,
    /// Wake token for unpark-before-park races (scheduler-lock guarded).
    notified: AtomicBool,
    /// Why the last park ended; read by the fiber after it resumes.
    timed_out: AtomicBool,
    /// Key of this task's entry in `SchedState.timers` while it is parked
    /// with a deadline (scheduler-lock guarded): at most one live timer per
    /// task, removed by whichever of notify and deadline ends the park.
    timer: Cell<Option<TimerKey>>,
    /// Worker index this task must resume on (`usize::MAX` = any): set
    /// when a task parks mid-unwind, because std's panic bookkeeping is
    /// thread-local and must unwind on the thread that started it.
    pin: AtomicUsize,
    done: Mutex<Done>,
    done_cv: Condvar,
}

// Safety: `fiber` is only touched by the spawner before the task is first
// enqueued and by the one worker currently running or switching the task;
// every hand-off between workers goes through the scheduler mutex, which
// orders those accesses. `timer` is only read or written with the scheduler
// mutex held. Every other field is an atomic, a mutex or immutable.
unsafe impl Send for Task {}
unsafe impl Sync for Task {}

impl Task {
    fn new(name: String, entry: Box<dyn FnOnce() + Send + 'static>) -> Arc<Task> {
        let task = Arc::new(Task {
            name,
            fiber: UnsafeCell::new(FiberState {
                stack: Stack::new(stack_bytes()),
                rsp: 0,
                entry: Some(entry),
            }),
            parked: AtomicBool::new(false),
            notified: AtomicBool::new(false),
            timed_out: AtomicBool::new(false),
            timer: Cell::new(None),
            pin: AtomicUsize::new(usize::MAX),
            done: Mutex::new(Done {
                finished: false,
                panic: None,
                fiber_waiters: Vec::new(),
            }),
            done_cv: Condvar::new(),
        });
        // Safety: no other reference to `fiber` exists yet.
        unsafe { task.init_frame(Arc::as_ptr(&task)) };
        task
    }

    fn check_canary(&self) {
        // Safety: called by the worker that owns the task right now.
        let fb = unsafe { &*self.fiber.get() };
        // Safety: reads the word init_frame wrote at the stack base.
        let canary = unsafe { (fb.stack.base() as *const u64).read() };
        if canary != CANARY {
            // The guard word is gone: the fiber overran its stack and
            // memory beyond it is already suspect. Nothing can be unwound
            // safely; die loudly.
            eprintln!(
                "spsim: fiber `{}` overflowed its {}-byte stack (canary clobbered); \
                 raise SPSIM_STACK_KB",
                self.name,
                fb.stack.len_bytes()
            );
            std::process::abort();
        }
    }
}

impl std::fmt::Debug for Task {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Task").field("name", &self.name).finish()
    }
}

// --------------------------------------------------------- current fiber

#[derive(Clone, Copy, PartialEq, Eq)]
enum ExitKind {
    Yield,
    Park,
    Finish,
}

thread_local! {
    /// The task currently running on this worker, if any.
    static CURRENT: RefCell<Option<Arc<Task>>> = const { RefCell::new(None) };
    /// Saved worker stack pointer while a fiber runs.
    static WORKER_RSP: Cell<usize> = const { Cell::new(0) };
    /// This worker's index (`usize::MAX` on non-worker threads).
    static WORKER_ID: Cell<usize> = const { Cell::new(usize::MAX) };
    /// Why the fiber last switched back to the worker.
    static EXIT: Cell<ExitKind> = const { Cell::new(ExitKind::Finish) };
    /// Park deadline accompanying an `ExitKind::Park` switch-back.
    static EXIT_DEADLINE: Cell<Option<Instant>> = const { Cell::new(None) };
}

/// The fiber the calling thread is currently executing, if it is one.
pub(crate) fn current_task() -> Option<Arc<Task>> {
    CURRENT.with(|c| c.borrow().clone())
}

/// Switch from the running fiber back to its worker. Returns when (if)
/// the task is next resumed, possibly on a different worker.
fn switch_to_worker(task: &Task) {
    task.check_canary();
    // Pin mid-unwind fibers to this worker: std's panic count is
    // thread-local, so an unwind that started here must finish here.
    let pin = if std::thread::panicking() {
        WORKER_ID.with(|w| w.get())
    } else {
        usize::MAX
    };
    // ordering: consumed by the worker under the scheduler lock after the
    // switch completes.
    task.pin.store(pin, Ordering::Relaxed);
    let to = WORKER_RSP.with(|c| c.get());
    // Safety: `to` is the rsp this worker saved when it switched the fiber
    // in; the save slot is the task's own, untouched until the switch.
    unsafe { spsim_ctx_switch(std::ptr::addr_of_mut!((*task.fiber.get()).rsp), to) };
}

/// Park the running fiber until [`Sched::unpark`] or `deadline`. Returns
/// true if the park ended by timeout. Must be called from a fiber.
// liveness: wakeups come from Sched::unpark (queue pushes, condvar
// notifies, joins) or from the timer map when `deadline` is set; the
// worker promotes due timers every scheduling round and fast-forwards the
// earliest one when the whole pool is quiescent.
pub(crate) fn park_current(deadline: Option<Instant>) -> bool {
    let task = current_task().or_diag("park_current outside a fiber");
    EXIT.with(|e| e.set(ExitKind::Park));
    EXIT_DEADLINE.with(|d| d.set(deadline));
    switch_to_worker(&task);
    // ordering: set by the waking worker before it handed the task back
    // through the scheduler lock.
    task.timed_out.load(Ordering::Relaxed)
}

/// Yield the running fiber to the back of the ready queue; plain
/// `std::thread::yield_now` when called from an OS thread. The scheduler-
/// aware replacement for spin-loop yields (e.g. a full delivery ring).
// liveness: pure yield — the task is immediately runnable again; the
// condition it spins on is advanced by whichever task the worker runs in
// the meantime (ring consumers drain on their own tick timers).
pub fn yield_now() {
    if current_task().is_some() {
        EXIT.with(|e| e.set(ExitKind::Yield));
        let task = current_task().or_diag("yield raced task teardown");
        switch_to_worker(&task);
    } else {
        std::thread::yield_now();
    }
}

// -------------------------------------------------------------- scheduler

/// `(deadline, push sequence)`: unique, ordered earliest-first.
type TimerKey = (Instant, u64);

struct SchedState {
    ready: VecDeque<Arc<Task>>,
    /// One entry per task parked with a deadline, so never more than `live`.
    timers: BTreeMap<TimerKey, Arc<Task>>,
    timer_seq: u64,
    /// Tasks currently executing on a worker.
    running: usize,
    /// Unfinished tasks (running + ready + parked).
    live: usize,
    /// Spawned worker threads.
    workers: usize,
    /// Workers with index >= this cap idle (test hook / lowered override).
    active_cap: usize,
    /// Workers below the cap asleep on `work_cv`. Raised and lowered under
    /// this lock around each wait, so a notifier that reads zero while
    /// holding it knows nobody can use a wake and skips the system call.
    idle: usize,
    /// Eagerly fired timers since the last external progress signal.
    fired_since_progress: usize,
    /// Progress epoch snapshot (see `PROGRESS`).
    seen_progress: u64,
    /// Work counts (all but `kernel_notifies`, see [`counters`]).
    counts: SchedCounters,
}

struct Sched {
    state: Mutex<SchedState>,
    work_cv: Condvar,
}

/// Bumped (lock-free) on every event that could unblock a parked task:
/// condvar notifies, unparks, spawns, finishes. Workers reset the eager
/// timer budget when they observe a new epoch.
static PROGRESS: AtomicU64 = AtomicU64::new(0);

/// Record that something happened which might wake a parked task. Called
/// from notify paths even when no fiber waiter was found, because the
/// state change it signals is what a parked task's next tick will observe.
pub(crate) fn note_progress() {
    // ordering: a monotonic hint, read under the scheduler lock; relaxed
    // is enough because missing one bump only delays eager firing by a
    // tick, never changes a virtual-time outcome.
    PROGRESS.fetch_add(1, Ordering::Relaxed);
}

/// Host-independent work counts of the scheduler since process start: what
/// a simulated job made the pool do, whatever the host's speed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedCounters {
    /// Fibers that switched out to park (including parks cut short by a
    /// wake token).
    pub parks: u64,
    /// [`SimCondvar`] notifies, queue pushes and joins that reached a task.
    pub wakes: u64,
    /// Fibers that switched out through [`yield_now`].
    pub yields: u64,
    /// Condvar notifies that made the system call: [`SimCondvar`]s with a
    /// plain-thread waiter, and the pool's own condvar with a worker asleep.
    pub kernel_notifies: u64,
    /// Park deadlines entered into the timer map.
    pub timers_pushed: u64,
    /// Of those, removed by a notify before they came due.
    pub timers_cancelled: u64,
}

/// The one count bumped outside the scheduler lock (after `Sched::wake`
/// has released it, and from `SimCondvar` notifies); the rest are plain
/// fields of `SchedState.counts`.
static KERNEL_NOTIFIES: AtomicU64 = AtomicU64::new(0);

fn count_kernel_notify() {
    // ordering: a statistic that publishes nothing else.
    KERNEL_NOTIFIES.fetch_add(1, Ordering::Relaxed);
}

/// Snapshot of the scheduler's work counters (each count is exact once the
/// job it describes has gone quiet).
pub fn counters() -> SchedCounters {
    SchedCounters {
        // ordering: statistics, see `count_kernel_notify`.
        kernel_notifies: KERNEL_NOTIFIES.load(Ordering::Relaxed),
        ..Sched::get().map_or_else(SchedCounters::default, |s| s.lock().counts)
    }
}

static SCHED: OnceLock<Sched> = OnceLock::new();

impl Sched {
    fn get() -> Option<&'static Sched> {
        SCHED.get()
    }

    fn global() -> &'static Sched {
        SCHED.get_or_init(|| Sched {
            state: Mutex::new(SchedState {
                ready: VecDeque::new(),
                timers: BTreeMap::new(),
                timer_seq: 0,
                running: 0,
                live: 0,
                workers: 0,
                active_cap: worker_cap(),
                idle: 0,
                fired_since_progress: 0,
                seen_progress: 0,
                counts: SchedCounters::default(),
            }),
            work_cv: Condvar::new(),
        })
    }

    fn lock(&self) -> MutexGuard<'_, SchedState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Release the scheduler lock after a change a sleeping worker must
    /// see (new ready task, earlier deadline, quiescence), and notify
    /// `work_cv` only if a worker is asleep to hear it. A worker that goes
    /// to sleep after this reads `idle` has already seen the change.
    fn wake(&self, st: MutexGuard<'_, SchedState>, all: bool) {
        let idle = st.idle;
        // Workers idled by a lowered cap wait on the same condvar and
        // would swallow a `notify_one`.
        let all = all || st.workers > st.active_cap;
        drop(st);
        if idle > 0 {
            count_kernel_notify();
            if all {
                self.work_cv.notify_all();
            } else {
                self.work_cv.notify_one();
            }
        }
    }

    /// Spawn worker threads up to `target` (never shrinks; a lowered cap
    /// just idles the excess).
    fn ensure_workers(&'static self, st: &mut SchedState, target: usize) {
        while st.workers < target {
            let wi = st.workers;
            std::thread::Builder::new()
                .name(format!("spsim-worker-{wi}"))
                .spawn(move || self.worker_loop(wi))
                .or_diag("spawn scheduler worker");
            st.workers += 1;
        }
    }

    /// Enqueue a new task on the pool.
    fn spawn_task(&'static self, task: Arc<Task>) {
        let mut st = self.lock();
        st.live += 1;
        st.active_cap = worker_cap();
        let target = st.live.clamp(1, st.active_cap);
        self.ensure_workers(&mut st, target);
        st.ready.push_back(task);
        note_progress();
        self.wake(st, false);
    }

    /// Make a parked task runnable (or leave it a wake token if it has not
    /// finished parking yet). `timed_out=false` marks a genuine notify.
    fn unpark(&self, task: &Arc<Task>) {
        let mut st = self.lock();
        st.counts.wakes += 1;
        note_progress();
        // ordering: both flags are only flipped under the scheduler lock.
        if task.parked.swap(false, Ordering::Relaxed) {
            task.timed_out.store(false, Ordering::Relaxed);
            if let Some(key) = task.timer.take() {
                st.timers.remove(&key);
                st.counts.timers_cancelled += 1;
            }
            st.ready.push_back(Arc::clone(task));
            // ordering: pin writes happen-before via the scheduler lock.
            // A pinned task can only run on one worker — wake them all so
            // the right one sees it.
            let pinned = task.pin.load(Ordering::Relaxed) != usize::MAX;
            self.wake(st, pinned);
        } else {
            // ordering: wake token is read back under the same lock.
            task.notified.store(true, Ordering::Relaxed);
        }
    }

    /// Pop the first ready task this worker may run (pin-aware).
    fn pop_ready(st: &mut SchedState, wi: usize) -> Option<Arc<Task>> {
        let idx = st.ready.iter().position(|t| {
            // ordering: pins are written before the task re-enters the
            // ready queue via the scheduler lock.
            let p = t.pin.load(Ordering::Relaxed);
            p == usize::MAX || p == wi
        })?;
        st.ready.remove(idx)
    }

    /// Take the earliest timer if it is due at `now` (`None` = whatever its
    /// deadline) and end its task's park as a timeout.
    fn pop_timer(st: &mut SchedState, now: Option<Instant>) -> Option<Arc<Task>> {
        let entry = st.timers.first_entry()?;
        if now.is_some_and(|now| entry.key().0 > now) {
            return None;
        }
        let task = entry.remove();
        task.timer.set(None);
        // ordering: flags flipped under the scheduler lock; the resumed
        // fiber observes timed_out via the lock hand-off.
        task.parked.store(false, Ordering::Relaxed);
        task.timed_out.store(true, Ordering::Relaxed);
        Some(task)
    }

    fn worker_loop(&'static self, wi: usize) {
        WORKER_ID.with(|w| w.set(wi));
        loop {
            let task = {
                let mut st = self.lock();
                loop {
                    if wi >= st.active_cap {
                        st = self.work_cv.wait(st).unwrap_or_else(|e| e.into_inner());
                        continue;
                    }
                    // ordering: a progress epoch change resets the eager
                    // budget; relaxed is fine (see note_progress).
                    let ep = PROGRESS.load(Ordering::Relaxed);
                    if ep != st.seen_progress {
                        st.seen_progress = ep;
                        st.fired_since_progress = 0;
                    }
                    let now = Instant::now();
                    while let Some(t) = Self::pop_timer(&mut st, Some(now)) {
                        st.ready.push_back(t);
                    }
                    if let Some(t) = Self::pop_ready(&mut st, wi) {
                        st.running += 1;
                        break t;
                    }
                    // Quiescent fast-forward: nothing runnable anywhere —
                    // wall sleeping cannot change the virtual outcome, so
                    // fire the earliest deadline now. The budget (one
                    // cycle of pending timers per progress signal) keeps a
                    // genuine no-progress state at wall pacing.
                    if st.running == 0
                        && st.ready.is_empty()
                        && st.fired_since_progress < st.timers.len()
                    {
                        if let Some(t) = Self::pop_timer(&mut st, None) {
                            st.fired_since_progress += 1;
                            // ordering: under the scheduler lock, as above.
                            let p = t.pin.load(Ordering::Relaxed);
                            if p == usize::MAX || p == wi {
                                st.running += 1;
                                break t;
                            }
                            st.ready.push_back(t);
                            self.wake(st, true);
                            st = self.lock();
                            continue;
                        }
                    }
                    // liveness: woken through `Sched::wake` by spawn_task,
                    // unpark, yields and earlier deadlines — each sees
                    // `idle > 0` because it is raised under the lock this
                    // wait releases — and by set_worker_cap; the earliest
                    // pending deadline bounds the sleep.
                    st.idle += 1;
                    st = match st.timers.first_key_value().map(|(k, _)| k.0) {
                        Some(d) => {
                            let left = d.saturating_duration_since(now);
                            let r = self.work_cv.wait_timeout(st, left);
                            r.unwrap_or_else(|e| e.into_inner()).0
                        }
                        None => self.work_cv.wait(st).unwrap_or_else(|e| e.into_inner()),
                    };
                    st.idle -= 1;
                }
            };
            self.run_task(task, wi);
        }
    }

    /// Switch a task in; on switch-back, apply its exit protocol. The park
    /// transition is completed *here*, on the worker side, after the
    /// fiber's context is fully saved — so a task can never be resumed by
    /// another worker while its registers are still in flight.
    fn run_task(&'static self, task: Arc<Task>, _wi: usize) {
        CURRENT.with(|c| *c.borrow_mut() = Some(Arc::clone(&task)));
        // Safety: this worker owns the task until the switch back; rsp was
        // staged by init_frame or the task's last switch-out.
        let restore = unsafe { (*task.fiber.get()).rsp };
        let save = WORKER_RSP.with(|c| c.as_ptr());
        unsafe { spsim_ctx_switch(save, restore) };
        CURRENT.with(|c| *c.borrow_mut() = None);
        let exit = EXIT.with(|e| e.get());
        let mut st = self.lock();
        st.running -= 1;
        match exit {
            ExitKind::Yield => {
                st.counts.yields += 1;
                st.ready.push_back(task);
                self.wake(st, false);
            }
            ExitKind::Park => {
                st.counts.parks += 1;
                let deadline = EXIT_DEADLINE.with(|d| d.take());
                // ordering: the wake-token handshake is serialized by the
                // scheduler lock (see Sched::unpark).
                if task.notified.swap(false, Ordering::Relaxed) {
                    // Unparked before the park completed: run again soon.
                    // ordering: still under the scheduler lock.
                    task.timed_out.store(false, Ordering::Relaxed);
                    st.ready.push_back(task);
                    self.wake(st, false);
                } else {
                    // ordering: the park flag flips under the lock that
                    // unpark and the timer pops take.
                    task.parked.store(true, Ordering::Relaxed);
                    if let Some(at) = deadline {
                        st.counts.timers_pushed += 1;
                        st.timer_seq += 1;
                        let key = (at, st.timer_seq);
                        let is_new_min = st.timers.first_key_value().is_none_or(|(k, _)| key < *k);
                        task.timer.set(Some(key));
                        st.timers.insert(key, task);
                        if is_new_min {
                            // Sleeping workers hold a stale earliest
                            // deadline; refresh them.
                            self.wake(st, true);
                        }
                    }
                }
            }
            ExitKind::Finish => {
                st.live -= 1;
                // A sleeping worker re-checks quiescence.
                self.wake(st, false);
                let waiters = {
                    let mut done = task.done.lock().unwrap_or_else(|e| e.into_inner());
                    done.finished = true;
                    std::mem::take(&mut done.fiber_waiters)
                };
                task.done_cv.notify_all();
                note_progress();
                for w in &waiters {
                    self.unpark(w);
                }
            }
        }
    }
}

// ------------------------------------------------------------ public API

/// Spawn a closure as a pooled task. Used by `spsim::runtime` for node
/// bodies and service loops; not exposed outside the crate.
pub(crate) fn spawn(name: String, f: Box<dyn FnOnce() + Send + 'static>) -> Arc<Task> {
    let task = Task::new(name, f);
    Sched::global().spawn_task(Arc::clone(&task));
    task
}

/// Wait until `task` finishes. Parks when called from a fiber, blocks on
/// the task's condvar from a plain thread (e.g. a unit test's main thread
/// dropping a context).
// liveness: the joined task's Finish transition notifies `done_cv` and
// unparks every registered fiber waiter.
pub(crate) fn join_task(task: &Arc<Task>) {
    if let Some(me) = current_task() {
        loop {
            {
                let mut done = task.done.lock().unwrap_or_else(|e| e.into_inner());
                if done.finished {
                    return;
                }
                done.fiber_waiters.push(Arc::clone(&me));
            }
            park_current(None);
        }
    } else {
        let mut done = task.done.lock().unwrap_or_else(|e| e.into_inner());
        while !done.finished {
            done = task.done_cv.wait(done).unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// Take the panic payload a finished task died with, if any.
pub(crate) fn take_panic(task: &Arc<Task>) -> Option<Box<dyn Any + Send + 'static>> {
    task.done
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .panic
        .take()
}

// -------------------------------------------------------------- condvar

/// Result of a timed [`SimCondvar`] wait (API-compatible with
/// `parking_lot::WaitTimeoutResult`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimWaitTimeoutResult(bool);

impl SimWaitTimeoutResult {
    /// Did the wait end because the timeout elapsed?
    pub fn timed_out(&self) -> bool {
        self.0
    }
}

/// Scheduler-aware condition variable.
///
/// Drop-in for `parking_lot::Condvar` at every blocking point in simulated
/// code: a fiber caller registers as a waiter and parks through the pool
/// (releasing the caller's lock via `MutexGuard::unlocked`), a plain
/// thread falls through to an ordinary condvar wait. Notifies wake one or
/// all of *both* kinds of waiter, so mixed jobs — fiber services driven by
/// a test body or harness on a plain thread — need no special-casing at
/// call sites.
///
/// A notify costs what it wakes: both kinds of waiter are counted, and a
/// notify that finds neither count raised touches no lock and makes no
/// system call (a raw condvar notify is a `futex` call even with nobody
/// asleep).
#[derive(Default)]
pub struct SimCondvar {
    raw: parking_lot::Condvar,
    /// Plain threads inside a raw wait. Raised on entry to the wait, while
    /// the caller still holds its mutex, and lowered once the wait has
    /// re-acquired it: a notifier ordered after the waiter's condition
    /// check by that mutex — the only notifier a raw condvar guarantees to
    /// deliver — therefore reads it non-zero.
    nthreads: AtomicUsize,
    fibers: Mutex<VecDeque<Arc<Task>>>,
    /// Registered fiber waiters, mirrored outside the deque lock so the
    /// (hot) notify path of a condvar with no fiber waiters — every
    /// `TimedQueue` push from a plain thread, for instance — skips the
    /// lock entirely. Incremented before the caller's mutex is released in
    /// `fiber_wait`, so a registration that happens-before a notify (via
    /// that mutex) is always visible to the notifier's load.
    nfibers: AtomicUsize,
}

impl SimCondvar {
    /// Create a new condition variable.
    pub const fn new() -> Self {
        SimCondvar {
            raw: parking_lot::Condvar::new(),
            nthreads: AtomicUsize::new(0),
            fibers: Mutex::new(VecDeque::new()),
            nfibers: AtomicUsize::new(0),
        }
    }

    /// The kernel half of a notify, skipped when no plain thread sleeps.
    fn notify_threads(&self, all: bool) {
        // ordering: SeqCst pairs with the increments in `wait`/`wait_until`.
        if self.nthreads.load(Ordering::SeqCst) == 0 {
            return;
        }
        count_kernel_notify();
        if all {
            self.raw.notify_all();
        } else {
            self.raw.notify_one();
        }
    }

    fn waiters(&self) -> std::sync::MutexGuard<'_, VecDeque<Arc<Task>>> {
        self.fibers.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Register, release the caller's lock, park; deregister on the way
    /// out whatever ended the park.
    fn fiber_wait(
        &self,
        me: Arc<Task>,
        guard_unlock: impl FnOnce(&dyn Fn() -> bool) -> bool,
        deadline: Option<Instant>,
    ) -> bool {
        {
            let mut w = self.waiters();
            // ordering: SeqCst pairs with the notify fast-path load; the
            // increment lands before the caller's mutex is released below.
            self.nfibers.fetch_add(1, Ordering::SeqCst);
            w.push_back(Arc::clone(&me));
        }
        let timed_out = guard_unlock(&|| park_current(deadline));
        // Always deregister: a park can also end spuriously (a stale wake
        // token from an earlier timed-out wait), and leaving the entry
        // behind would let a later notify_one be absorbed by a waiter that
        // already left — starving a genuine one.
        let still_registered = {
            let mut w = self.waiters();
            match w.iter().position(|t| Arc::ptr_eq(t, &me)) {
                Some(i) => {
                    w.remove(i);
                    // ordering: as at registration; the popper decrements
                    // otherwise.
                    self.nfibers.fetch_sub(1, Ordering::SeqCst);
                    true
                }
                None => false,
            }
        };
        if !still_registered && timed_out {
            // A notifier popped us concurrently with our timeout and spent
            // its notify on a waiter that is giving up — pass it on so the
            // wakeup is not lost.
            self.notify_one();
        }
        timed_out
    }

    /// Block until notified; the guard is released while waiting and
    /// re-acquired before returning.
    // liveness: woken by notify_one/notify_all from whichever task flips
    // the condition the caller re-checks in its wait loop.
    pub fn wait<T>(&self, guard: &mut parking_lot::MutexGuard<'_, T>) {
        match current_task() {
            Some(me) => {
                self.fiber_wait(
                    me,
                    |park| parking_lot::MutexGuard::unlocked(guard, park),
                    None,
                );
            }
            None => {
                // ordering: SeqCst pairs with the load in `notify_threads`;
                // the caller's mutex is held here and released only inside
                // the raw wait.
                self.nthreads.fetch_add(1, Ordering::SeqCst);
                self.raw.wait(guard);
                // ordering: as above; a late decrement costs a spare notify.
                self.nthreads.fetch_sub(1, Ordering::SeqCst);
            }
        }
    }

    /// Block until notified or `timeout` elapses.
    // liveness: notify wakeups as in `wait`; the deadline additionally
    // feeds the scheduler timer map (promoted when due or quiescent).
    pub fn wait_for<T>(
        &self,
        guard: &mut parking_lot::MutexGuard<'_, T>,
        timeout: Duration,
    ) -> SimWaitTimeoutResult {
        self.wait_until(guard, Instant::now() + timeout)
    }

    /// Block until notified or the `deadline` instant passes.
    // liveness: notify wakeups as in `wait`; the deadline additionally
    // feeds the scheduler timer map (promoted when due or quiescent).
    pub fn wait_until<T>(
        &self,
        guard: &mut parking_lot::MutexGuard<'_, T>,
        deadline: Instant,
    ) -> SimWaitTimeoutResult {
        match current_task() {
            Some(me) => {
                if deadline <= Instant::now() {
                    return SimWaitTimeoutResult(true);
                }
                let timed_out = self.fiber_wait(
                    me,
                    |park| parking_lot::MutexGuard::unlocked(guard, park),
                    Some(deadline),
                );
                SimWaitTimeoutResult(timed_out)
            }
            None => {
                // ordering: SeqCst ×2 — as in `wait`.
                self.nthreads.fetch_add(1, Ordering::SeqCst);
                let r = self.raw.wait_until(guard, deadline);
                self.nthreads.fetch_sub(1, Ordering::SeqCst);
                SimWaitTimeoutResult(r.timed_out())
            }
        }
    }

    /// Wake one waiter (fiber or thread).
    pub fn notify_one(&self) {
        // ordering: SeqCst pairs with the registration increment; a zero
        // here means no fiber registered-before this notify, so the deque
        // lock can be skipped (`notify_threads` still covers threads).
        if self.nfibers.load(Ordering::SeqCst) == 0 {
            if Sched::get().is_some() {
                // No fiber was registered yet, but a parked task's next
                // tick will observe whatever state change this signals.
                note_progress();
            }
            self.notify_threads(false);
            return;
        }
        let w = {
            let mut ws = self.waiters();
            let t = ws.pop_front();
            if t.is_some() {
                // ordering: as at registration.
                self.nfibers.fetch_sub(1, Ordering::SeqCst);
            }
            t
        };
        if let Some(t) = w {
            if let Some(s) = Sched::get() {
                s.unpark(&t);
            }
        } else if Sched::get().is_some() {
            note_progress();
        }
        self.notify_threads(false);
    }

    /// Wake all waiters (fibers and threads).
    pub fn notify_all(&self) {
        // ordering: see notify_one.
        if self.nfibers.load(Ordering::SeqCst) == 0 {
            if Sched::get().is_some() {
                note_progress();
            }
            self.notify_threads(true);
            return;
        }
        let drained: Vec<_> = {
            let mut ws = self.waiters();
            let d: Vec<_> = ws.drain(..).collect();
            // ordering: as at registration.
            self.nfibers.fetch_sub(d.len(), Ordering::SeqCst);
            d
        };
        if let Some(s) = Sched::get() {
            if drained.is_empty() {
                note_progress();
            }
            for t in &drained {
                s.unpark(t);
            }
        }
        self.notify_threads(true);
    }
}

impl std::fmt::Debug for SimCondvar {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("SimCondvar")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex as PlMutex;

    fn spawn_fn(name: &str, f: impl FnOnce() + Send + 'static) -> Arc<Task> {
        spawn(name.to_string(), Box::new(f))
    }

    #[test]
    fn env_parsers_accept_their_range_and_reject_the_rest() {
        assert_eq!(parse_workers(""), Ok(None));
        assert_eq!(parse_workers("1"), Ok(Some(1)));
        assert_eq!(parse_workers("64"), Ok(Some(64)));
        assert_eq!(parse_stack_kb(""), Ok(None));
        assert_eq!(parse_stack_kb("32"), Ok(Some(32)));
        assert_eq!(parse_stack_kb("2048"), Ok(Some(2048)));
        for (parse, var, bad) in [
            (parse_workers as fn(&str) -> _, "SPSIM_WORKERS", "0"),
            (parse_workers, "SPSIM_WORKERS", "two"),
            (parse_workers, "SPSIM_WORKERS", "-1"),
            (parse_stack_kb, "SPSIM_STACK_KB", "31"),
            (parse_stack_kb, "SPSIM_STACK_KB", "16"),
            (parse_stack_kb, "SPSIM_STACK_KB", "512k"),
        ] {
            let msg = parse(bad).expect_err(bad);
            assert!(msg.contains(var) && msg.contains(bad), "{msg}");
            assert!(msg.contains("integer ≥"), "accepted set missing: {msg}");
        }
    }

    #[test]
    fn task_runs_and_joins() {
        let hit = Arc::new(AtomicBool::new(false));
        let h2 = Arc::clone(&hit);
        let t = spawn_fn("t-basic", move || h2.store(true, Ordering::SeqCst));
        join_task(&t);
        assert!(hit.load(Ordering::SeqCst));
        assert!(t.done.lock().unwrap().finished);
        assert!(take_panic(&t).is_none());
    }

    #[test]
    fn panic_payload_is_captured() {
        let t = spawn_fn("t-panic", || panic!("fiber exploded"));
        join_task(&t);
        let p = take_panic(&t).expect("panic recorded");
        let msg = p.downcast_ref::<&str>().expect("str payload");
        assert_eq!(*msg, "fiber exploded");
    }

    #[test]
    fn many_tasks_on_one_pool_interleave() {
        let n = 64;
        let count = Arc::new(AtomicUsize::new(0));
        let tasks: Vec<_> = (0..n)
            .map(|i| {
                let c = Arc::clone(&count);
                spawn_fn(&format!("t-many-{i}"), move || {
                    for _ in 0..3 {
                        yield_now();
                    }
                    c.fetch_add(1, Ordering::SeqCst);
                })
            })
            .collect();
        for t in &tasks {
            join_task(t);
        }
        assert_eq!(count.load(Ordering::SeqCst), n);
    }

    #[test]
    fn simcondvar_handoff_between_fibers() {
        struct Board {
            m: PlMutex<u32>,
            cv: SimCondvar,
        }
        let b = Arc::new(Board {
            m: PlMutex::new(0),
            cv: SimCondvar::new(),
        });
        let (b1, b2) = (Arc::clone(&b), Arc::clone(&b));
        let consumer = spawn_fn("t-cv-consumer", move || {
            let mut v = b1.m.lock();
            while *v < 3 {
                b1.cv.wait(&mut v);
            }
        });
        let producer = spawn_fn("t-cv-producer", move || {
            for _ in 0..3 {
                *b2.m.lock() += 1;
                b2.cv.notify_one();
                yield_now();
            }
        });
        join_task(&producer);
        join_task(&consumer);
        assert_eq!(*b.m.lock(), 3);
    }

    /// Held by the test that times a quiescent pool and by the one that
    /// keeps the (process-wide) pool busy for its whole run.
    static POOL_QUIET: PlMutex<()> = PlMutex::new(());

    #[test]
    fn quiescent_pool_fast_forwards_tick_timers() {
        // A fiber whose ticks do productive work (signalled by a notify,
        // like a barrier's progress drain) would need 40 ms of wall pacing;
        // the quiescent pool fast-forwards each tick.
        let _quiet = POOL_QUIET.lock();
        let m = Arc::new(PlMutex::new(()));
        let cv = Arc::new(SimCondvar::new());
        let drained = Arc::new(SimCondvar::new());
        let (m2, cv2, d2) = (Arc::clone(&m), Arc::clone(&cv), Arc::clone(&drained));
        let started = Instant::now();
        let t = spawn_fn("t-ticker", move || {
            let mut g = m2.lock();
            for _ in 0..8 {
                let r = cv2.wait_for(&mut g, Duration::from_millis(5));
                assert!(r.timed_out());
                // The progress signal a real tick's drain would emit; it
                // re-arms the pool's eager-fire budget.
                d2.notify_one();
            }
        });
        join_task(&t);
        assert!(
            started.elapsed() < Duration::from_millis(30),
            "eager firing should beat wall pacing, took {:?}",
            started.elapsed()
        );
    }

    /// Far beyond any test's run time: a wait that reaches it lost its wakeup.
    const NEVER: Duration = Duration::from_secs(60);

    #[test]
    fn gated_notifies_lose_no_wakeup_between_thread_and_fiber() {
        // Two parties alternate on `turn`'s parity. The plain thread's
        // waits are ended by the fiber's notifies (the `nthreads` gate);
        // the fiber's parks by the thread's (the `nfibers` gate, and the
        // `idle` gate whenever the worker has meanwhile gone to sleep).
        fn take_turns(b: &(PlMutex<u32>, SimCondvar), me: u32) {
            let (m, cv) = b;
            for _ in 0..10_000 {
                let mut turn = m.lock();
                let deadline = Instant::now() + NEVER;
                while *turn % 2 != me {
                    // A fiber's wait may report an early tick (quiescent
                    // fast-forward); only the deadline itself is a timeout.
                    cv.wait_until(&mut turn, deadline);
                    assert!(Instant::now() < deadline, "lost wakeup at {}", *turn);
                }
                *turn += 1;
                drop(turn);
                cv.notify_one(); // outside the mutex, as the engines do
            }
        }
        let b = Arc::new((PlMutex::new(0), SimCondvar::new()));
        let b2 = Arc::clone(&b);
        let fiber = spawn_fn("t-mixed", move || take_turns(&b2, 1));
        take_turns(&b, 0);
        join_task(&fiber);
        assert_eq!(*b.0.lock(), 20_000);
    }

    #[test]
    fn notified_parks_leave_no_timer_behind() {
        const PARKS: u64 = 100_000;
        let _busy = POOL_QUIET.lock();
        let before = counters();
        let sleeper = spawn_fn("t-sleeper", || {
            // Until the waker exists the pool is quiescent and may end a
            // park by an early tick; only notified parks count.
            let mut notified = 0;
            while notified < PARKS {
                if !park_current(Some(Instant::now() + NEVER)) {
                    notified += 1;
                }
            }
        });
        let s2 = Arc::clone(&sleeper);
        let waker = spawn_fn("t-waker", move || {
            for _ in 0..PARKS {
                // ordering: a hint only — unpark re-reads it under the lock.
                while !s2.parked.load(Ordering::Relaxed) {
                    yield_now(); // keeps the pool non-quiescent: no early tick
                }
                Sched::global().unpark(&s2);
            }
        });
        join_task(&waker);
        join_task(&sleeper);
        let after = counters();
        assert!(after.timers_pushed - before.timers_pushed >= PARKS);
        assert!(after.timers_cancelled - before.timers_cancelled >= PARKS);
        // Each entry left with the park that pushed it, so only tasks
        // parked right now (other tests') can hold one.
        let st = Sched::global().lock();
        assert!(
            st.timers.len() <= st.live,
            "{} > {}",
            st.timers.len(),
            st.live
        );
    }

    #[test]
    fn simcondvar_wait_from_plain_thread_still_works() {
        let m = PlMutex::new(());
        let cv = SimCondvar::new();
        let mut g = m.lock();
        assert!(cv.wait_for(&mut g, Duration::from_millis(2)).timed_out());
    }
}
