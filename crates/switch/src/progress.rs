//! The progress driver under both libraries (paper §2.1).
//!
//! LAPI and MPL make progress the same way: in **interrupt** mode a
//! dispatcher service receives arriving packets unbidden; in **polling**
//! mode packets are processed only inside library calls, by the caller
//! running the dispatcher inline. [`Progress`] owns that machinery once for
//! both — the mode and its condvar, the termination latch, the engine
//! services and their join, the dispatcher, and the one blocking [`wait`]
//! — and each library plugs in as a [`Protocol`]: what one packet does,
//! what an interrupt costs, and what its deadlock report shows.
//!
//! Every real-time wait of both libraries lives in this file. A blocked
//! wait is bounded by the driver's single `escape` of host time; past it,
//! the wait panics with "simulated deadlock" and the engine's state. The
//! ticks below bound how long a parked service or polling wait sleeps on
//! real time before re-checking; neither reaches virtual time.
//!
//! [`wait`]: Progress::wait

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use spsim::{trace, ServiceHandle, SimCondvar, Stamped, TimedQueue};

use crate::{Adapter, WirePacket};

/// Progress mode (§2.1): the typical mode is interrupt; polling avoids the
/// interrupt cost but requires the target to make library calls for
/// progress.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Arriving packets interrupt the node; the dispatcher runs unbidden.
    Interrupt,
    /// Progress happens only inside library calls.
    Polling,
}

/// How long a polling wait blocks on real time for the next packet before
/// re-checking its condition and the escape.
const POLL_TICK: Duration = Duration::from_millis(2);

/// How often a parked service re-checks the mode and termination.
const DISPATCH_TICK: Duration = Duration::from_millis(10);

/// One library's packet handling, driven by [`Progress`].
pub trait Protocol<B>: Sync {
    /// Process one arrived packet: merge its stamp into the node clock,
    /// charge the dispatch cost, act on the body.
    fn on_packet(&self, s: Stamped<WirePacket<B>>);

    /// Interrupt mode only: runs before [`Protocol::on_packet`] for each
    /// packet the dispatcher receives. Returning `false` consumes the
    /// packet without processing it and stops the dispatcher.
    fn on_interrupt(&self, _s: &Stamped<WirePacket<B>>) -> bool {
        true
    }

    /// The library's state lines for a deadlock report, each ending in a
    /// newline.
    fn report(&self) -> String;
}

/// One node's progress driver (see module docs).
pub struct Progress<B> {
    adapter: Adapter<B>,
    mode: Mutex<Mode>,
    mode_cv: SimCondvar,
    terminated: AtomicBool,
    escape: Duration,
    services: Mutex<Vec<ServiceHandle>>,
}

impl<B: Send + Clone + 'static> Progress<B> {
    /// A driver over `adapter` starting in `mode`; `escape` bounds the host
    /// time any one wait may block before it is declared a deadlock.
    pub fn new(adapter: Adapter<B>, mode: Mode, escape: Duration) -> Self {
        Progress {
            adapter,
            mode: Mutex::new(mode),
            mode_cv: SimCondvar::new(),
            terminated: AtomicBool::new(false),
            escape,
            services: Mutex::new(Vec::new()),
        }
    }

    /// The node's adapter.
    pub fn adapter(&self) -> &Adapter<B> {
        &self.adapter
    }

    /// Current progress mode.
    pub fn mode(&self) -> Mode {
        *self.mode.lock()
    }

    /// Switch progress mode (wakes a dispatcher parked in polling mode).
    pub fn set_mode(&self, mode: Mode) {
        *self.mode.lock() = mode;
        self.mode_cv.notify_all();
    }

    /// Has [`Progress::terminate`] run?
    pub fn is_terminated(&self) -> bool {
        // ordering: Acquire pairs with the AcqRel swap in `terminate`, so
        // observers of the flag also see the closed queue.
        self.terminated.load(Ordering::Acquire)
    }

    /// Latch termination, close the adapter's receive queue and wake the
    /// services so they exit. Returns `false` if already terminated.
    pub fn terminate(&self) -> bool {
        // ordering: AcqRel — the first caller wins the latch; the loops'
        // Acquire load sees every write made before it.
        if self.terminated.swap(true, Ordering::AcqRel) {
            return false;
        }
        self.adapter.shutdown();
        self.mode_cv.notify_all();
        true
    }

    /// Start an engine service (dispatcher, completion handler); it is
    /// joined by [`Progress::join_services`].
    pub fn start_service(&self, name: String, f: impl FnOnce() + Send + 'static) {
        let h = spsim::spawn_service(name, f);
        self.services.lock().push(h);
    }

    /// Join every service (after [`Progress::terminate`]). With
    /// `propagate`, a service's panic resumes on the caller, unless the
    /// caller is already unwinding.
    pub fn join_services(&self, propagate: bool) {
        let services = std::mem::take(&mut *self.services.lock());
        for h in services {
            if let Err(p) = h.join() {
                if propagate && !std::thread::panicking() {
                    std::panic::resume_unwind(p);
                }
            }
        }
    }

    /// The deadlock diagnostic: node, mode and `what`, the protocol's
    /// state, queue depth, clock, flows and the trace tail.
    pub fn deadlock_report(&self, proto: &impl Protocol<B>, what: &str) -> String {
        format!(
            "node {} ({:?} mode): {what}\n{}rx-queue depth: {} clock: {}ns\n{}{}",
            self.adapter.id(),
            self.mode(),
            proto.report(),
            self.adapter.rx().len(),
            self.adapter.clock().now().as_ns(),
            self.adapter.flows_report(),
            trace::tail_report(trace::REPORT_TAIL)
        )
    }

    #[cold]
    fn escaped(&self, proto: &impl Protocol<B>, what: fmt::Arguments<'_>) -> ! {
        let hint = match self.mode() {
            Mode::Polling => " (is the peer polling?)",
            Mode::Interrupt => "",
        };
        panic!(
            "{}",
            self.deadlock_report(
                proto,
                &format!(
                    "{what} made no progress for {:?} of real time — simulated deadlock{hint}",
                    self.escape
                )
            )
        )
    }

    /// Block until `ready` yields a value from the state behind `lock`.
    ///
    /// In polling mode each round checks `ready`, then runs one
    /// `poll_step` (ACKs pumped, then one packet received and
    /// processed). In interrupt mode the caller parks on `cv` — the waited
    /// state's own condvar, which whoever changes that state notifies —
    /// while holding `lock`. `ready` runs under `lock` and may consume what
    /// it finds. Past the escape, panics with "simulated deadlock",
    /// `what` and the protocol's report.
    pub fn wait<T, R>(
        &self,
        proto: &impl Protocol<B>,
        what: fmt::Arguments<'_>,
        lock: &Mutex<T>,
        cv: &SimCondvar,
        mut ready: impl FnMut(&mut T) -> Option<R>,
    ) -> R {
        let mut deadline = None;
        let mut deadline = || *deadline.get_or_insert_with(|| Instant::now() + self.escape);
        match self.mode() {
            Mode::Polling => {
                // liveness: poll_step runs the dispatcher inline, so this
                // caller produces the state changes it waits for; silence
                // past the escape panics.
                loop {
                    if let Some(r) = ready(&mut lock.lock()) {
                        return r;
                    }
                    let d = deadline();
                    if !self.poll_step(proto) && Instant::now() > d {
                        self.escaped(proto, what);
                    }
                }
            }
            Mode::Interrupt => {
                let mut g = lock.lock();
                // liveness: whoever changes the state — the dispatcher or
                // completion service, a peer-death unwind — notifies `cv`
                // under `lock`; the escape deadline bounds the park.
                loop {
                    if let Some(r) = ready(&mut g) {
                        return r;
                    }
                    if cv.wait_until(&mut g, deadline()).timed_out() {
                        drop(g);
                        self.escaped(proto, what);
                    }
                }
            }
        }
    }

    /// One polling step: pump due ACKs, then receive one packet (blocking
    /// for at most a tick of real time) and process it. Returns `false`
    /// when the tick passed with nothing to do.
    // liveness: recv_timeout wakes on every packet the switch delivers to
    // this node and otherwise returns after POLL_TICK; the caller's escape
    // deadline bounds the loop around it.
    fn poll_step(&self, proto: &impl Protocol<B>) -> bool {
        self.adapter.pump(self.adapter.clock().now());
        match self.adapter.rx().recv_timeout(POLL_TICK) {
            Ok(Some(s)) => {
                proto.on_packet(s);
                true
            }
            Ok(None) => false,
            Err(_) => spsim::sim_panic!("adapter receive queue closed while waiting for progress"),
        }
    }

    /// The interrupt-mode dispatcher service: park while polling, else
    /// receive, run the interrupt hook and process each packet, draining
    /// the backlog without a fresh wake-up, then pump due ACKs.
    pub fn dispatcher_loop(&self, proto: &impl Protocol<B>) {
        // liveness: recv_timeout wakes on every arriving packet and every
        // DISPATCH_TICK; mode_cv is notified on mode flips; terminate()
        // closes the rx queue, observed by the re-checks below.
        loop {
            if self.is_terminated() {
                return;
            }
            {
                let mut mode = self.mode.lock();
                if *mode == Mode::Polling {
                    self.mode_cv.wait_for(&mut mode, DISPATCH_TICK);
                    continue;
                }
            }
            let first = match self.adapter.rx().recv_timeout(DISPATCH_TICK) {
                Err(_) => return, // queue closed: job over
                Ok(None) => continue,
                Ok(Some(s)) => s,
            };
            let mut next = Some(first);
            while let Some(s) = next {
                if !proto.on_interrupt(&s) {
                    return;
                }
                proto.on_packet(s);
                next = self.adapter.rx().try_recv().ok().flatten();
            }
            self.adapter.pump(self.adapter.clock().now());
        }
    }

    /// Idle receive for a service's own work queue: blocks a tick of real
    /// time at a time, and returns `None` once the queue is closed or the
    /// driver terminated.
    pub fn idle_recv<T>(&self, q: &TimedQueue<T>) -> Option<Stamped<T>> {
        // liveness: recv_timeout wakes on every push and every
        // DISPATCH_TICK; terminate() is re-checked on each tick, and
        // closing the queue ends the wait.
        loop {
            match q.recv_timeout(DISPATCH_TICK) {
                Ok(Some(s)) => return Some(s),
                Ok(None) if !self.is_terminated() => continue,
                _ => return None,
            }
        }
    }
}
