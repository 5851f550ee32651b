// lint-as: crates/sim/src/sched.rs
//! Fixture: clean under A4 — the identical thread primitives are legal in
//! `spsim::sched`, the one sanctioned home for OS threads.

use std::thread::JoinHandle;

pub struct ServiceHandle {
    inner: JoinHandle<()>,
}

pub fn spawn_service(f: impl FnOnce() + Send + 'static) -> JoinHandle<()> {
    std::thread::spawn(f)
}
