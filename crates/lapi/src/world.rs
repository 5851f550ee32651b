//! Job setup: `LAPI_Init` for all tasks at once.
//!
//! A parallel job is created with [`LapiWorld::init`], which wires an
//! `n`-node simulated switch, builds one [`LapiContext`] per task, and
//! starts each task's dispatcher and completion services. The contexts are
//! then moved into node tasks (see `spsim::run_spmd_with`).

use std::sync::Arc;
use std::time::Duration;

use spsim::barrier::Exchange;
use spsim::{MachineConfig, VBarrier, VDur};
use spswitch::Network;

use crate::context::{LapiContext, Mode};
use crate::engine::Engine;
use crate::wire::LapiBody;

/// LAPI's software cost per barrier round.
const BARRIER_SW: VDur = VDur::from_us(13);

/// Builder/entry point for a LAPI job.
pub struct LapiWorld;

impl LapiWorld {
    /// `LAPI_Init` for an `n`-task job over a fresh simulated switch.
    /// Returns one context per task, in rank order.
    pub fn init(n: usize, cfg: MachineConfig, mode: Mode) -> Vec<LapiContext> {
        Self::init_seeded(n, cfg, mode, 0x5A17_C0DE)
    }

    /// As [`LapiWorld::init`] with an explicit route/drop seed.
    pub fn init_seeded(n: usize, cfg: MachineConfig, mode: Mode, seed: u64) -> Vec<LapiContext> {
        Self::init_full(n, cfg, mode, seed, Duration::from_secs(30))
    }

    /// Full-control init: `escape` bounds real blocking time before a
    /// simulated deadlock panics (tests of deadlocking programs shrink it).
    pub fn init_full(
        n: usize,
        cfg: MachineConfig,
        mode: Mode,
        seed: u64,
        escape: Duration,
    ) -> Vec<LapiContext> {
        Self::init_ext(n, cfg, mode, seed, escape, 1)
    }

    /// As [`LapiWorld::init_full`] with `completion_threads` completion-
    /// handler threads per node — the §6 "multiple completion handler
    /// threads" extension for SMP nodes (the paper's machine ran one).
    pub fn init_ext(
        n: usize,
        cfg: MachineConfig,
        mode: Mode,
        seed: u64,
        escape: Duration,
        completion_threads: usize,
    ) -> Vec<LapiContext> {
        assert!(
            completion_threads >= 1,
            "need at least one completion thread"
        );
        let cfg = Arc::new(cfg);
        let net: Network<LapiBody> = Network::new(n, Arc::clone(&cfg), seed);
        let bcost = VBarrier::dissemination_cost(&cfg, n, BARRIER_SW);
        let barrier = VBarrier::new(n, bcost);
        let exchange = Arc::new(Exchange::new(n, bcost));
        net.into_adapters()
            .into_iter()
            .map(|ad| {
                let engine = Engine::new(ad, mode, escape);
                let e = Arc::clone(&engine);
                engine
                    .progress
                    .start_service(format!("lapi-disp-{}", e.id()), move || {
                        e.progress.dispatcher_loop(&*e)
                    });
                for k in 0..completion_threads {
                    let e = Arc::clone(&engine);
                    engine
                        .progress
                        .start_service(format!("lapi-cmpl-{}-{k}", e.id()), move || {
                            e.completion_loop()
                        });
                }
                LapiContext {
                    engine,
                    barrier: barrier.clone(),
                    exchange: Arc::clone(&exchange),
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spsim::VClock;

    #[test]
    fn init_builds_rank_ordered_contexts() {
        let ctxs = LapiWorld::init(3, MachineConfig::default(), Mode::Interrupt);
        for (i, c) in ctxs.iter().enumerate() {
            assert_eq!(c.id(), i);
            assert_eq!(c.tasks(), 3);
        }
    }

    #[test]
    fn barrier_cost_scales_logarithmically() {
        let cfg = MachineConfig::default();
        let c2 = VBarrier::dissemination_cost(&cfg, 2, BARRIER_SW);
        let c8 = VBarrier::dissemination_cost(&cfg, 8, BARRIER_SW);
        let c512 = VBarrier::dissemination_cost(&cfg, 512, BARRIER_SW);
        assert!(c2 < c8 && c8 < c512);
        assert_eq!(c8, c2 * 3);
    }

    #[test]
    fn exchange_returns_everyones_value() {
        let ex = Exchange::new(4, VDur::from_us(1));
        let clocks: Vec<VClock> = (0..4).map(|_| VClock::new()).collect();
        let results: Vec<Vec<u64>> = std::thread::scope(|s| {
            let handles: Vec<_> = clocks
                .iter()
                .enumerate()
                .map(|(i, cl)| {
                    let ex = &ex;
                    s.spawn(move || ex.exchange(cl, i, 100 + i as u64))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for r in &results {
            assert_eq!(r, &vec![100, 101, 102, 103]);
        }
    }
}
