//! Job setup for the MPL baseline.

use std::sync::Arc;
use std::time::Duration;

use spsim::barrier::Exchange;
use spsim::{MachineConfig, VBarrier, VDur};
use spswitch::Network;

use crate::context::{MplContext, MplMode};
use crate::engine::MplEngine;
use crate::wire::MplBody;

/// MPL's software cost per barrier round.
const BARRIER_SW: VDur = VDur::from_us(15);

/// Builder/entry point for an MPL job.
pub struct MplWorld;

impl MplWorld {
    /// Create an `n`-task MPL job over a fresh simulated switch.
    pub fn init(n: usize, cfg: MachineConfig, mode: MplMode) -> Vec<MplContext> {
        Self::init_seeded(n, cfg, mode, 0x3B3A_CA5E)
    }

    /// As [`MplWorld::init`] with an explicit route/drop seed.
    pub fn init_seeded(n: usize, cfg: MachineConfig, mode: MplMode, seed: u64) -> Vec<MplContext> {
        Self::init_full(n, cfg, mode, seed, Duration::from_secs(30))
    }

    /// Full-control init (short `escape` for deadlock tests).
    pub fn init_full(
        n: usize,
        cfg: MachineConfig,
        mode: MplMode,
        seed: u64,
        escape: Duration,
    ) -> Vec<MplContext> {
        let cfg = Arc::new(cfg);
        let net: Network<MplBody> = Network::new(n, Arc::clone(&cfg), seed);
        let bcost = VBarrier::dissemination_cost(&cfg, n, BARRIER_SW);
        let barrier = VBarrier::new(n, bcost);
        let exchange = Arc::new(Exchange::new(n, bcost));
        net.into_adapters()
            .into_iter()
            .map(|ad| {
                let engine = MplEngine::new(ad, mode, escape);
                let e = Arc::clone(&engine);
                engine
                    .progress
                    .start_service(format!("mpl-disp-{}", e.id()), move || {
                        e.progress.dispatcher_loop(&*e)
                    });
                MplContext {
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

    #[test]
    fn init_builds_contexts() {
        let ctxs = MplWorld::init(4, MachineConfig::default(), MplMode::Polling);
        for (i, c) in ctxs.iter().enumerate() {
            assert_eq!(c.id(), i);
            assert_eq!(c.tasks(), 4);
        }
    }
}
