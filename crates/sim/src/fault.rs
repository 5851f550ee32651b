//! Deterministic fault-injection plans for the switch fabric.
//!
//! A [`FaultPlan`] scripts *where* and *when* the fabric misbehaves:
//! per-link drop/duplicate probabilities that override the global
//! [`crate::MachineConfig::drop_prob`]/`dup_prob`, plus black-hole windows
//! ("link 0→2 loses everything in [5ms, 8ms)"). The plan itself holds no
//! randomness — probabilities are resolved against the adapter's seeded
//! [`crate::SimRng`], and windows are resolved against virtual time — so a
//! faulted run is exactly as reproducible as a clean one: same seed, same
//! plan, same timeline.
//!
//! An empty plan (the default) costs nothing: the adapter's reliability
//! protocol only arms its ACK/retransmit machinery when the effective
//! configuration can actually lose or duplicate a packet.

use crate::runtime::NodeId;
use crate::time::VTime;

/// Per-link fault probabilities (overriding the global config for one
/// directed link).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkFaults {
    /// Probability that a data packet on this link is lost in the fabric.
    pub drop_prob: f64,
    /// Probability that a delivered data packet is duplicated by the fabric
    /// (the copy reaches the destination and must be suppressed).
    pub dup_prob: f64,
}

impl LinkFaults {
    /// A perfectly clean link.
    pub const NONE: LinkFaults = LinkFaults {
        drop_prob: 0.0,
        dup_prob: 0.0,
    };
}

/// A scripted interval during which a directed link black-holes every
/// packet, deterministically (no dice): `from <= t < until`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultWindow {
    /// Sending side of the affected link.
    pub src: NodeId,
    /// Receiving side of the affected link.
    pub dst: NodeId,
    /// First virtual instant of the outage (inclusive).
    pub from: VTime,
    /// End of the outage (exclusive). Use [`VTime::MAX`] for a link that
    /// never comes back ("link dead").
    pub until: VTime,
}

/// A scripted *node-level* fault: the whole node misbehaves, not one of
/// its links. Node faults compose with link faults through
/// [`FaultPlan::black_holed`]: a crashed or stalled endpoint black-holes
/// every link touching it, so the adapter's existing loss path handles
/// detection and the retransmit budget handles declaring the peer dead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeFault {
    /// Crash-stop at `at`: the node's adapter stops ejecting *and*
    /// injecting from `at` onward and never recovers.
    Crash {
        /// The faulted node.
        node: NodeId,
        /// First virtual instant of the crash (inclusive, forever after).
        at: VTime,
    },
    /// The node makes no protocol progress in `[from, until)` but
    /// recovers: packets in the window are lost (and retransmitted by
    /// peers), packets after it flow normally.
    Stall {
        /// The faulted node.
        node: NodeId,
        /// First stalled instant (inclusive).
        from: VTime,
        /// End of the stall (exclusive).
        until: VTime,
    },
    /// Every byte the node serializes onto or off the wire costs
    /// `factor`× the configured wire time — a degraded-but-alive node.
    Slow {
        /// The faulted node.
        node: NodeId,
        /// Cost multiplier (≥ 1).
        factor: u32,
    },
}

/// A deterministic script of fabric misbehaviour.
///
/// Built with the `with_*` builders and handed to the machine via
/// [`crate::MachineConfig::with_faults`]. See the crate-level notes on
/// determinism.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    overrides: Vec<(NodeId, NodeId, LinkFaults)>,
    windows: Vec<FaultWindow>,
    node_faults: Vec<NodeFault>,
}

impl FaultPlan {
    /// An empty plan: the fabric behaves exactly as the global config says.
    pub fn new() -> Self {
        Self::default()
    }

    /// No overrides, no windows, and no node faults? A non-empty plan arms
    /// the adapter's reliability machinery (see
    /// [`crate::MachineConfig::reliability_armed`]).
    pub fn is_empty(&self) -> bool {
        self.overrides.is_empty() && self.windows.is_empty() && self.node_faults.is_empty()
    }

    /// Builder: override the fault probabilities of the directed link
    /// `src → dst`. A later override of the same link replaces the earlier.
    pub fn with_link(mut self, src: NodeId, dst: NodeId, faults: LinkFaults) -> Self {
        assert!(
            (0.0..1.0).contains(&faults.drop_prob),
            "drop probability must be in [0,1)"
        );
        assert!(
            (0.0..=1.0).contains(&faults.dup_prob),
            "duplicate probability must be in [0,1]"
        );
        self.overrides.retain(|&(s, d, _)| (s, d) != (src, dst));
        self.overrides.push((src, dst, faults));
        self
    }

    /// Builder: black-hole every packet on `src → dst` whose fabric transit
    /// falls in `[from, until)`.
    pub fn with_black_hole(mut self, src: NodeId, dst: NodeId, from: VTime, until: VTime) -> Self {
        assert!(from < until, "black-hole window must be non-empty");
        self.windows.push(FaultWindow {
            src,
            dst,
            from,
            until,
        });
        self
    }

    /// Builder: the directed link `src → dst` dies at `from` and never
    /// recovers — every later packet is lost until the sender's bounded
    /// retries give up with a delivery timeout.
    pub fn with_link_dead(self, src: NodeId, dst: NodeId, from: VTime) -> Self {
        self.with_black_hole(src, dst, from, VTime::MAX)
    }

    /// Builder: crash-stop `node` at `at` — its adapter stops ejecting and
    /// injecting from `at` onward, forever. A later crash of the same node
    /// replaces the earlier one.
    pub fn with_crash(mut self, node: NodeId, at: VTime) -> Self {
        self.node_faults
            .retain(|f| !matches!(f, NodeFault::Crash { node: n, .. } if *n == node));
        self.node_faults.push(NodeFault::Crash { node, at });
        self
    }

    /// Builder: `node` makes no protocol progress in `[from, until)` but
    /// recovers afterwards.
    pub fn with_stall(mut self, node: NodeId, from: VTime, until: VTime) -> Self {
        assert!(from < until, "stall window must be non-empty");
        self.node_faults
            .push(NodeFault::Stall { node, from, until });
        self
    }

    /// Builder: every byte `node` serializes on or off the wire costs
    /// `factor`× the configured wire time. A later factor for the same
    /// node replaces the earlier one.
    pub fn with_slow(mut self, node: NodeId, factor: u32) -> Self {
        assert!(factor >= 1, "slow factor must be ≥ 1");
        self.node_faults
            .retain(|f| !matches!(f, NodeFault::Slow { node: n, .. } if *n == node));
        self.node_faults.push(NodeFault::Slow { node, factor });
        self
    }

    /// The virtual instant `node` crash-stops, if the plan crashes it.
    pub fn crash_time(&self, node: NodeId) -> Option<VTime> {
        self.node_faults.iter().find_map(|f| match f {
            NodeFault::Crash { node: n, at } if *n == node => Some(*at),
            _ => None,
        })
    }

    /// Is `node` crash-stopped at virtual time `at`?
    pub fn crashed(&self, node: NodeId, at: VTime) -> bool {
        self.crash_time(node).is_some_and(|t| t <= at)
    }

    /// Is `node` inside a stall window at virtual time `at`?
    pub fn stalled(&self, node: NodeId, at: VTime) -> bool {
        self.node_faults.iter().any(|f| {
            matches!(f, NodeFault::Stall { node: n, from, until }
                if *n == node && *from <= at && at < *until)
        })
    }

    /// The wire-cost multiplier for `node` (1 when the plan does not slow
    /// it).
    pub fn slow_factor(&self, node: NodeId) -> u32 {
        self.node_faults
            .iter()
            .find_map(|f| match f {
                NodeFault::Slow { node: n, factor } if *n == node => Some(*factor),
                _ => None,
            })
            .unwrap_or(1)
    }

    /// All node faults, in builder order.
    pub fn node_faults(&self) -> &[NodeFault] {
        &self.node_faults
    }

    /// The deterministic survivor set of an `n`-node world: every node the
    /// plan never crashes. The crash *schedule* — not any runtime
    /// observation — is the membership ground truth, so every rank computes
    /// the same set regardless of when it asks.
    pub fn survivors(&self, n: usize) -> Vec<NodeId> {
        (0..n).filter(|&id| self.crash_time(id).is_none()).collect()
    }

    /// The per-link override for `src → dst`, if any.
    pub fn link(&self, src: NodeId, dst: NodeId) -> Option<LinkFaults> {
        self.overrides
            .iter()
            .find(|&&(s, d, _)| (s, d) == (src, dst))
            .map(|&(_, _, f)| f)
    }

    /// Is the directed link `src → dst` unable to carry a packet at `at`?
    /// True inside a scripted black-hole window, and also whenever either
    /// endpoint is crashed or stalled at `at` — node faults black-hole
    /// every link touching the node, which is how they compose with the
    /// adapter's existing loss/retransmit path.
    pub fn black_holed(&self, src: NodeId, dst: NodeId, at: VTime) -> bool {
        self.windows
            .iter()
            .any(|w| w.src == src && w.dst == dst && w.from <= at && at < w.until)
            || self.crashed(src, at)
            || self.crashed(dst, at)
            || self.stalled(src, at)
            || self.stalled(dst, at)
    }

    /// Can the directed link `src → dst` ever black-hole — by a scripted
    /// window, or because an endpoint crashes or stalls at some point?
    /// Used to decide whether a link can ever misbehave.
    pub fn has_windows(&self, src: NodeId, dst: NodeId) -> bool {
        self.windows.iter().any(|w| w.src == src && w.dst == dst)
            || self.node_faults.iter().any(|f| match f {
                NodeFault::Crash { node, .. } | NodeFault::Stall { node, .. } => {
                    *node == src || *node == dst
                }
                NodeFault::Slow { .. } => false,
            })
    }

    /// All per-link overrides, in builder order.
    pub fn overrides(&self) -> &[(NodeId, NodeId, LinkFaults)] {
        &self.overrides
    }

    /// All black-hole windows, in builder order.
    pub fn windows(&self) -> &[FaultWindow] {
        &self.windows
    }

    /// Serialize the plan as a line-based text block for replay artifacts:
    ///
    /// ```text
    /// link 0 2 0.25 0.1
    /// window 0 2 5000000 8000000
    /// window 1 0 1000 inf
    /// crash 3 2000000
    /// stall 1 500000 900000
    /// slow 2 4
    /// ```
    ///
    /// (`link` fields are `src dst drop_prob dup_prob`; `window` fields are
    /// `src dst from_ns until_ns`, with `inf` for a link that never comes
    /// back; `crash` is `node at_ns`, `stall` is `node from_ns until_ns`,
    /// `slow` is `node factor`.) Rust's shortest-round-trip float
    /// formatting makes the serialization lossless: [`FaultPlan::parse`]
    /// reconstructs an equal plan.
    pub fn serialize(&self) -> String {
        let mut out = String::new();
        for &(src, dst, f) in &self.overrides {
            out.push_str(&format!(
                "link {src} {dst} {} {}\n",
                f.drop_prob, f.dup_prob
            ));
        }
        for w in &self.windows {
            let until = if w.until == VTime::MAX {
                "inf".to_string()
            } else {
                w.until.as_ns().to_string()
            };
            out.push_str(&format!(
                "window {} {} {} {until}\n",
                w.src,
                w.dst,
                w.from.as_ns()
            ));
        }
        for f in &self.node_faults {
            match *f {
                NodeFault::Crash { node, at } => {
                    out.push_str(&format!("crash {node} {}\n", at.as_ns()));
                }
                NodeFault::Stall { node, from, until } => {
                    out.push_str(&format!(
                        "stall {node} {} {}\n",
                        from.as_ns(),
                        until.as_ns()
                    ));
                }
                NodeFault::Slow { node, factor } => {
                    out.push_str(&format!("slow {node} {factor}\n"));
                }
            }
        }
        out
    }

    /// Parse the text produced by [`FaultPlan::serialize`]. Blank lines and
    /// `#` comments are ignored.
    pub fn parse(text: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::new();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let err = |what: &str| format!("fault plan line {}: {what}: {raw:?}", lineno + 1);
            let fields: Vec<&str> = line.split_whitespace().collect();
            match fields.as_slice() {
                ["link", src, dst, drop, dup] => {
                    let src: NodeId = src.parse().map_err(|_| err("bad src"))?;
                    let dst: NodeId = dst.parse().map_err(|_| err("bad dst"))?;
                    let drop_prob: f64 = drop.parse().map_err(|_| err("bad drop_prob"))?;
                    let dup_prob: f64 = dup.parse().map_err(|_| err("bad dup_prob"))?;
                    if !(0.0..1.0).contains(&drop_prob) || !(0.0..=1.0).contains(&dup_prob) {
                        return Err(err("probability out of range"));
                    }
                    plan = plan.with_link(
                        src,
                        dst,
                        LinkFaults {
                            drop_prob,
                            dup_prob,
                        },
                    );
                }
                ["window", src, dst, from, until] => {
                    let src: NodeId = src.parse().map_err(|_| err("bad src"))?;
                    let dst: NodeId = dst.parse().map_err(|_| err("bad dst"))?;
                    let from_ns: u64 = from.parse().map_err(|_| err("bad from"))?;
                    let from = VTime::from_ns(from_ns);
                    let until = if *until == "inf" {
                        VTime::MAX
                    } else {
                        VTime::from_ns(until.parse().map_err(|_| err("bad until"))?)
                    };
                    if from >= until {
                        return Err(err("empty window"));
                    }
                    plan = plan.with_black_hole(src, dst, from, until);
                }
                ["crash", node, at] => {
                    let node: NodeId = node.parse().map_err(|_| err("bad node"))?;
                    let at_ns: u64 = at.parse().map_err(|_| err("bad crash time"))?;
                    plan = plan.with_crash(node, VTime::from_ns(at_ns));
                }
                ["stall", node, from, until] => {
                    let node: NodeId = node.parse().map_err(|_| err("bad node"))?;
                    let from_ns: u64 = from.parse().map_err(|_| err("bad from"))?;
                    let until_ns: u64 = until.parse().map_err(|_| err("bad until"))?;
                    if from_ns >= until_ns {
                        return Err(err("empty stall window"));
                    }
                    plan = plan.with_stall(node, VTime::from_ns(from_ns), VTime::from_ns(until_ns));
                }
                ["slow", node, factor] => {
                    let node: NodeId = node.parse().map_err(|_| err("bad node"))?;
                    let factor: u32 = factor.parse().map_err(|_| err("bad factor"))?;
                    if factor == 0 {
                        return Err(err("slow factor must be ≥ 1"));
                    }
                    plan = plan.with_slow(node, factor);
                }
                _ => return Err(err("unrecognized directive")),
            }
        }
        Ok(plan)
    }
}

/// The env-selected fault profile applied to [`crate::MachineConfig`]
/// defaults, so a whole test run can be pushed through a lossy fabric:
/// `SPSIM_FAULT_PROFILE=lossy cargo test`. Tests that calibrate exact
/// timings opt out with [`crate::MachineConfig::with_no_faults`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultProfile {
    /// Clean fabric (the built-in default).
    Lossless,
    /// Moderate adversity: 10% drop, 2% duplication on every link.
    Lossy,
    /// Heavy adversity: 30% drop, 10% duplication on every link.
    Chaos,
}

impl FaultProfile {
    /// A `SPSIM_FAULT_PROFILE` value; empty means unset (CI passes `""`).
    pub fn parse(v: &str) -> Result<FaultProfile, String> {
        match v {
            "" | "lossless" => Ok(FaultProfile::Lossless),
            "lossy" => Ok(FaultProfile::Lossy),
            "chaos" => Ok(FaultProfile::Chaos),
            _ => Err(format!(
                "SPSIM_FAULT_PROFILE={v:?} is not accepted: expected lossless, lossy or chaos, \
                 or empty for lossless"
            )),
        }
    }

    /// Read `SPSIM_FAULT_PROFILE` once per process. Unset means
    /// [`FaultProfile::Lossless`]; an unrecognized value panics.
    pub fn from_env() -> FaultProfile {
        use std::sync::OnceLock;
        static PROFILE: OnceLock<FaultProfile> = OnceLock::new();
        *PROFILE.get_or_init(|| {
            crate::config::env_knob("SPSIM_FAULT_PROFILE", FaultProfile::parse)
                .unwrap_or(FaultProfile::Lossless)
        })
    }

    /// The global (drop, dup) probabilities this profile injects.
    pub fn probabilities(self) -> (f64, f64) {
        match self {
            FaultProfile::Lossless => (0.0, 0.0),
            FaultProfile::Lossy => (0.10, 0.02),
            FaultProfile::Chaos => (0.30, 0.10),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_empty_and_clean() {
        let p = FaultPlan::new();
        assert!(p.is_empty());
        assert_eq!(p.link(0, 1), None);
        assert!(!p.black_holed(0, 1, VTime::from_us(1)));
        assert!(!p.has_windows(0, 1));
    }

    #[test]
    fn link_overrides_replace_and_resolve_per_direction() {
        let p = FaultPlan::new()
            .with_link(
                0,
                2,
                LinkFaults {
                    drop_prob: 0.5,
                    dup_prob: 0.0,
                },
            )
            .with_link(
                0,
                2,
                LinkFaults {
                    drop_prob: 0.25,
                    dup_prob: 0.1,
                },
            );
        assert_eq!(p.link(0, 2).unwrap().drop_prob, 0.25);
        assert_eq!(p.link(2, 0), None, "overrides are directed");
        assert!(!p.is_empty());
    }

    #[test]
    fn black_hole_window_is_half_open() {
        let p =
            FaultPlan::new().with_black_hole(0, 2, VTime::from_us(5_000), VTime::from_us(8_000));
        assert!(!p.black_holed(0, 2, VTime::from_us(4_999)));
        assert!(p.black_holed(0, 2, VTime::from_us(5_000)));
        assert!(p.black_holed(0, 2, VTime::from_us(7_999)));
        assert!(!p.black_holed(0, 2, VTime::from_us(8_000)));
        assert!(!p.black_holed(2, 0, VTime::from_us(6_000)), "directed");
        assert!(p.has_windows(0, 2));
    }

    #[test]
    fn dead_link_never_recovers() {
        let p = FaultPlan::new().with_link_dead(1, 0, VTime::from_us(1));
        assert!(p.black_holed(1, 0, VTime::from_us(1_000_000_000)));
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_window_rejected() {
        let _ = FaultPlan::new().with_black_hole(0, 1, VTime::from_us(5), VTime::from_us(5));
    }

    #[test]
    fn serialization_round_trips() {
        let p = FaultPlan::new()
            .with_link(
                0,
                2,
                LinkFaults {
                    drop_prob: 0.257,
                    dup_prob: 0.1,
                },
            )
            .with_black_hole(0, 2, VTime::from_us(5_000), VTime::from_us(8_000))
            .with_link_dead(1, 0, VTime::from_ns(1_000));
        let text = p.serialize();
        let q = FaultPlan::parse(&text).unwrap();
        assert_eq!(p, q);
        assert_eq!(q.serialize(), text);
        assert!(text.contains("inf"), "dead link serializes as inf");
    }

    #[test]
    fn empty_plan_serializes_empty_and_parses_back() {
        assert_eq!(FaultPlan::new().serialize(), "");
        assert!(FaultPlan::parse("").unwrap().is_empty());
        assert!(FaultPlan::parse("# comment\n\n").unwrap().is_empty());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(FaultPlan::parse("link 0 1 2.0 0.0").is_err());
        assert!(FaultPlan::parse("window 0 1 5 5").is_err());
        assert!(FaultPlan::parse("frobnicate 1 2").is_err());
        assert!(FaultPlan::parse("link 0 1").is_err());
    }

    #[test]
    fn accessors_expose_builder_contents() {
        let p = FaultPlan::new()
            .with_link(3, 1, LinkFaults::NONE)
            .with_black_hole(0, 1, VTime::from_us(1), VTime::from_us(2));
        assert_eq!(p.overrides().len(), 1);
        assert_eq!(p.overrides()[0].0, 3);
        assert_eq!(p.windows().len(), 1);
        assert_eq!(p.windows()[0].dst, 1);
    }

    #[test]
    fn crash_black_holes_every_link_touching_the_node() {
        let p = FaultPlan::new().with_crash(1, VTime::from_us(100));
        assert!(!p.is_empty(), "node faults arm the reliability machinery");
        assert!(!p.crashed(1, VTime::from_us(99)));
        assert!(p.crashed(1, VTime::from_us(100)));
        assert!(p.crashed(1, VTime::MAX), "crash-stop never recovers");
        // Both directions on every link touching node 1 die at the crash.
        assert!(p.black_holed(0, 1, VTime::from_us(100)));
        assert!(p.black_holed(1, 0, VTime::from_us(100)));
        assert!(
            !p.black_holed(0, 2, VTime::from_us(100)),
            "bystander links live"
        );
        assert!(!p.black_holed(0, 1, VTime::from_us(99)));
        assert!(p.has_windows(0, 1) && p.has_windows(1, 2) && !p.has_windows(0, 2));
        assert_eq!(p.crash_time(1), Some(VTime::from_us(100)));
        assert_eq!(p.crash_time(0), None);
    }

    #[test]
    fn stall_window_recovers() {
        let p = FaultPlan::new().with_stall(2, VTime::from_us(10), VTime::from_us(20));
        assert!(!p.stalled(2, VTime::from_us(9)));
        assert!(p.stalled(2, VTime::from_us(10)));
        assert!(p.stalled(2, VTime::from_us(19)));
        assert!(!p.stalled(2, VTime::from_us(20)), "stalls recover");
        assert!(p.black_holed(0, 2, VTime::from_us(15)));
        assert!(p.black_holed(2, 0, VTime::from_us(15)));
        assert!(!p.black_holed(0, 2, VTime::from_us(25)));
        assert_eq!(p.crash_time(2), None, "a stall is not a crash");
    }

    #[test]
    fn slow_factor_defaults_to_one() {
        let p = FaultPlan::new().with_slow(3, 4).with_slow(3, 8);
        assert_eq!(p.slow_factor(3), 8, "later factor replaces earlier");
        assert_eq!(p.slow_factor(0), 1);
        assert!(!p.is_empty());
        assert!(
            !p.black_holed(0, 3, VTime::ZERO) && !p.has_windows(0, 3),
            "a slow node still delivers"
        );
    }

    #[test]
    fn survivors_come_from_the_crash_schedule() {
        let p = FaultPlan::new()
            .with_crash(1, VTime::from_us(500))
            .with_stall(2, VTime::from_us(1), VTime::from_us(2));
        assert_eq!(p.survivors(4), vec![0, 2, 3], "stalled nodes survive");
        assert_eq!(FaultPlan::new().survivors(3), vec![0, 1, 2]);
    }

    #[test]
    fn node_faults_round_trip_through_text() {
        let p = FaultPlan::new()
            .with_link(
                0,
                2,
                LinkFaults {
                    drop_prob: 0.1,
                    dup_prob: 0.0,
                },
            )
            .with_crash(3, VTime::from_us(2_000))
            .with_stall(1, VTime::from_us(500), VTime::from_us(900))
            .with_slow(2, 4);
        let text = p.serialize();
        let q = FaultPlan::parse(&text).unwrap();
        assert_eq!(p, q);
        assert_eq!(q.serialize(), text);
        assert!(FaultPlan::parse("crash 0").is_err());
        assert!(FaultPlan::parse("stall 0 9 9").is_err());
        assert!(FaultPlan::parse("slow 0 0").is_err());
    }

    #[test]
    fn profiles_map_to_probabilities() {
        assert_eq!(FaultProfile::Lossless.probabilities(), (0.0, 0.0));
        assert_eq!(FaultProfile::Lossy.probabilities(), (0.10, 0.02));
        assert_eq!(FaultProfile::Chaos.probabilities(), (0.30, 0.10));
    }

    #[test]
    fn profile_parser_rejects_what_it_does_not_know() {
        assert_eq!(FaultProfile::parse(""), Ok(FaultProfile::Lossless));
        assert_eq!(FaultProfile::parse("lossless"), Ok(FaultProfile::Lossless));
        assert_eq!(FaultProfile::parse("lossy"), Ok(FaultProfile::Lossy));
        assert_eq!(FaultProfile::parse("chaos"), Ok(FaultProfile::Chaos));
        for bad in ["losy", "LOSSY", "lossy ", "1"] {
            let msg = FaultProfile::parse(bad).expect_err(bad);
            assert!(
                msg.contains("SPSIM_FAULT_PROFILE") && msg.contains(bad),
                "{msg}"
            );
            assert!(msg.contains("lossless, lossy or chaos"), "{msg}");
        }
    }
}
