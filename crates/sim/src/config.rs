//! The calibrated cost model of the simulated SP.
//!
//! Every tunable of the simulated machine lives here: wire bandwidth, packet
//! and header sizes, and the software overheads of the LAPI and MPI/MPL
//! protocol stacks. The defaults are calibrated against the numbers the
//! paper reports for 120 MHz P2SC "thin" nodes with the SP switch (Table 2,
//! Figure 2 and Section 4 of the paper); see `DESIGN.md` §6 for the
//! derivation. Experiments sweep or override individual fields — nothing in
//! the result tables is hard-coded, the protocols really execute against
//! these constants.

use crate::fault::{FaultPlan, FaultProfile, LinkFaults};
use crate::runtime::NodeId;
use crate::time::VDur;

/// Read environment knob `var` through its parser (`None` when unset). A
/// value the parser rejects panics rather than selecting the default: a
/// typo in a CI matrix must not turn one cell into a silent copy of another.
pub(crate) fn env_knob<T>(var: &str, parse: fn(&str) -> Result<T, String>) -> Option<T> {
    let v = std::env::var(var).ok()?;
    Some(parse(&v).unwrap_or_else(|e| panic!("{e}")))
}

/// Cost model and hardware parameters of the simulated RS/6000 SP.
#[derive(Clone, Debug)]
pub struct MachineConfig {
    // ---------------------------------------------------------------- wire
    /// Total wire size of one switch packet in bytes, header included.
    pub packet_size: usize,
    /// LAPI packet header size (bytes). The paper: 48 bytes, because the
    /// origin must carry all target-side parameters in every packet.
    pub lapi_header_bytes: usize,
    /// MPI/MPL packet header size (bytes). The paper: 16 bytes.
    pub mpl_header_bytes: usize,
    /// Link bandwidth per direction, decimal MB/s. Calibrated so the LAPI
    /// asymptotic put bandwidth lands near the paper's ≈97 MB/s once the
    /// 48-byte header tax is paid.
    pub wire_bw_mb_s: f64,
    /// Fixed one-way latency through the switch fabric.
    pub fabric_latency: VDur,
    /// Number of distinct routes between each node pair. Packets of one
    /// message may take different routes, which is what makes delivery
    /// out of order (a property LAPI embraces and MPL must mask).
    pub num_routes: usize,
    /// Extra fabric latency spread across routes: route `r` adds
    /// `r * route_skew` to the fabric latency. A nonzero skew makes
    /// out-of-order arrival *visible*, not just possible.
    pub route_skew: VDur,
    /// Probability that the switch drops a packet (failure injection;
    /// recovered by the adapter's retransmission protocol).
    pub drop_prob: f64,
    /// Probability that the switch delivers a duplicate copy of a packet
    /// (the copy crosses the ejection link and is suppressed by the
    /// receiving adapter's sequence-number dedup).
    pub dup_prob: f64,
    /// Loss probability for acknowledgement packets. `None` means an ACK on
    /// link `b → a` is as lossy as data on `b → a` (the reverse link's drop
    /// probability); tests pin `Some(0.0)` to isolate data-path loss.
    pub ack_drop_prob: Option<f64>,
    /// Scripted per-link fault overrides and black-hole windows.
    pub faults: FaultPlan,
    /// Wire size of a bare acknowledgement packet.
    pub ack_bytes: usize,
    /// Initial adapter retransmission timeout: the RTO used before the
    /// flow has any RTT sample. With [`MachineConfig::adaptive_rto`] unset
    /// this is *the* (fixed) timeout, as in the pre-RTO-estimator adapter.
    pub retransmit_timeout: VDur,
    /// Estimate the per-flow RTO from observed round-trip times
    /// (SRTT/RTTVAR, RFC-6298-style) with exponential backoff and seeded
    /// jitter on retransmissions. Disable (`with_fixed_rto`) to pin the
    /// constant-timeout behaviour exact-timing tests rely on.
    pub adaptive_rto: bool,
    /// Lower clamp of the adaptive RTO.
    pub rto_min: VDur,
    /// Upper clamp of the adaptive RTO, backoff included. Bounds how long
    /// a dying flow waits between retries, which in turn bounds the
    /// virtual-time cost of declaring a peer dead.
    pub rto_max: VDur,
    /// Bounded retries: after this many retransmissions of one packet the
    /// sender gives up and surfaces a structured delivery-timeout error
    /// (the flow is considered dead). Sized so that even at 40% loss in
    /// both directions the chance of a spurious timeout is negligible
    /// (0.64^64 ≈ 4e-13 per packet).
    pub max_retransmits: u32,
    /// ACK coalescing: the receiving adapter acknowledges cumulatively and
    /// charges one `ack_bytes` wire packet per this many data packets
    /// (piggybacking on the flow's reverse lane).
    pub ack_every: u32,
    /// ACK coalescing deadline: a pending cumulative ACK is flushed as a
    /// standalone packet this long after the oldest unacknowledged-on-the-
    /// wire delivery, even if the batch is not full.
    pub ack_delay: VDur,
    /// Capacity of each SPSC delivery ring in packets (rounded up to a
    /// power of two). Must exceed the largest burst a sender can inject
    /// before the receiver drains; a full ring applies real-time
    /// backpressure to the producing thread.
    pub delivery_ring_capacity: usize,

    // ---------------------------------------------------------------- lapi
    /// Origin CPU cost for a `LAPI_Put` call to return control ("pipeline
    /// latency", paper §4: 16 µs). Includes injecting the first packet.
    pub lapi_put_issue: VDur,
    /// Origin CPU cost for a `LAPI_Get` call to return control (19 µs).
    pub lapi_get_issue: VDur,
    /// Origin CPU cost for a `LAPI_Amsend` call to return control.
    pub lapi_am_issue: VDur,
    /// Cost to issue a message from *inside* the dispatcher / a handler
    /// (no user-to-library transition), e.g. the data reply of a get or an
    /// echo sent from a completion handler.
    pub lapi_handler_issue: VDur,
    /// Per-additional-packet origin cost when a message spans packets.
    pub lapi_pkt_issue: VDur,
    /// Dispatcher cost to process one arriving packet (polling mode).
    pub lapi_dispatch: VDur,
    /// Cost to update a completion counter (and wake waiters).
    pub lapi_counter_update: VDur,
    /// Baseline cost of running a user header handler.
    pub lapi_hdr_handler: VDur,
    /// Baseline cost of running a user completion handler.
    pub lapi_cmpl_handler: VDur,
    /// Per-message completion bookkeeping at the target (last packet of a
    /// message: final counter update + generating the origin notification).
    pub lapi_completion_msg: VDur,
    /// Cost of taking a hardware interrupt to kick the dispatcher
    /// (interrupt mode only). Calibrated so the LAPI interrupt round trip
    /// lands at the paper's 89 µs (an echo takes ~2.3 interrupts here:
    /// request at the target, reply and completion ack at the origin,
    /// minus the ones coalesced by back-to-back arrival).
    pub interrupt_cost: VDur,
    /// Cost of one poll/probe call that finds nothing.
    pub lapi_poll: VDur,
    /// Bytes of user data that fit in the user header of a single-packet
    /// active message (`LAPI_Qenv(MAX_UHDR_SZ)`); paper §5.3.1: ≈900.
    pub lapi_max_uhdr: usize,
    /// Per-descriptor processing cost of the vector (`putv`/`getv`)
    /// extension of §6 (building/walking the scatter-gather table).
    pub lapi_vec_desc: VDur,

    // ----------------------------------------------------------------- mpl
    /// Origin CPU cost to issue an MPI/MPL send (call + protocol header).
    pub mpl_send_issue: VDur,
    /// Receiver CPU cost to match + complete one message (tag matching,
    /// queue bookkeeping).
    pub mpl_recv_match: VDur,
    /// Receiver per-packet dispatch cost.
    pub mpl_pkt_dispatch: VDur,
    /// memcpy bandwidth for protocol buffer copies, decimal MB/s. The
    /// eager protocol pays this on the critical path (the "extra copy"
    /// the paper blames for the MPI mid-range bandwidth gap).
    pub memcpy_bw_mb_s: f64,
    /// Target-side processing of a rendezvous request (RTS) beyond the
    /// normal per-message cost: buffer/posting negotiation before the CTS.
    pub mpl_rndv_setup: VDur,
    /// Cost of creating the `rcvncall` handler context (AIX overhead the
    /// paper blames for MPL's 200 µs interrupt round trip): ≈57 µs.
    pub rcvncall_ctx: VDur,
    /// Default `MP_EAGER_LIMIT`: messages at or below this size use the
    /// eager protocol; larger ones use rendezvous.
    pub mpl_eager_limit: usize,
    /// Maximum settable `MP_EAGER_LIMIT` (paper: 65536).
    pub mpl_eager_limit_max: usize,

    // ------------------------------------------------------------------ ga
    /// Per-operation Global Arrays software overhead at the calling side
    /// (patch arithmetic, protocol selection, locality lookup).
    pub ga_op_overhead: VDur,
    /// Per-operation GA overhead at the serving side (inside handlers).
    pub ga_serve_overhead: VDur,
    /// Extra origin-side cost of building an MPL request message (§5.2:
    /// the request header and data must be marshalled into one message
    /// because MPL progress rules forbid separating them).
    pub ga_mpl_request_overhead: VDur,
    /// Cost of one double-precision FMA-ish accumulate element, used by the
    /// `acc` kernel in handlers.
    pub ga_acc_per_elem: VDur,
}

impl Default for MachineConfig {
    fn default() -> Self {
        // The env-selected fault profile lets CI push the whole test suite
        // through a lossy fabric (`SPSIM_FAULT_PROFILE=lossy cargo test`).
        // Exact-timing calibration tests opt out via `with_no_faults()`.
        let (drop_prob, dup_prob) = FaultProfile::from_env().probabilities();
        MachineConfig {
            packet_size: 1024,
            lapi_header_bytes: 48,
            mpl_header_bytes: 16,
            wire_bw_mb_s: 102.0,
            fabric_latency: VDur::from_us_f64(7.0),
            num_routes: 4,
            route_skew: VDur::from_us_f64(0.4),
            drop_prob,
            dup_prob,
            ack_drop_prob: None,
            faults: FaultPlan::new(),
            ack_bytes: 48,
            retransmit_timeout: VDur::from_us(500),
            adaptive_rto: true,
            rto_min: VDur::from_us(200),
            rto_max: VDur::from_us(10_000),
            max_retransmits: 64,
            ack_every: 4,
            ack_delay: VDur::from_us(100),
            delivery_ring_capacity: 4096,

            lapi_put_issue: VDur::from_us(16),
            lapi_get_issue: VDur::from_us(19),
            lapi_am_issue: VDur::from_us(16),
            lapi_handler_issue: VDur::from_us(8),
            lapi_pkt_issue: VDur::from_us_f64(1.0),
            lapi_dispatch: VDur::from_us(5),
            lapi_counter_update: VDur::from_us(1),
            lapi_hdr_handler: VDur::from_us(4),
            lapi_cmpl_handler: VDur::from_us(4),
            lapi_completion_msg: VDur::from_us(4),
            interrupt_cost: VDur::from_us_f64(12.3),
            lapi_poll: VDur::from_us_f64(0.5),
            lapi_max_uhdr: 900,
            lapi_vec_desc: VDur::from_ns(200),

            mpl_send_issue: VDur::from_us_f64(15.5),
            mpl_recv_match: VDur::from_us_f64(14.5),
            mpl_pkt_dispatch: VDur::from_us(5),
            memcpy_bw_mb_s: 500.0,
            mpl_rndv_setup: VDur::from_us(45),
            rcvncall_ctx: VDur::from_us(57),
            mpl_eager_limit: 4096,
            mpl_eager_limit_max: 65536,

            ga_op_overhead: VDur::from_us(6),
            ga_serve_overhead: VDur::from_us(5),
            ga_mpl_request_overhead: VDur::from_us(16),
            ga_acc_per_elem: VDur::from_ns(12),
        }
    }
}

impl MachineConfig {
    /// The default calibration: 120 MHz P2SC nodes with the SP switch, as
    /// used throughout the paper's evaluation.
    pub fn sp_p2sc_120() -> Self {
        Self::default()
    }

    /// Builder-style: set the switch drop probability (failure injection).
    pub fn with_drop_prob(mut self, p: f64) -> Self {
        assert!((0.0..1.0).contains(&p), "drop probability must be in [0,1)");
        self.drop_prob = p;
        self
    }

    /// Builder-style: set the fabric duplication probability.
    pub fn with_dup_prob(mut self, p: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "duplicate probability must be in [0,1]"
        );
        self.dup_prob = p;
        self
    }

    /// Builder-style: pin the ACK loss probability instead of mirroring the
    /// reverse link's drop probability.
    pub fn with_ack_drop_prob(mut self, p: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&p),
            "ack drop probability must be in [0,1)"
        );
        self.ack_drop_prob = Some(p);
        self
    }

    /// Builder-style: install a scripted [`FaultPlan`].
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Builder-style: cap the retransmissions before a delivery timeout.
    pub fn with_max_retransmits(mut self, n: u32) -> Self {
        assert!(n > 0, "at least one retransmission must be allowed");
        self.max_retransmits = n;
        self
    }

    /// Builder-style: disable RTT estimation and use `timeout` as a fixed
    /// retransmission timeout (exact-timing tests pin the old constant
    /// behaviour this way).
    pub fn with_fixed_rto(mut self, timeout: VDur) -> Self {
        self.retransmit_timeout = timeout;
        self.adaptive_rto = false;
        self
    }

    /// Builder-style: force a perfectly clean fabric, overriding any
    /// env-selected fault profile. Exact-timing calibration tests use this
    /// so `SPSIM_FAULT_PROFILE=lossy` cannot shift their latencies.
    pub fn with_no_faults(mut self) -> Self {
        self.drop_prob = 0.0;
        self.dup_prob = 0.0;
        self.ack_drop_prob = None;
        self.faults = FaultPlan::new();
        self
    }

    /// The effective fault probabilities of the directed link `src → dst`:
    /// the plan's per-link override if present, else the global knobs.
    #[inline]
    pub fn link_faults(&self, src: NodeId, dst: NodeId) -> LinkFaults {
        self.faults.link(src, dst).unwrap_or(LinkFaults {
            drop_prob: self.drop_prob,
            dup_prob: self.dup_prob,
        })
    }

    /// The effective loss probability of an ACK travelling `src → dst`
    /// (i.e. the *reverse* direction of the data flow it acknowledges).
    #[inline]
    pub fn ack_loss(&self, src: NodeId, dst: NodeId) -> f64 {
        self.ack_drop_prob
            .unwrap_or_else(|| self.link_faults(src, dst).drop_prob)
    }

    /// Can this machine lose or duplicate anything at all? When `false`,
    /// the adapter's reliability protocol stays disarmed (pay-for-what-you-
    /// use: no ACK traffic, no extra RNG draws, timings identical to a
    /// machine that predates the protocol).
    #[inline]
    pub fn reliability_armed(&self) -> bool {
        self.drop_prob > 0.0
            || self.dup_prob > 0.0
            || self.ack_drop_prob.is_some_and(|p| p > 0.0)
            || !self.faults.is_empty()
    }

    /// Builder-style: set `MP_EAGER_LIMIT` (clamped to the maximum, like
    /// the real environment variable).
    pub fn with_eager_limit(mut self, limit: usize) -> Self {
        self.mpl_eager_limit = limit.min(self.mpl_eager_limit_max);
        self
    }

    /// Time to serialize `bytes` onto a link at the wire bandwidth.
    #[inline]
    pub fn wire_time(&self, bytes: usize) -> VDur {
        VDur::from_ns((bytes as f64 * 1e3 / self.wire_bw_mb_s).round() as u64)
    }

    /// Time to memcpy `bytes` through a protocol buffer.
    #[inline]
    pub fn memcpy_time(&self, bytes: usize) -> VDur {
        VDur::from_ns((bytes as f64 * 1e3 / self.memcpy_bw_mb_s).round() as u64)
    }

    /// Payload bytes per packet for a given header size.
    #[inline]
    pub fn payload_per_packet(&self, header_bytes: usize) -> usize {
        assert!(
            header_bytes < self.packet_size,
            "header exceeds packet size"
        );
        self.packet_size - header_bytes
    }

    /// Number of packets needed for a `len`-byte message under the given
    /// header size (minimum 1: zero-length messages still send a header).
    #[inline]
    pub fn packets_for(&self, len: usize, header_bytes: usize) -> usize {
        let payload = self.payload_per_packet(header_bytes);
        len.div_ceil(payload).max(1)
    }

    /// Asymptotic payload bandwidth achievable under a given header size,
    /// in MB/s: the wire rate scaled by the payload fraction of a packet.
    pub fn asymptotic_bw_mb_s(&self, header_bytes: usize) -> f64 {
        self.wire_bw_mb_s * self.payload_per_packet(header_bytes) as f64 / self.packet_size as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_calibrated_to_paper_constants() {
        let c = MachineConfig::default();
        assert_eq!(c.packet_size, 1024);
        assert_eq!(c.lapi_header_bytes, 48);
        assert_eq!(c.mpl_header_bytes, 16);
        // LAPI asymptote ≈ 97 MB/s, MPI asymptote slightly above it —
        // the paper's explanation of why the MPI peak edges out LAPI.
        let lapi_bw = c.asymptotic_bw_mb_s(c.lapi_header_bytes);
        let mpi_bw = c.asymptotic_bw_mb_s(c.mpl_header_bytes);
        assert!((lapi_bw - 97.2).abs() < 0.5, "lapi asym {lapi_bw}");
        assert!(mpi_bw > lapi_bw);
    }

    #[test]
    fn wire_time_matches_bandwidth() {
        let c = MachineConfig::default();
        let t = c.wire_time(1024);
        // 1024 B at 102 MB/s ≈ 10.04 us
        assert!((t.as_us() - 10.04).abs() < 0.01, "{t}");
    }

    #[test]
    fn packets_for_edges() {
        let c = MachineConfig::default();
        let payload = c.payload_per_packet(48); // 976
        assert_eq!(payload, 976);
        assert_eq!(c.packets_for(0, 48), 1);
        assert_eq!(c.packets_for(1, 48), 1);
        assert_eq!(c.packets_for(976, 48), 1);
        assert_eq!(c.packets_for(977, 48), 2);
        assert_eq!(c.packets_for(2 * 976, 48), 2);
    }

    #[test]
    fn eager_limit_clamps() {
        let c = MachineConfig::default().with_eager_limit(1 << 20);
        assert_eq!(c.mpl_eager_limit, 65536);
    }

    #[test]
    #[should_panic(expected = "drop probability")]
    fn bad_drop_prob_rejected() {
        let _ = MachineConfig::default().with_drop_prob(1.5);
    }
}
