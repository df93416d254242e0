//! Deterministic fault injection: [`FaultPlan`] and [`FaultyChannel`].
//!
//! The adversarial conformance suite runs every protocol driver over a
//! [`FaultyChannel`] — a wrapper around the honest metered [`Transcript`]
//! that perturbs message deliveries according to a *seeded* plan. The same
//! seed always yields the same faults at the same message indices, so
//! every adversarial test is exactly reproducible (`SPFE_FAULT_SEED`
//! selects the seed in CI; see DESIGN.md §10).
//!
//! Fault taxonomy ([`FaultAction`]):
//!
//! | action      | transport effect                         | client sees |
//! |-------------|------------------------------------------|-------------|
//! | `Drop`      | message lost, nothing delivered          | transient [`ProtocolError::Dropped`], retried |
//! | `Truncate`  | a prefix of the bytes arrives            | [`ProtocolError::Codec`] |
//! | `BitFlip`   | one bit flipped in transit               | `Codec` or a detectably wrong value |
//! | `Duplicate` | delivered twice (both metered)           | one decode; double byte count |
//! | `Reorder`   | swapped with the previous same-round msg | reordered transcript records |
//! | `Delay`     | ticks added before delivery              | [`ProtocolError::Timeout`] past the budget, retried |
//! | `Crash`     | server dies; all later messages fail     | [`ProtocolError::ServerCrashed`], healed up to `t` |
//! | `Byzantine` | well-formed-but-wrong payload substituted| wrong value (robust drivers recover) |
//!
//! Dropped and crashed deliveries are **not** recorded in the transcript:
//! the meter counts bytes that actually crossed the wire, so cost reports
//! stay faithful under faults.

use crate::channel::Channel;
use crate::error::ProtocolError;
use crate::meter::{Direction, Transcript};

/// One perturbation applied to a single message delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Lose the message entirely.
    Drop,
    /// Deliver only a strict prefix of the encoded bytes.
    Truncate,
    /// Flip one (seeded) bit of the payload.
    BitFlip,
    /// Deliver the message twice; both copies are metered.
    Duplicate,
    /// Swap this message's transcript record with the previous one in the
    /// same half-round (delivery itself is unaffected — the in-memory
    /// exchange is synchronous, so reorder is a metering-trace fault).
    Reorder,
    /// Add this many ticks of delay before delivery; past the channel's
    /// timeout budget the delivery fails with a timeout.
    Delay(u64),
    /// Crash the destination/origin server: this and every later message
    /// involving it fails until the channel heals it.
    Crash,
    /// Substitute a well-formed-but-wrong payload (a byzantine server).
    /// Length-preserving, and the (seeded) default tampers only bytes past
    /// any length prefix so structured messages still decode.
    Byzantine,
}

impl FaultAction {
    /// Stable machine-readable class name (used by the event journal).
    pub fn name(self) -> &'static str {
        match self {
            FaultAction::Drop => "drop",
            FaultAction::Truncate => "truncate",
            FaultAction::BitFlip => "bit_flip",
            FaultAction::Duplicate => "duplicate",
            FaultAction::Reorder => "reorder",
            FaultAction::Delay(_) => "delay",
            FaultAction::Crash => "crash",
            FaultAction::Byzantine => "byzantine",
        }
    }
}

/// A seeded, deterministic schedule of [`FaultAction`]s over message
/// indices.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    seed: u64,
    /// `(action, per_mille)` rates rolled per message, in order.
    rates: Vec<(FaultAction, u32)>,
    /// Explicit `(message index, action)` overrides (checked first).
    scripted: Vec<(u64, FaultAction)>,
}

impl FaultPlan {
    /// The honest plan: no faults, ever.
    pub fn honest() -> Self {
        FaultPlan::default()
    }

    /// A plan injecting exactly the scripted `(message index, action)`
    /// pairs and nothing else.
    pub fn scripted(actions: Vec<(u64, FaultAction)>) -> Self {
        FaultPlan {
            scripted: actions,
            ..FaultPlan::default()
        }
    }

    /// A plan applying `action` to each message with probability
    /// `per_mille`/1000, decided by `seed` and the message index only.
    pub fn with_rate(seed: u64, action: FaultAction, per_mille: u32) -> Self {
        FaultPlan {
            seed,
            rates: vec![(action, per_mille)],
            scripted: Vec::new(),
        }
    }

    /// A plan mixing several `(action, per_mille)` rates; at most one
    /// action fires per message (first match in `rates` order).
    pub fn mixed(seed: u64, rates: Vec<(FaultAction, u32)>) -> Self {
        FaultPlan {
            seed,
            rates,
            scripted: Vec::new(),
        }
    }

    /// Reads `SPFE_FAULT_SEED` (decimal) from the environment, falling
    /// back to `default_seed`. The suite's determinism contract: one seed
    /// value ⇒ one exact fault schedule ⇒ one exact test outcome.
    pub fn seed_from_env(default_seed: u64) -> u64 {
        std::env::var("SPFE_FAULT_SEED")
            .ok()
            .and_then(|s| s.trim().parse().ok())
            .unwrap_or(default_seed)
    }

    /// The action (if any) this plan applies to message `msg_index`.
    pub fn action_for(&self, msg_index: u64) -> Option<FaultAction> {
        if let Some(&(_, a)) = self.scripted.iter().find(|&&(i, _)| i == msg_index) {
            return Some(a);
        }
        if self.rates.is_empty() {
            return None;
        }
        let roll = mix(self.seed, msg_index) % 1000;
        let mut acc = 0u64;
        for &(action, per_mille) in &self.rates {
            acc += per_mille as u64;
            if roll < acc {
                return Some(action);
            }
        }
        None
    }

    /// Deterministic per-message auxiliary randomness (bit positions,
    /// tamper keystreams).
    fn aux(&self, msg_index: u64, salt: u64) -> u64 {
        mix(
            self.seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            msg_index,
        )
    }
}

/// SplitMix64-style mixer: uniform, stateless, seed × index → u64.
fn mix(seed: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Tick budget of every `FaultyChannel`: a delivery delayed by more ticks
/// than this times out.
pub const DEFAULT_TIMEOUT_TICKS: u64 = 3;

/// Targeted byzantine tamper hook: receives the protocol label and the
/// encoded bytes to mutate in place.
pub type TamperHook = Box<dyn FnMut(&'static str, &mut Vec<u8>) + Send>;

/// A fault-injecting [`Channel`] over an honest [`Transcript`].
///
/// Deliveries advance a deterministic tick clock; crashed servers are
/// healed (replaced by an honest server) up to a configurable tolerance
/// `t`, after which the channel aborts executions with
/// [`ProtocolError::TooManyFaulty`].
pub struct FaultyChannel {
    inner: Transcript,
    plan: FaultPlan,
    /// How many distinct crashed servers may be replaced (the `t` of the
    /// paper's fault model).
    tolerance: usize,
    clock: u64,
    msg_index: u64,
    crashed: Vec<bool>,
    healed: Vec<usize>,
    /// Targeted byzantine tamper hook: `(label, bytes)` mutated in place.
    tamper: Option<TamperHook>,
}

impl std::fmt::Debug for FaultyChannel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultyChannel")
            .field("plan", &self.plan)
            .field("tolerance", &self.tolerance)
            .field("clock", &self.clock)
            .field("msg_index", &self.msg_index)
            .field("crashed", &self.crashed)
            .field("healed", &self.healed)
            .finish_non_exhaustive()
    }
}

impl FaultyChannel {
    /// Wraps a fresh transcript for `num_servers` servers under `plan`,
    /// tolerating up to `tolerance` crashed-and-replaced servers.
    pub fn new(num_servers: usize, plan: FaultPlan, tolerance: usize) -> Self {
        FaultyChannel {
            inner: Transcript::new(num_servers),
            plan,
            tolerance,
            clock: 0,
            msg_index: 0,
            crashed: vec![false; num_servers],
            healed: Vec::new(),
            tamper: None,
        }
    }

    /// Installs a targeted byzantine tamper hook, applied *instead of* the
    /// default seeded scramble whenever a [`FaultAction::Byzantine`] fault
    /// fires. The hook sees the protocol label and may rewrite the bytes
    /// to any well-formed-but-wrong payload.
    pub fn set_tamper(&mut self, hook: TamperHook) {
        self.tamper = Some(hook);
    }

    /// The underlying honest transcript (metering only what was actually
    /// delivered).
    pub fn inner(&self) -> &Transcript {
        &self.inner
    }

    /// Messages attempted so far (delivered or not).
    pub fn messages_attempted(&self) -> u64 {
        self.msg_index
    }

    /// Servers that crashed and were replaced by honest ones, in order.
    pub fn healed_servers(&self) -> &[usize] {
        &self.healed
    }

    /// Clears all metering, clock, and fault state for a fresh execution
    /// under the same plan.
    pub fn reset(&mut self) {
        self.inner.reset();
        self.clock = 0;
        self.msg_index = 0;
        self.crashed.iter_mut().for_each(|c| *c = false);
        self.healed.clear();
    }

    fn deliver(
        &mut self,
        dir: Direction,
        label: &'static str,
        bytes: &[u8],
        action: Option<FaultAction>,
        idx: u64,
    ) -> Result<Vec<u8>, ProtocolError> {
        let mut out = bytes.to_vec();
        match action {
            None | Some(FaultAction::Delay(_)) => {}
            Some(FaultAction::Truncate) => {
                let keep = out
                    .len()
                    .saturating_sub(1 + (self.plan.aux(idx, 1) as usize % 8));
                out.truncate(keep);
            }
            Some(FaultAction::BitFlip) => {
                if !out.is_empty() {
                    let bit = self.plan.aux(idx, 2) as usize % (out.len() * 8);
                    out[bit / 8] ^= 1 << (bit % 8);
                }
            }
            Some(FaultAction::Byzantine) => {
                if let Some(hook) = self.tamper.as_mut() {
                    hook(label, &mut out);
                } else {
                    // Length-preserving scramble of the payload tail: skip
                    // the first 8 bytes (where length prefixes live) so
                    // structured messages still decode, just wrong.
                    let start = 8.min(out.len().saturating_sub(1));
                    let key = self.plan.aux(idx, 3);
                    for (i, b) in out.iter_mut().enumerate().skip(start) {
                        *b ^= (key >> (8 * (i % 8))) as u8 | 1;
                    }
                }
            }
            Some(FaultAction::Duplicate) => {
                // First copy metered here; the second below with the rest.
                self.inner.record_raw(dir, label, out.len());
            }
            Some(FaultAction::Reorder) => {
                self.inner.record_raw(dir, label, out.len());
                self.inner.swap_last_two_in_round();
                return Ok(out);
            }
            Some(FaultAction::Drop) | Some(FaultAction::Crash) => unreachable!("handled earlier"),
        }
        self.inner.record_raw(dir, label, out.len());
        Ok(out)
    }
}

impl Channel for FaultyChannel {
    fn num_servers(&self) -> usize {
        self.inner.num_servers()
    }

    fn begin_round(&mut self) {
        self.inner.begin_round();
    }

    fn transfer_raw(
        &mut self,
        dir: Direction,
        label: &'static str,
        bytes: &[u8],
    ) -> Result<Vec<u8>, ProtocolError> {
        // Delivery buffers (and retried re-deliveries) allocate as a
        // function of the fault schedule, not the protocol; pause the
        // deterministic heap tallies so alloc counters stay bit-identical
        // across fault seeds (DESIGN.md §12). The live/peak gauges keep
        // tracking.
        let _mem_pause = spfe_obs::mem::pause();
        let server = dir.server();
        assert!(server < self.num_servers(), "server index out of range");
        let idx = self.msg_index;
        self.msg_index += 1;
        self.clock += 1;
        if self.crashed[server] {
            return Err(ProtocolError::ServerCrashed { server });
        }
        let action = self.plan.action_for(idx);
        if let Some(a) = action {
            spfe_obs::count(spfe_obs::Op::FaultsInjected, 1);
            spfe_obs::fault_event(a.name(), server);
        }
        match action {
            Some(FaultAction::Drop) => Err(ProtocolError::Dropped { server, label }),
            Some(FaultAction::Crash) => {
                self.crashed[server] = true;
                Err(ProtocolError::ServerCrashed { server })
            }
            Some(FaultAction::Delay(ticks)) => {
                self.clock += ticks;
                if ticks > DEFAULT_TIMEOUT_TICKS {
                    Err(ProtocolError::Timeout { server, label })
                } else {
                    self.deliver(dir, label, bytes, action, idx)
                }
            }
            other => self.deliver(dir, label, bytes, other, idx),
        }
    }

    fn transcript(&self) -> &Transcript {
        &self.inner
    }

    fn heal_server(&mut self, server: usize) -> Result<(), ProtocolError> {
        if server < self.crashed.len() && self.crashed[server] {
            if !self.healed.contains(&server) && self.healed.len() >= self.tolerance {
                return Err(ProtocolError::TooManyFaulty {
                    tolerated: self.tolerance,
                    observed: self.healed.len() + 1,
                });
            }
            self.crashed[server] = false;
            if !self.healed.contains(&server) {
                self.healed.push(server);
            }
        }
        Ok(())
    }

    fn clock(&self) -> u64 {
        self.clock
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::ChannelExt;
    use crate::wire::Wire;

    #[test]
    fn honest_plan_matches_transcript_exactly() {
        let mut honest = Transcript::new(2);
        let mut faulty = FaultyChannel::new(2, FaultPlan::honest(), 0);
        for s in 0..2 {
            honest.client_to_server(s, "q", &(s as u64)).unwrap();
            let ch: &mut dyn Channel = &mut faulty;
            ch.client_to_server(s, "q", &(s as u64)).unwrap();
        }
        assert_eq!(honest.report(), faulty.transcript().report());
    }

    #[test]
    fn scripted_drop_is_masked_by_retry_and_not_metered() {
        let mut faulty =
            FaultyChannel::new(1, FaultPlan::scripted(vec![(0, FaultAction::Drop)]), 0);
        let ch: &mut dyn Channel = &mut faulty;
        let v: u64 = ch.client_to_server(0, "q", &42u64).unwrap();
        assert_eq!(v, 42);
        // Two attempts, one delivery: exactly one record, 8 bytes.
        let rep = faulty.transcript().report();
        assert_eq!(rep.messages, 1);
        assert_eq!(rep.client_to_server, 8);
        assert_eq!(faulty.messages_attempted(), 2);
    }

    #[test]
    fn truncate_surfaces_codec_error() {
        let mut faulty =
            FaultyChannel::new(1, FaultPlan::scripted(vec![(0, FaultAction::Truncate)]), 0);
        let ch: &mut dyn Channel = &mut faulty;
        let got = ch.client_to_server(0, "q", &vec![1u64, 2, 3]);
        assert!(matches!(got, Err(ProtocolError::Codec(_))), "{got:?}");
    }

    #[test]
    fn crash_heals_within_tolerance_and_aborts_past_it() {
        // Tolerance 1: a crash on server 0 heals, a second server crashing
        // aborts with the budget diagnosis.
        let plan = FaultPlan::scripted(vec![(0, FaultAction::Crash), (2, FaultAction::Crash)]);
        let mut faulty = FaultyChannel::new(2, plan, 1);
        let ch: &mut dyn Channel = &mut faulty;
        let v: u64 = ch.client_to_server(0, "q", &5u64).unwrap();
        assert_eq!(v, 5);
        let got = ch.client_to_server(1, "q", &6u64);
        assert_eq!(
            got,
            Err(ProtocolError::TooManyFaulty {
                tolerated: 1,
                observed: 2
            })
        );
        assert_eq!(faulty.healed_servers(), &[0]);
    }

    #[test]
    fn delay_within_budget_delivers_and_advances_clock() {
        let plan = FaultPlan::scripted(vec![(0, FaultAction::Delay(2))]);
        let mut faulty = FaultyChannel::new(1, plan, 0);
        let ch: &mut dyn Channel = &mut faulty;
        let v: u64 = ch.client_to_server(0, "q", &9u64).unwrap();
        assert_eq!(v, 9);
        assert_eq!(faulty.clock(), 3); // 1 tick delivery + 2 delay
    }

    #[test]
    fn delay_past_budget_times_out_then_retry_delivers() {
        let plan = FaultPlan::scripted(vec![(0, FaultAction::Delay(10))]);
        let mut faulty = FaultyChannel::new(1, plan, 0);
        let ch: &mut dyn Channel = &mut faulty;
        let v: u64 = ch.client_to_server(0, "q", &9u64).unwrap();
        assert_eq!(v, 9);
        assert_eq!(faulty.transcript().report().messages, 1);
    }

    #[test]
    fn duplicate_meters_twice_decodes_once() {
        let plan = FaultPlan::scripted(vec![(0, FaultAction::Duplicate)]);
        let mut faulty = FaultyChannel::new(1, plan, 0);
        let ch: &mut dyn Channel = &mut faulty;
        let v: u64 = ch.client_to_server(0, "q", &7u64).unwrap();
        assert_eq!(v, 7);
        let rep = faulty.transcript().report();
        assert_eq!(rep.messages, 2);
        assert_eq!(rep.client_to_server, 16);
        assert_eq!(rep.half_rounds, 1, "duplicate stays within the round");
    }

    #[test]
    fn byzantine_default_scramble_preserves_structure() {
        let plan = FaultPlan::scripted(vec![(0, FaultAction::Byzantine)]);
        let mut faulty = FaultyChannel::new(1, plan, 0);
        let ch: &mut dyn Channel = &mut faulty;
        // Vec<u8> has an 8-byte length prefix; the scramble must keep it.
        let got: Vec<u8> = ch.client_to_server(0, "q", &vec![1u8, 2, 3, 4]).unwrap();
        assert_eq!(got.len(), 4, "length preserved");
        assert_ne!(got, vec![1, 2, 3, 4], "payload tampered");
    }

    #[test]
    fn targeted_tamper_hook_overrides_default() {
        let plan = FaultPlan::scripted(vec![(0, FaultAction::Byzantine)]);
        let mut faulty = FaultyChannel::new(1, plan, 0);
        faulty.set_tamper(Box::new(|label, bytes| {
            assert_eq!(label, "q");
            *bytes = 99u64.to_bytes();
        }));
        let ch: &mut dyn Channel = &mut faulty;
        let got: u64 = ch.client_to_server(0, "q", &7u64).unwrap();
        assert_eq!(got, 99);
    }

    #[test]
    fn same_seed_same_schedule() {
        let a = FaultPlan::with_rate(0xABCD, FaultAction::Drop, 200);
        let b = FaultPlan::with_rate(0xABCD, FaultAction::Drop, 200);
        let c = FaultPlan::with_rate(0xABCE, FaultAction::Drop, 200);
        let sched_a: Vec<_> = (0..200).map(|i| a.action_for(i)).collect();
        let sched_b: Vec<_> = (0..200).map(|i| b.action_for(i)).collect();
        let sched_c: Vec<_> = (0..200).map(|i| c.action_for(i)).collect();
        assert_eq!(sched_a, sched_b);
        assert_ne!(sched_a, sched_c, "different seeds diverge");
        let fired = sched_a.iter().filter(|a| a.is_some()).count();
        assert!(fired > 10 && fired < 100, "rate plausible: {fired}/200");
    }

    #[test]
    fn faults_and_retries_reach_the_event_journal() {
        use spfe_obs::trace::{self, EventKind};
        let mut faulty =
            FaultyChannel::new(1, FaultPlan::scripted(vec![(0, FaultAction::Drop)]), 0);
        trace::set_tracing(true);
        let ch: &mut dyn Channel = &mut faulty;
        let v: u64 = ch.client_to_server(0, "trace-q", &42u64).unwrap();
        trace::set_tracing(false);
        assert_eq!(v, 42);
        let trace = trace::take();
        let evs: Vec<_> = trace.threads.iter().flat_map(|t| t.events.iter()).collect();
        assert!(
            evs.iter()
                .any(|e| e.kind == EventKind::Fault && e.label == "drop"),
            "{evs:?}"
        );
        assert!(
            evs.iter()
                .any(|e| e.kind == EventKind::Retry && e.label == "trace-q" && e.a == 1),
            "{evs:?}"
        );
        assert!(
            evs.iter()
                .any(|e| e.kind == EventKind::WireUp && e.label == "trace-q" && e.a == 8),
            "{evs:?}"
        );
    }

    #[test]
    fn fault_action_names_are_stable() {
        assert_eq!(FaultAction::Drop.name(), "drop");
        assert_eq!(FaultAction::Delay(5).name(), "delay");
        assert_eq!(FaultAction::Byzantine.name(), "byzantine");
    }

    #[test]
    fn reset_clears_fault_state() {
        let plan = FaultPlan::scripted(vec![(0, FaultAction::Crash)]);
        let mut faulty = FaultyChannel::new(1, plan, 1);
        {
            let ch: &mut dyn Channel = &mut faulty;
            ch.client_to_server(0, "q", &1u64).unwrap();
        }
        assert_eq!(faulty.healed_servers(), &[0]);
        faulty.reset();
        assert!(faulty.healed_servers().is_empty());
        assert_eq!(faulty.clock(), 0);
        assert_eq!(faulty.transcript().report().messages, 0);
    }
}
