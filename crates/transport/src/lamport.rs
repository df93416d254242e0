//! A per-session Lamport clock for causal frame stamping.
//!
//! Wall clocks on two machines do not order a distributed session's
//! events; a Lamport clock does, without any clock sync. Each party keeps
//! one [`Lamport`] per session, [`Lamport::tick`]s before every frame it
//! sends (carrying the stamp in a [`crate::frame::FrameKind::TraceCtx`]
//! frame), and [`Lamport::observe`]s the carried stamp on every frame it
//! receives. The merge rule — `value = max(local, carried) + 1` — makes
//! every receive stamp *strictly greater* than the matching send stamp,
//! which is the wall-clock-free causal-consistency gate the merged
//! timeline tooling (`spfe-tables net-trace --merge`) checks.
//!
//! Stamps are also strictly monotone per party per session regardless of
//! delivery retries: the clock advances once per *logical* event, so a
//! retried delivery reuses its stamp and the journal order stays total.

/// A Lamport logical clock (one per party per session).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Lamport {
    value: u32,
}

impl Lamport {
    /// A fresh clock at zero (no events observed).
    #[must_use]
    pub fn new() -> Lamport {
        Lamport::default()
    }

    /// Advances the clock for a local send event and returns the stamp.
    pub fn tick(&mut self) -> u32 {
        self.value = self.value.saturating_add(1);
        self.value
    }

    /// Merges a stamp carried by a received frame and returns this
    /// party's receive stamp, strictly greater than both the carried
    /// stamp and every earlier local stamp (absent saturation, which
    /// would need 2³²−1 events in one session).
    pub fn observe(&mut self, carried: u32) -> u32 {
        self.value = self.value.max(carried).saturating_add(1);
        self.value
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ticks_are_strictly_increasing() {
        let mut c = Lamport::new();
        let a = c.tick();
        let b = c.tick();
        assert_eq!((a, b), (1, 2));
    }

    #[test]
    fn observe_is_strictly_after_both_parties() {
        let mut client = Lamport::new();
        let mut server = Lamport::new();
        // Client races ahead, server receives: recv > send.
        for _ in 0..5 {
            client.tick();
        }
        let sent = client.tick();
        let recv = server.observe(sent);
        assert!(recv > sent);
        // Reply flows back; the client's receive is after everything.
        let reply = server.tick();
        let back = client.observe(reply);
        assert!(back > reply && back > sent && back > recv);
    }

    #[test]
    fn observe_of_a_stale_stamp_still_advances() {
        let mut c = Lamport::new();
        c.tick();
        c.tick();
        let r = c.observe(1);
        assert_eq!(r, 3, "max(2, 1) + 1");
    }

    #[test]
    fn saturation_freezes_instead_of_wrapping() {
        let mut c = Lamport { value: u32::MAX };
        assert_eq!(c.tick(), u32::MAX);
        assert_eq!(c.observe(7), u32::MAX);
    }
}
