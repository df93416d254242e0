//! Adversarial conformance suite: every protocol driver × every fault
//! class (DESIGN.md §10).
//!
//! The driver table lives in `tests/common/mod.rs` (shared with the trace
//! conformance suite). Each driver below runs end to end over a
//! [`FaultyChannel`] whose seeded [`FaultPlan`] perturbs message
//! deliveries. The contract under test:
//!
//! * **masked faults** (drop, short delay, timeout, crash within the heal
//!   budget, duplicate, reorder) are absorbed by the transport's bounded
//!   retry and the client still computes the *correct* answer;
//! * **detected faults** (truncation, crash past the budget) surface as
//!   *typed* [`ProtocolError`]s — `Codec`, `TooManyFaulty` — never panics;
//! * **byzantine faults** (bit flips, well-formed-but-wrong payloads) may
//!   yield a wrong value (there is no integrity MAC in the paper's model)
//!   or a typed error, but never a panic;
//! * the whole schedule is a pure function of the fault seed, so every
//!   outcome here is exactly reproducible (`SPFE_FAULT_SEED` in CI).

mod common;

use common::*;
use spfe::core::multiserver;
use spfe::crypto::ChaChaRng;
use spfe::transport::{
    FaultAction, FaultPlan, FaultyChannel, OutMsg, ProtocolError, Wire, MAX_ATTEMPTS,
};

// ---------------------------------------------------------------------------
// The conformance matrix.
// ---------------------------------------------------------------------------

#[test]
fn honest_channel_matches_ground_truth_for_every_driver() {
    for d in drivers() {
        let n = honest_messages(&d);
        assert!(
            n >= 2,
            "[{}] at least one round trip, got {n} messages",
            d.name
        );
    }
}

#[test]
fn masked_fault_classes_are_retried_to_the_correct_answer() {
    use FaultAction::*;
    // (label, scripted plan) — every transient class the retry loop must
    // absorb without changing the client's output.
    let plans: Vec<(&str, Vec<(u64, FaultAction)>)> = vec![
        ("drop", vec![(0, Drop), (2, Drop)]),
        ("delay-within-budget", vec![(0, Delay(2))]),
        ("delay-timeout", vec![(1, Delay(10))]),
        ("crash-healed", vec![(0, Crash)]),
        ("duplicate", vec![(0, Duplicate), (2, Duplicate)]),
        ("reorder", vec![(1, Reorder)]),
    ];
    for d in drivers() {
        for (label, script) in &plans {
            let got = run_under(&d, FaultPlan::scripted(script.clone()), 2);
            assert_eq!(got, Ok(d.expect), "[{} × {label}]", d.name);
        }
    }
}

#[test]
fn truncation_surfaces_a_codec_error_never_a_panic() {
    for d in drivers() {
        let last = honest_messages(&d) - 1;
        for idx in [0, last] {
            let plan = FaultPlan::scripted(vec![(idx, FaultAction::Truncate)]);
            let got = run_under(&d, plan, 0);
            assert!(
                matches!(got, Err(ProtocolError::Codec(_))),
                "[{} × truncate@{idx}] expected Codec error, got {got:?}",
                d.name
            );
        }
    }
}

#[test]
fn bit_flips_never_panic_and_errors_stay_typed() {
    for d in drivers() {
        let last = honest_messages(&d) - 1;
        for idx in [0, last] {
            let plan = FaultPlan::scripted(vec![(idx, FaultAction::BitFlip)]);
            // No integrity MAC in the paper's model: a flipped bit may
            // yield a wrong-but-well-formed value (Ok) or any typed error.
            // The assertion is the *absence of a panic* plus typed-ness.
            let _ = run_under(&d, plan, 0);
        }
        let rate = FaultPlan::with_rate(0xB17F, FaultAction::BitFlip, 150);
        let _ = run_under(&d, rate, 0);
    }
}

#[test]
fn byzantine_payloads_never_panic_and_errors_stay_typed() {
    for d in drivers() {
        let last = honest_messages(&d) - 1;
        for idx in [0, last] {
            let plan = FaultPlan::scripted(vec![(idx, FaultAction::Byzantine)]);
            let _ = run_under(&d, plan, 0);
        }
        let rate = FaultPlan::with_rate(0xB52A, FaultAction::Byzantine, 150);
        let _ = run_under(&d, rate, 0);
    }
}

/// Seeded tamper runs per message index in
/// [`huge_length_words_never_panic_and_errors_stay_typed`].
const HUGE_WORD_PICKS: u64 = 16;

#[test]
fn huge_length_words_never_panic_and_errors_stay_typed() {
    // A length prefix near u64::MAX must fail the decode, never wrap the
    // reader's bounds check. At every message index of every driver, a
    // fixed-seed hook overwrites one aligned word that reads like a length
    // (1 ..= payload size: length prefixes do, ciphertext words almost
    // never) with u64::MAX minus a small offset. Ok or any typed error
    // passes; a panic fails the test.
    use spfe::math::{RandomSource, XorShiftRng};
    for (di, d) in drivers().iter().enumerate() {
        for idx in 0..honest_messages(d) {
            for pick in 0..HUGE_WORD_PICKS {
                let mut rng = XorShiftRng::new((di as u64) << 32 | idx << 8 | pick);
                let plan = FaultPlan::scripted(vec![(idx, FaultAction::Byzantine)]);
                let mut ch = FaultyChannel::new(d.servers, plan, 0);
                ch.set_tamper(Box::new(move |_, bytes| {
                    let word =
                        |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
                    let lengths: Vec<usize> = (0..bytes.len() / 8)
                        .map(|w| 8 * w)
                        .filter(|&at| (1..=bytes.len() as u64).contains(&word(at)))
                        .collect();
                    if lengths.is_empty() {
                        return;
                    }
                    let at = lengths[rng.next_below(lengths.len() as u64) as usize];
                    let huge = u64::MAX - rng.next_below(256);
                    bytes[at..at + 8].copy_from_slice(&huge.to_le_bytes());
                }));
                let _ = (d.run)(&mut ch);
            }
        }
    }
}

/// Mutated copies of each recorded message per cored driver in
/// [`mutated_messages_fed_to_cores_never_panic`], spread over the
/// messages so every core sees at most this many cases.
const CORE_MUTATIONS: usize = 1_200;

/// Drives cored driver `name` in process in `pump`'s delivery order,
/// feeding each message straight to its receiving core's `on_message`.
/// `tamper(i, bytes)` may rewrite delivery `i` first. Returns every
/// delivered message and the outcome (the first error ends the run).
fn drive_cores(
    name: &str,
    mut tamper: impl FnMut(usize, &mut Vec<u8>),
) -> (Vec<OutMsg>, Result<(), ProtocolError>) {
    let mut client = net_client_core(name).expect("client core");
    let mut servers = net_server_cores(name).expect("server cores");
    let mut log: Vec<OutMsg> = Vec::new();
    let mut run = || -> Result<(), ProtocolError> {
        let (_, mut outbox) = client.start()?;
        let mut half_round = 0u32;
        while !outbox.is_empty() {
            half_round += 1;
            let mut next = Vec::new();
            for mut m in outbox.drain(..) {
                tamper(log.len(), &mut m.payload);
                log.push(m.clone());
                let (_, outs) = if m.client_to_server {
                    let s = servers
                        .get_mut(m.server)
                        .ok_or(ProtocolError::InvalidMessage {
                            label: m.label,
                            reason: "misdirected",
                        })?;
                    s.on_message(half_round, m.server, m.label, &m.payload)?
                } else {
                    client.on_message(half_round, m.server, m.label, &m.payload)?
                };
                next.extend(outs);
            }
            outbox = next;
        }
        Ok(())
    };
    let outcome = run();
    (log, outcome)
}

/// One seeded mutation of a recorded message: truncate, extend, flip
/// bits, overwrite a run with `0xff`, or write a `u64::MAX`-like word at
/// any offset.
fn mutate(rng: &mut spfe::math::XorShiftRng, case: usize, bytes: &mut Vec<u8>) {
    use spfe::math::RandomSource;
    let mut below = |n: usize| rng.next_below(n.max(1) as u64) as usize;
    match case % 5 {
        0 => bytes.truncate(below(bytes.len())),
        1 => {
            let extra = 1 + below(16);
            bytes.extend((0..extra).map(|_| below(256) as u8));
        }
        2 => {
            for _ in 0..1 + below(8) {
                let bit = below(8 * bytes.len());
                if let Some(b) = bytes.get_mut(bit / 8) {
                    *b ^= 1 << (bit % 8);
                }
            }
        }
        3 => {
            let at = below(bytes.len());
            let end = bytes.len().min(at + 1 + below(32));
            bytes[at..end].fill(0xff);
        }
        _ => {
            let at = below(bytes.len().saturating_sub(7));
            let word = (u64::MAX - below(256) as u64).to_le_bytes();
            let end = bytes.len().min(at + 8);
            bytes[at..end].copy_from_slice(&word[..end - at]);
        }
    }
}

#[test]
fn mutated_messages_fed_to_cores_never_panic() {
    // Every cored driver's recorded honest session, replayed into fresh
    // cores with one message mutated: the receiving core (and whatever
    // runs after it) must return Ok or a typed ProtocolError. A panic is
    // caught only to name the failing case.
    use spfe::math::XorShiftRng;
    for (di, d) in cored_drivers().iter().enumerate() {
        let (log, honest) = drive_cores(d.name, |_, _| {});
        assert_eq!(honest, Ok(()), "[{}] honest replay", d.name);
        let per_message = CORE_MUTATIONS / log.len();
        for (at, m) in log.iter().enumerate() {
            for case in 0..per_message {
                let seed = (di as u64) << 40 | (at as u64) << 20 | case as u64;
                let mut rng = XorShiftRng::new(seed);
                let run = std::panic::AssertUnwindSafe(|| {
                    drive_cores(d.name, |i, bytes| {
                        if i == at {
                            mutate(&mut rng, case, bytes);
                        }
                    })
                });
                if std::panic::catch_unwind(run).is_err() {
                    panic!("[{}] {} message {at} case {case} panicked", d.name, m.label);
                }
            }
        }
    }
}

#[test]
fn crash_is_healed_within_tolerance_and_aborts_past_it() {
    for d in drivers() {
        // Within the budget: the crashed server is replaced and the run
        // completes correctly.
        let plan = FaultPlan::scripted(vec![(0, FaultAction::Crash)]);
        let mut ch = FaultyChannel::new(d.servers, plan, 1);
        assert_eq!((d.run)(&mut ch), Ok(d.expect), "[{} × crash tol=1]", d.name);
        assert_eq!(ch.healed_servers(), &[0], "[{}] server 0 replaced", d.name);

        // Past the budget: typed abort with the fault diagnosis.
        let plan = FaultPlan::scripted(vec![(0, FaultAction::Crash)]);
        let got = run_under(&d, plan, 0);
        assert_eq!(
            got,
            Err(ProtocolError::TooManyFaulty {
                tolerated: 0,
                observed: 1
            }),
            "[{} × crash tol=0]",
            d.name
        );
    }
}

#[test]
fn crash_after_message_n_is_masked_at_every_position() {
    // The "crash-server-after-message-N" sweep on one cheap two-server
    // driver and one single-server statistics driver: whatever the crash
    // position, one heal suffices and the answer is unchanged.
    for d in drivers() {
        if d.name != "xor2" && d.name != "weighted_sum" {
            continue;
        }
        let msgs = honest_messages(&d);
        for n in 0..msgs {
            let plan = FaultPlan::scripted(vec![(n, FaultAction::Crash)]);
            let got = run_under(&d, plan, 1);
            assert_eq!(got, Ok(d.expect), "[{} × crash@{n}]", d.name);
        }
    }
}

#[test]
fn repeated_drops_on_one_message_exhaust_the_retry_budget() {
    // Drop every attempt of the first logical message: after MAX_ATTEMPTS
    // the transport gives up with a typed RetriesExhausted, not a hang.
    let script: Vec<(u64, FaultAction)> = (0..MAX_ATTEMPTS as u64)
        .map(|i| (i, FaultAction::Drop))
        .collect();
    for d in drivers() {
        let got = run_under(&d, FaultPlan::scripted(script.clone()), 0);
        match got {
            Err(ProtocolError::RetriesExhausted { attempts, .. }) => {
                assert_eq!(attempts, MAX_ATTEMPTS, "[{}]", d.name)
            }
            other => panic!("[{}] expected RetriesExhausted, got {other:?}", d.name),
        }
    }
}

#[test]
fn mixed_fault_rates_are_deterministic_per_seed() {
    use FaultAction::*;
    let seed = FaultPlan::seed_from_env(0xF00D);
    let rates = vec![(Drop, 60), (Delay(1), 60), (Duplicate, 60), (Reorder, 40)];
    for d in drivers() {
        let a = run_under(&d, FaultPlan::mixed(seed, rates.clone()), 3);
        let b = run_under(&d, FaultPlan::mixed(seed, rates.clone()), 3);
        assert_eq!(a, b, "[{}] same seed ⇒ same outcome", d.name);
        // All classes in this mix are masked, so the outcome is correct
        // unless the seed stacked >MAX_ATTEMPTS faults on one message —
        // which the retry budget converts into a typed transient error.
        match a {
            Ok(v) => assert_eq!(v, d.expect, "[{}]", d.name),
            Err(e) => assert!(
                e.is_transient() || matches!(e, ProtocolError::RetriesExhausted { .. }),
                "[{}] unexpected error class: {e:?}",
                d.name
            ),
        }
    }
}

// ---------------------------------------------------------------------------
// Targeted byzantine substitutions: well-formed-but-wrong payloads with
// crisp, typed detection.
// ---------------------------------------------------------------------------

#[test]
fn xor2_answer_length_mismatch_is_detected() {
    // Substitute server 0's answer (message index 2: two queries precede
    // it) with a well-formed Vec<u8> of the wrong length.
    let plan = FaultPlan::scripted(vec![(2, FaultAction::Byzantine)]);
    let mut ch = FaultyChannel::new(2, plan, 0);
    ch.set_tamper(Box::new(|label, bytes| {
        assert_eq!(label, "pir2-answer");
        *bytes = vec![0u8; 3].to_bytes();
    }));
    let got = drv_xor2(&mut ch);
    assert_eq!(
        got,
        Err(ProtocolError::InvalidMessage {
            label: "pir2-answer",
            reason: "answer lengths differ",
        })
    );
}

#[test]
fn psm_server_rejects_a_query_count_other_than_m() {
    // A hosted server takes m from its own parameters (the psm_spfe
    // circuit, the select1 selection size), not from the message: one
    // SPIR query more or fewer than m (copies of a recorded one) is a
    // typed error, never an out-of-range lookup or an extra scan.
    for (name, label, reason) in [
        (
            "psm_spfe",
            "psm-spir-queries",
            "query count does not match the circuit's slots",
        ),
        (
            "two_phase",
            "sel1-queries",
            "query count does not match the selection size",
        ),
        (
            "universal",
            "sel1-queries",
            "query count does not match the selection size",
        ),
        (
            "frequency",
            "sel1-queries",
            "query count does not match the selection size",
        ),
    ] {
        let mut client = net_client_core(name).expect("client core");
        let (_, outs) = client.start().unwrap();
        assert_eq!(outs[0].label, label, "[{name}] first query");
        let queries = Vec::<spfe::pir::SpirQuery>::from_bytes(&outs[0].payload).unwrap();
        let m = queries.len();
        for count in [m + 1, m - 1] {
            let forged = vec![queries[0].clone(); count].to_bytes();
            let mut servers = net_server_cores(name).expect("server cores");
            assert_eq!(
                servers[0].on_message(1, 0, label, &forged),
                Err(ProtocolError::InvalidMessage { label, reason }),
                "[{name}, {count} queries]"
            );
        }
    }
}

#[test]
fn weighted_sum_functional_reply_tamper_is_detected_or_wrong_never_panic() {
    // Truncating the functional reply inside the (answers, func) pair to
    // an empty ciphertext must surface as a typed error.
    let plan = FaultPlan::scripted(vec![(1, FaultAction::Byzantine)]);
    let mut ch = FaultyChannel::new(1, plan, 0);
    ch.set_tamper(Box::new(|label, bytes| {
        if label == "wsum-answer" {
            bytes.clear();
        }
    }));
    let got = drv_weighted_sum(&mut ch);
    assert!(
        matches!(
            got,
            Err(ProtocolError::Codec(_)) | Err(ProtocolError::InvalidMessage { .. })
        ),
        "expected a typed decode/validation error, got {got:?}"
    );
}

#[test]
fn robust_multiserver_corrects_byzantine_answers_within_budget() {
    let params = ms_params().with_faults(1);
    let k = params.num_servers(); // k + 2e
    let db = db16();
    let expect = db[3] + db[10];
    let field = field();

    // One tampered answer (first answer message is index k): Berlekamp–
    // Welch decodes through it.
    let plan = FaultPlan::scripted(vec![(k as u64, FaultAction::Byzantine)]);
    let mut ch = FaultyChannel::new(k, plan, 0);
    ch.set_tamper(Box::new(move |label, bytes| {
        assert_eq!(label, "ms-answer");
        let v = u64::from_bytes(bytes).expect("answers are u64");
        *bytes = field.add(v, 3).to_bytes();
    }));
    let mut rng = ChaChaRng::from_u64_seed(0xB0B);
    let got = multiserver::run(&mut ch, &params, &db, &[3, 10], None, &mut rng);
    assert_eq!(got, Ok(vec![expect]), "one fault is within the budget");

    // Three tampered answers exceed max_faults = 1: typed abort with the
    // fault diagnosis, never a silent wrong answer.
    let script: Vec<(u64, FaultAction)> = (0..3)
        .map(|i| (k as u64 + i, FaultAction::Byzantine))
        .collect();
    let mut ch = FaultyChannel::new(k, FaultPlan::scripted(script), 0);
    ch.set_tamper(Box::new(move |_, bytes| {
        let v = u64::from_bytes(bytes).expect("answers are u64");
        *bytes = field.add(v, 7).to_bytes();
    }));
    let mut rng = ChaChaRng::from_u64_seed(0xB0C);
    let got = multiserver::run(&mut ch, &params, &db, &[3, 10], None, &mut rng);
    assert!(
        matches!(got, Err(ProtocolError::TooManyFaulty { tolerated: 1, .. })),
        "expected TooManyFaulty, got {got:?}"
    );
}

#[test]
fn dropped_messages_cost_no_bytes_and_duplicates_cost_double() {
    // Metering faithfulness on a real driver: the transcript records what
    // actually crossed the wire.
    let d = drivers().into_iter().find(|d| d.name == "hom_pir").unwrap();

    let mut honest = FaultyChannel::new(d.servers, FaultPlan::honest(), 0);
    assert_eq!((d.run)(&mut honest), Ok(d.expect));
    let base = honest.inner().report();

    // A dropped first attempt is retried; the delivered traffic is
    // byte-identical to the honest run.
    let mut dropped = FaultyChannel::new(
        d.servers,
        FaultPlan::scripted(vec![(0, FaultAction::Drop)]),
        0,
    );
    assert_eq!((d.run)(&mut dropped), Ok(d.expect));
    assert_eq!(dropped.inner().report(), base, "drops are not metered");
    assert_eq!(dropped.messages_attempted(), base.messages + 1);

    // A duplicated delivery is metered twice.
    let mut duped = FaultyChannel::new(
        d.servers,
        FaultPlan::scripted(vec![(0, FaultAction::Duplicate)]),
        0,
    );
    assert_eq!((d.run)(&mut duped), Ok(d.expect));
    let rep = duped.inner().report();
    assert_eq!(rep.messages, base.messages + 1, "duplicate metered twice");
    assert!(rep.total_bytes() > base.total_bytes());
}
