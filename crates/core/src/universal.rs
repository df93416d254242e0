//! Hiding the function itself: SPFE with a universal `f` (§1).
//!
//! The paper notes that "solutions where the servers should not learn even
//! `f` can be obtained by letting `f` be a 'universal function' and
//! allowing the client to specify the actual function to be evaluated via
//! some additional private input to `f`."
//!
//! Implemented here for function *menus*: the public function is a
//! combined circuit computing every statistic in an agreed menu and
//! multiplexing the outputs by private client selector bits. The server
//! learns the menu (that is the public `f`); which entry the client
//! actually evaluates stays hidden inside its garbled-circuit inputs.
//! After §3.3.1 input selection, the universal phase is the select1 + Yao
//! pair of sequenced cores (`two_phase::select1_yao_client` and
//! `select1_yao_server`) over [`universal_circuit`], the client's extra
//! input being [`menu_choice_bits`].

use crate::input_select::SharesModP;
use crate::statistic::Statistic;
use crate::two_phase::share_bits;
use spfe_circuits::boolean::{Circuit, CircuitBuilder, WireId};
use spfe_circuits::builders::bits_for;
use spfe_crypto::SchnorrGroup;
use spfe_math::RandomSource;
use spfe_mpc::yao2pc::{self, to_bits};
use spfe_transport::{Channel, ProtocolError};

/// Builds the universal circuit for a menu of statistics over `m` shared
/// items mod `p`.
///
/// Input layout: server shares (`m·w` bits) ‖ client shares (`m·w` bits) ‖
/// client selector (`⌈log₂ |menu|⌉` bits). Output: the selected
/// statistic's value, zero-padded to the widest menu entry.
///
/// # Panics
///
/// Panics if the menu is empty or any entry has more than one output.
pub fn universal_circuit(menu: &[Statistic], m: usize, p: u64) -> Circuit {
    assert!(!menu.is_empty(), "empty menu");
    assert!(
        menu.iter().all(|s| s.num_outputs() == 1),
        "menu entries must be single-output statistics"
    );
    let w = bits_for(p - 1);
    let sel_bits = bits_for(menu.len() as u64 - 1).max(1);
    let mut b = CircuitBuilder::new();
    let a_words: Vec<Vec<WireId>> = (0..m).map(|_| b.inputs(w)).collect();
    let b_words: Vec<Vec<WireId>> = (0..m).map(|_| b.inputs(w)).collect();
    let selector = b.inputs(sel_bits);

    // Reconstruct the items once; all menu entries share them.
    let xs: Vec<Vec<WireId>> = a_words
        .iter()
        .zip(&b_words)
        .map(|(aw, bw)| b.add_mod_words(aw, bw, p))
        .collect();

    // Evaluate every menu entry on the reconstructed items.
    let mut outputs: Vec<Vec<WireId>> = menu
        .iter()
        .map(|stat| eval_stat_on_words(&mut b, stat, &xs, p))
        .collect();
    let width = outputs.iter().map(|o| o.len()).max().unwrap();
    for o in &mut outputs {
        while o.len() < width {
            o.push(b.constant(false));
        }
    }

    // Mux tree over the menu driven by the selector bits.
    let mut level = outputs;
    for &sbit in &selector {
        let mut next = Vec::with_capacity(level.len().div_ceil(2));
        for pair in level.chunks(2) {
            if pair.len() == 2 {
                next.push(b.mux_words(sbit, &pair[0], &pair[1]));
            } else {
                next.push(pair[0].clone());
            }
        }
        level = next;
    }
    for wire in &level[0] {
        b.output(*wire);
    }
    b.build()
}

/// Evaluates one statistic on already-reconstructed item words.
fn eval_stat_on_words(
    b: &mut CircuitBuilder,
    stat: &Statistic,
    xs: &[Vec<WireId>],
    p: u64,
) -> Vec<WireId> {
    let w = xs[0].len();
    match stat {
        Statistic::Sum => {
            let mut acc = xs[0].clone();
            for x in &xs[1..] {
                acc = b.add_mod_words(&acc, x, p);
            }
            acc
        }
        Statistic::Frequency { keyword } => {
            assert!(*keyword < p);
            let kw: Vec<WireId> = (0..w)
                .map(|i| b.constant((keyword >> i) & 1 == 1))
                .collect();
            let mut flags = Vec::with_capacity(xs.len());
            for x in xs {
                flags.push(b.eq_words(x, &kw));
            }
            count_flags(b, flags)
        }
        Statistic::CountBelow { threshold } => {
            assert!(*threshold < p);
            let th: Vec<WireId> = (0..w)
                .map(|i| b.constant((threshold >> i) & 1 == 1))
                .collect();
            let mut flags = Vec::with_capacity(xs.len());
            for x in xs {
                flags.push(b.lt_words(x, &th));
            }
            count_flags(b, flags)
        }
        Statistic::Median => {
            let mut xs_sorted: Vec<Vec<WireId>> = xs.to_vec();
            spfe_circuits::builders::sort_words(b, &mut xs_sorted);
            xs_sorted[xs_sorted.len() / 2].clone()
        }
        Statistic::SumAndSquares => panic!("multi-output entries unsupported in menus"),
    }
}

fn count_flags(b: &mut CircuitBuilder, flags: Vec<WireId>) -> Vec<WireId> {
    let mut acc: Vec<WireId> = vec![flags[0]];
    for &f in &flags[1..] {
        let fx = vec![f];
        // add_words over unequal widths: pad.
        let w = acc.len();
        let mut padded = fx;
        while padded.len() < w {
            padded.push(b.constant(false));
        }
        acc = b.add_words(&acc, &padded);
    }
    acc
}

/// The universal MPC phase: like `two_phase::yao_phase` but with the
/// client's private `choice` of menu entry. The server sees only the menu.
///
/// # Errors
///
/// [`ProtocolError`] on any transport fault or malformed message.
///
/// # Panics
///
/// Panics if `choice >= menu.len()` or shares are inconsistent (local
/// setup bugs, not attacks).
pub fn universal_yao_phase<R: RandomSource + ?Sized>(
    t: &mut dyn Channel,
    group: &SchnorrGroup,
    shares: &SharesModP,
    menu: &[Statistic],
    choice: usize,
    rng: &mut R,
) -> Result<u64, ProtocolError> {
    let choice_bits = menu_choice_bits(menu, choice);
    let _s = spfe_obs::span("universal-yao-phase");
    let circuit = universal_circuit(menu, shares.server.len(), shares.p);
    let server_bits = share_bits(&shares.server, shares.p);
    let mut client_bits = share_bits(&shares.client, shares.p);
    client_bits.extend(choice_bits);
    let out = yao2pc::run(t, group, &circuit, &server_bits, &client_bits, rng)?;
    Ok(yao2pc::from_bits(&out))
}

/// The client's private selector input to [`universal_circuit`]: entry
/// `choice` of `menu`, LSB first (the mux tree consumes selector bit `i`
/// at level `i`). Appended to the client's share bits, it makes
/// `two_phase::select1_yao_client` the universal client.
///
/// # Panics
///
/// Panics if `choice >= menu.len()`.
pub fn menu_choice_bits(menu: &[Statistic], choice: usize) -> Vec<bool> {
    assert!(choice < menu.len(), "choice out of menu");
    to_bits(choice as u64, bits_for(menu.len() as u64 - 1).max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input_select::select1;
    use spfe_crypto::{ChaChaRng, HomomorphicScheme, Paillier};
    use spfe_math::Fp64;
    use spfe_transport::Transcript;

    fn menu() -> Vec<Statistic> {
        vec![
            Statistic::Sum,
            Statistic::Frequency { keyword: 9 },
            Statistic::CountBelow { threshold: 10 },
        ]
    }

    #[test]
    fn universal_circuit_selects_each_entry() {
        let p = 31u64;
        let m = 3;
        let c = universal_circuit(&menu(), m, p);
        let w = bits_for(p - 1);
        let xs = [9u64, 4, 9];
        let a = [7u64, 30, 2];
        let b: Vec<u64> = xs
            .iter()
            .zip(&a)
            .map(|(&x, &av)| (x + p - av) % p)
            .collect();
        let expects = [22u64 % p, 2, 3]; // sum mod 31, freq of 9, count < 10
        for (choice, &expect) in expects.iter().enumerate() {
            let mut input: Vec<bool> = a.iter().flat_map(|&v| to_bits(v, w)).collect();
            input.extend(b.iter().flat_map(|&v| to_bits(v, w)));
            input.extend(to_bits(choice as u64, 2));
            assert_eq!(c.evaluate_to_u64(&input), expect, "choice={choice}");
        }
    }

    #[test]
    fn end_to_end_function_hiding() {
        let mut rng = ChaChaRng::from_u64_seed(0x0F);
        let group = SchnorrGroup::generate(96, &mut rng);
        let (pk, sk) = Paillier::keygen(160, &mut rng);
        let field = Fp64::new(31).unwrap();
        let db = vec![9u64, 4, 9, 30, 2, 9];
        let indices = [0usize, 2, 4];
        // Clear values: 9, 9, 2 — all below 10.
        let expects = [20u64, 2, 3]; // sum, freq(9), count<10
        for (choice, &expect) in expects.iter().enumerate() {
            let mut t = Transcript::new(1);
            let shares = select1(&mut t, &group, &pk, &sk, &db, &indices, field, &mut rng).unwrap();
            let got =
                universal_yao_phase(&mut t, &group, &shares, &menu(), choice, &mut rng).unwrap();
            assert_eq!(got, expect, "choice={choice}");
        }
    }

    #[test]
    fn server_view_is_choice_independent() {
        // The server's view — the circuit and message sizes — is identical
        // for every menu choice (the selector travels only inside OT).
        let mut rng = ChaChaRng::from_u64_seed(0x10);
        let group = SchnorrGroup::generate(96, &mut rng);
        let (pk, sk) = Paillier::keygen(160, &mut rng);
        let field = Fp64::new(31).unwrap();
        let db = vec![1u64, 2, 3, 4];
        let mut sizes = Vec::new();
        for choice in 0..3 {
            let mut t = Transcript::new(1);
            let shares = select1(&mut t, &group, &pk, &sk, &db, &[1, 3], field, &mut rng).unwrap();
            universal_yao_phase(&mut t, &group, &shares, &menu(), choice, &mut rng).unwrap();
            sizes.push(t.report().client_to_server as f64);
        }
        // Variable-length bignum encodings jitter by a few bytes; the view
        // must not vary *structurally* with the choice.
        for pair in sizes.windows(2) {
            assert!(
                (pair[0] - pair[1]).abs() / pair[0] < 0.01,
                "sizes {sizes:?} differ structurally"
            );
        }
    }

    #[test]
    #[should_panic(expected = "choice out of menu")]
    fn out_of_menu_choice_rejected() {
        let mut rng = ChaChaRng::from_u64_seed(0x11);
        let group = SchnorrGroup::generate(96, &mut rng);
        let shares = SharesModP {
            p: 31,
            server: vec![1],
            client: vec![2],
        };
        let mut t = Transcript::new(1);
        let _ = universal_yao_phase(&mut t, &group, &shares, &menu(), 5, &mut rng);
    }
}
