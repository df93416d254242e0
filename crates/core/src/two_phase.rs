//! §3.3 — complete two-phase SPFE: input selection + secure function
//! evaluation on the shares.
//!
//! The second phase comes in two flavors, matching Table 1's "efficient
//! scalability to arithmetic circuits?" column:
//!
//! * [`yao_phase`] — Yao's protocol on a Boolean circuit that first
//!   reconstructs `x_j = a_j + b_j mod p` from the shares and then applies
//!   `f` (the "composition overhead" circuit the paper describes for the
//!   Boolean case);
//! * [`arith_phase`] — the §3.3.4 protocol on an arithmetic circuit over
//!   the client's homomorphic plaintext ring, composed with the integer
//!   shares of `select3`.
//!
//! The end-to-end runners ([`run_select1_yao`] etc.) reproduce the four
//! single-server Table 1 rows together with `psm_spfe`. §3.3.1 + Yao is
//! written once, as one sequenced core per party ([`select1_yao_client`],
//! [`select1_yao_server`]) that the networked server hosts too.

use crate::input_select::{self, IntShares, Select1ClientCore, Select1ServerCore, SharesModP};
use crate::statistic::Statistic;
use spfe_circuits::boolean::Circuit;
use spfe_circuits::builders::bits_for;
use spfe_crypto::hom::{HomomorphicPk, HomomorphicSk};
use spfe_crypto::{ChaChaRng, SchnorrGroup};
use spfe_math::{Fp64, Nat, RandomSource};
use spfe_mpc::yao2pc::{self, to_bits, YaoClientCore, YaoServerCore};
use spfe_pir::spir::SpirParams;
use spfe_transport::{pump, Channel, ProtocolError, SessionCore, Then};
use std::borrow::Cow;

/// Yao MPC phase: evaluates the statistic on mod-`p` shares, by
/// [`yao2pc::run`].
///
/// # Errors
///
/// [`ProtocolError`] on any transport fault or malformed message.
///
/// # Panics
///
/// Panics if shares are empty or inconsistent (local setup bugs).
pub fn yao_phase<R: RandomSource + ?Sized>(
    t: &mut dyn Channel,
    group: &SchnorrGroup,
    shares: &SharesModP,
    stat: &Statistic,
    rng: &mut R,
) -> Result<Vec<u64>, ProtocolError> {
    let m = shares.server.len();
    assert!(m > 0 && shares.client.len() == m);
    let _s = spfe_obs::span("yao-phase");
    let circuit = stat.share_circuit(m, shares.p);
    let server_bits = share_bits(&shares.server, shares.p);
    let client_bits = share_bits(&shares.client, shares.p);
    let out = yao2pc::run(t, group, &circuit, &server_bits, &client_bits, rng)?;
    Ok(stat.decode_bits(&out, m, shares.p))
}

/// Shares mod `p` as the little-endian bit words a share circuit reads.
pub(crate) fn share_bits(shares: &[u64], p: u64) -> Vec<bool> {
    let w = bits_for(p - 1);
    shares.iter().flat_map(|&v| to_bits(v, w)).collect()
}

/// The client of §3.3.1 + Yao, as one sequenced core: select1's queries,
/// drawn here from `rng`; then, on the shares, the Yao evaluator of
/// `circuit` on the client's share bits followed by `extra` private
/// bits. The Yao phase draws from a stream seeded here from `rng`, after
/// the queries.
///
/// # Panics
///
/// Panics if an index is out of range.
#[allow(clippy::too_many_arguments, clippy::type_complexity)]
pub fn select1_yao_client<'a, P, S, R>(
    params: SpirParams,
    pk: P,
    sk: S,
    field: Fp64,
    indices: &[usize],
    circuit: Cow<'a, Circuit>,
    extra: Vec<bool>,
    rng: &mut R,
) -> Then<
    Select1ClientCore<P, S>,
    YaoClientCore<'a>,
    impl FnOnce(Select1ClientCore<P, S>) -> Result<YaoClientCore<'a>, ProtocolError> + 'a,
>
where
    P: HomomorphicPk + 'a,
    S: HomomorphicSk<P> + 'a,
    R: RandomSource + ?Sized,
{
    let group = params.group.clone();
    let phase = spfe_obs::span("select1");
    let select = Select1ClientCore::new(params, pk, sk, field, indices, rng);
    let mut later = ChaChaRng::from_rng(rng);
    let p = field.modulus();
    Then::new(select, move |select| {
        let mut bits = share_bits(&select.into_shares().unwrap_or_default(), p);
        bits.extend(extra);
        Ok(YaoClientCore::new(group, circuit, &bits, &mut later))
    })
    .in_spans(phase, "yao-phase")
}

/// The server of §3.3.1 + Yao, as one sequenced core: select1 over `db`
/// for selections of `m` items, then the Yao garbler of `circuit` on its
/// share bits. Both phases draw from `rng`.
///
/// # Panics
///
/// As [`Select1ServerCore::new`].
pub fn select1_yao_server<'a, P, G>(
    params: SpirParams,
    pk: P,
    field: Fp64,
    m: usize,
    db: impl Into<Cow<'a, [u64]>>,
    circuit: Cow<'a, Circuit>,
    rng: G,
) -> impl SessionCore + 'a
where
    P: HomomorphicPk + 'a,
    G: RandomSource + 'a,
{
    let group = params.group.clone();
    let p = field.modulus();
    let select = Select1ServerCore::new(params, pk, field, m, db, rng);
    Then::new(select, move |select| {
        let (shares, rng) = select.into_parts();
        Ok(YaoServerCore::new(
            group,
            circuit,
            share_bits(&shares, p),
            rng,
        ))
    })
}

/// §3.3.4 arithmetic MPC phase on integer shares: evaluates the statistic
/// over the client's homomorphic ring. Returns exact integer results
/// (shares are exact over ℤ and values stay far below the ring modulus).
///
/// # Errors
///
/// [`ProtocolError`] on any transport fault or malformed message.
///
/// # Panics
///
/// Panics on empty shares or if the ring is too small (local setup bugs).
pub fn arith_phase<P, S, R>(
    t: &mut dyn Channel,
    pk: &P,
    sk: &S,
    shares: &IntShares,
    stat: &Statistic,
    rng: &mut R,
) -> Result<Vec<Nat>, ProtocolError>
where
    P: HomomorphicPk,
    S: HomomorphicSk<P>,
    R: RandomSource + ?Sized,
{
    let m = shares.server.len();
    assert!(m > 0 && shares.client_masks.len() == m);
    let _s = spfe_obs::span("arith-phase");
    let ring = pk.plaintext_modulus().clone();
    let circuit = stat.share_arith_circuit(m, ring.clone());
    // Client inputs: −R_j mod ring; server inputs: S_j mod ring.
    let client_inputs: Vec<Nat> = shares
        .client_masks
        .iter()
        .map(|r| spfe_math::modular::mod_neg(&r.rem(&ring), &ring))
        .collect();
    let server_inputs: Vec<Nat> = shares.server.iter().map(|s| s.rem(&ring)).collect();
    spfe_mpc::arith_mpc::run(t, pk, sk, &circuit, &client_inputs, &server_inputs, rng)
}

/// §3.3.1 + Yao: the Table 1 "2 rounds / Weak" row, [`pump`] over
/// [`select1_yao_client`] and [`select1_yao_server`], which borrows `db`
/// and `rng`.
///
/// # Errors
///
/// [`ProtocolError`] on any transport fault or malformed message.
///
/// # Panics
///
/// Panics if an index is out of range or a database value ≥ `p` (local
/// setup bugs, not attacks).
#[allow(clippy::too_many_arguments)]
pub fn run_select1_yao<P, S, R>(
    t: &mut dyn Channel,
    group: &SchnorrGroup,
    pk: &P,
    sk: &S,
    db: &[u64],
    indices: &[usize],
    stat: &Statistic,
    field: Fp64,
    rng: &mut R,
) -> Result<Vec<u64>, ProtocolError>
where
    P: HomomorphicPk,
    S: HomomorphicSk<P>,
    R: RandomSource + ?Sized,
{
    let (m, p) = (indices.len(), field.modulus());
    let circuit = {
        let _s = spfe_obs::span("yao-phase");
        stat.share_circuit(m, p)
    };
    let params = SpirParams::new(group.clone(), db.len());
    let mut client = select1_yao_client(
        params.clone(),
        pk.clone(),
        sk.clone(),
        field,
        indices,
        Cow::Borrowed(&circuit),
        Vec::new(),
        rng,
    );
    let server = select1_yao_server(
        params,
        pk.clone(),
        field,
        m,
        db,
        Cow::Borrowed(&circuit),
        rng,
    );
    pump(t, &mut client, &mut [Box::new(server)])?;
    let out = client.second().and_then(YaoClientCore::output);
    Ok(stat.decode_bits(out.unwrap_or_default(), m, p))
}

/// §3.3.2 (variant 1) + Yao: "2 rounds / Weak, κm² overhead".
///
/// # Errors
///
/// [`ProtocolError`] on any transport fault or malformed message.
#[allow(clippy::too_many_arguments)]
pub fn run_select2v1_yao<P, S, R>(
    t: &mut dyn Channel,
    group: &SchnorrGroup,
    pk: &P,
    sk: &S,
    db: &[u64],
    indices: &[usize],
    stat: &Statistic,
    field: Fp64,
    rng: &mut R,
) -> Result<Vec<u64>, ProtocolError>
where
    P: HomomorphicPk,
    S: HomomorphicSk<P>,
    R: RandomSource + ?Sized,
{
    let shares = input_select::select2_v1(t, group, pk, sk, db, indices, field, rng)?;
    yao_phase(t, group, &shares, stat, rng)
}

/// §3.3.2 (variant 2) + Yao: "2.5 rounds / None*, κm overhead".
///
/// # Errors
///
/// [`ProtocolError`] on any transport fault or malformed message.
#[allow(clippy::too_many_arguments)]
pub fn run_select2v2_yao<PC, SC, PS, SS, R>(
    t: &mut dyn Channel,
    group: &SchnorrGroup,
    client_pk: &PC,
    client_sk: &SC,
    server_pk: &PS,
    server_sk: &SS,
    db: &[u64],
    indices: &[usize],
    stat: &Statistic,
    field: Fp64,
    rng: &mut R,
) -> Result<Vec<u64>, ProtocolError>
where
    PC: HomomorphicPk,
    SC: HomomorphicSk<PC>,
    PS: HomomorphicPk,
    SS: HomomorphicSk<PS>,
    R: RandomSource + ?Sized,
{
    let shares = input_select::select2_v2(
        t, group, client_pk, client_sk, server_pk, server_sk, db, indices, field, rng,
    )?;
    yao_phase(t, group, &shares, stat, rng)
}

/// §3.3.3 + §3.3.4: "2 rounds / None*", scaling to arithmetic circuits.
///
/// Returns the statistic's outputs as exact integers.
///
/// # Errors
///
/// [`ProtocolError`] on any transport fault or malformed message.
#[allow(clippy::too_many_arguments)]
pub fn run_select3_arith<PC, SC, PS, SS, R>(
    t: &mut dyn Channel,
    group: &SchnorrGroup,
    client_pk: &PC,
    client_sk: &SC,
    server_pk: &PS,
    server_sk: &SS,
    db: &[u64],
    indices: &[usize],
    stat: &Statistic,
    rng: &mut R,
) -> Result<Vec<Nat>, ProtocolError>
where
    PC: HomomorphicPk,
    SC: HomomorphicSk<PC>,
    PS: HomomorphicPk,
    SS: HomomorphicSk<PS>,
    R: RandomSource + ?Sized,
{
    let value_bits = bits_for(db.iter().copied().max().unwrap_or(1));
    let shares = input_select::select3(
        t, group, client_pk, client_sk, server_pk, server_sk, db, indices, value_bits, rng,
    )?;
    arith_phase(t, client_pk, client_sk, &shares, stat, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::reference;
    use spfe_crypto::{ChaChaRng, HomomorphicScheme, Paillier};
    use spfe_transport::Transcript;

    fn crypto() -> (
        SchnorrGroup,
        spfe_crypto::PaillierPk,
        spfe_crypto::PaillierSk,
        ChaChaRng,
    ) {
        let mut rng = ChaChaRng::from_u64_seed(0x77);
        let group = SchnorrGroup::generate(96, &mut rng);
        let (pk, sk) = Paillier::keygen(160, &mut rng);
        (group, pk, sk, rng)
    }

    fn db() -> Vec<u64> {
        (0..24u64).map(|i| (i * 31 + 5) % 64).collect()
    }

    #[test]
    fn select1_yao_sum() {
        let (group, pk, sk, mut rng) = crypto();
        let database = db();
        let field = Fp64::new(65_537).unwrap();
        let indices = [3usize, 11, 23];
        let mut t = Transcript::new(1);
        let got = run_select1_yao(
            &mut t,
            &group,
            &pk,
            &sk,
            &database,
            &indices,
            &Statistic::Sum,
            field,
            &mut rng,
        )
        .unwrap();
        assert_eq!(
            got,
            vec![reference::sum(&database, &indices) % field.modulus()]
        );
        assert_eq!(t.report().half_rounds, 4, "2 rounds per Table 1");
    }

    #[test]
    fn select1_yao_frequency() {
        let (group, pk, sk, mut rng) = crypto();
        let database = vec![7u64, 3, 7, 1, 7, 0];
        let field = Fp64::new(257).unwrap();
        let indices = [0usize, 1, 2, 4];
        let mut t = Transcript::new(1);
        let got = run_select1_yao(
            &mut t,
            &group,
            &pk,
            &sk,
            &database,
            &indices,
            &Statistic::Frequency { keyword: 7 },
            field,
            &mut rng,
        )
        .unwrap();
        assert_eq!(got, vec![3]);
    }

    #[test]
    fn select2v1_yao_sum() {
        let (group, pk, sk, mut rng) = crypto();
        let database = db();
        let field = Fp64::new(65_537).unwrap();
        let indices = [0usize, 7, 15, 23];
        let mut t = Transcript::new(1);
        let got = run_select2v1_yao(
            &mut t,
            &group,
            &pk,
            &sk,
            &database,
            &indices,
            &Statistic::Sum,
            field,
            &mut rng,
        )
        .unwrap();
        assert_eq!(
            got,
            vec![reference::sum(&database, &indices) % field.modulus()]
        );
        assert_eq!(t.report().half_rounds, 4);
    }

    #[test]
    fn select2v2_yao_sum() {
        let (group, pk, sk, mut rng) = crypto();
        let (spk, ssk) = Paillier::keygen(160, &mut rng);
        let database = db();
        let field = Fp64::new(65_537).unwrap();
        let indices = [1usize, 12, 20];
        let mut t = Transcript::new(1);
        let got = run_select2v2_yao(
            &mut t,
            &group,
            &pk,
            &sk,
            &spk,
            &ssk,
            &database,
            &indices,
            &Statistic::Sum,
            field,
            &mut rng,
        )
        .unwrap();
        assert_eq!(
            got,
            vec![reference::sum(&database, &indices) % field.modulus()]
        );
        assert_eq!(t.report().half_rounds, 5, "2.5 rounds per Table 1");
    }

    #[test]
    fn select3_arith_sum() {
        let (group, pk, sk, mut rng) = crypto();
        let (spk, ssk) = Paillier::keygen(160, &mut rng);
        let database = db();
        let indices = [2usize, 9, 16, 23];
        let mut t = Transcript::new(1);
        let got = run_select3_arith(
            &mut t,
            &group,
            &pk,
            &sk,
            &spk,
            &ssk,
            &database,
            &indices,
            &Statistic::Sum,
            &mut rng,
        )
        .unwrap();
        assert_eq!(got, vec![Nat::from(reference::sum(&database, &indices))]);
        assert_eq!(t.report().half_rounds, 4, "2 rounds per Table 1");
    }

    #[test]
    fn select3_arith_sum_and_squares() {
        let (group, pk, sk, mut rng) = crypto();
        let (spk, ssk) = Paillier::keygen(160, &mut rng);
        let database = db();
        let indices = [5usize, 6, 7];
        let mut t = Transcript::new(1);
        let got = run_select3_arith(
            &mut t,
            &group,
            &pk,
            &sk,
            &spk,
            &ssk,
            &database,
            &indices,
            &Statistic::SumAndSquares,
            &mut rng,
        )
        .unwrap();
        let s = reference::sum(&database, &indices);
        let ss: u64 = indices.iter().map(|&i| database[i] * database[i]).sum();
        assert_eq!(got, vec![Nat::from(s), Nat::from(ss)]);
        // One extra round for the multiplication level: 3 rounds total.
        assert_eq!(t.report().half_rounds, 6);
    }

    #[test]
    fn select1_yao_median() {
        // The median statistic: a full Batcher sorting network evaluated
        // under garbling — the "heavy f" end of the MPC(m, C_f) spectrum.
        let (group, pk, sk, mut rng) = crypto();
        let database = vec![50u64, 3, 77, 12, 30, 61];
        let field = Fp64::new(127).unwrap();
        let indices = [0usize, 1, 2, 3, 4];
        let mut t = Transcript::new(1);
        let got = run_select1_yao(
            &mut t,
            &group,
            &pk,
            &sk,
            &database,
            &indices,
            &Statistic::Median,
            field,
            &mut rng,
        )
        .unwrap();
        // Values: 50, 3, 77, 12, 30 → sorted 3,12,30,50,77 → median 30.
        assert_eq!(got, vec![30]);
    }

    #[test]
    fn malicious_client_share_shift_gives_weak_security() {
        // The §3.3 discussion: a client that shifts its shares by Δ before
        // the MPC phase learns f(x_I + Δ) — a function of the same ≤ m
        // positions — and nothing more.
        let (group, pk, sk, mut rng) = crypto();
        let database = db();
        let field = Fp64::new(65_537).unwrap();
        let indices = [3usize, 11];
        let mut t = Transcript::new(1);
        let mut shares = input_select::select1(
            &mut t, &group, &pk, &sk, &database, &indices, field, &mut rng,
        )
        .unwrap();
        // Malicious shift by Δ = (10, 100).
        shares.client[0] = field.add(shares.client[0], 10);
        shares.client[1] = field.add(shares.client[1], 100);
        let got = yao_phase(&mut t, &group, &shares, &Statistic::Sum, &mut rng).unwrap();
        let honest = reference::sum(&database, &indices) % field.modulus();
        assert_eq!(
            got,
            vec![field.add(honest, 110)],
            "client learns f(x_I + Δ)"
        );
    }
}
