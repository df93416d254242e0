//! The shared conformance harness: every protocol in the workspace as a
//! uniform driver table, with secret-input variants for the leakage audit.
//!
//! Both the test suites (`tests/adversarial.rs`, `tests/trace_conformance.rs`,
//! `tests/mem_profile.rs`, `tests/leakage_audit.rs`) and the `spfe-tables
//! audit` differential harness consume this table, so the set of audited
//! protocols and the set of conformance-tested protocols can never drift
//! apart.
//!
//! One (small) Schnorr group and Paillier keypair are generated once per
//! process; key generation dominates setup time, the protocols themselves
//! run on 16–27-item databases. Each driver owns its rng seed, so a run is
//! a pure function of `(channel fault plan, secret variant)` — the
//! reproducibility property every suite leans on.
//!
//! **Secret variants.** Each driver runs under [`NUM_VARIANTS`] systematic
//! variations of its *secret* inputs — the client's indices, the database
//! contents, the weight/coefficient vector, the selected statistic — while
//! every *public* parameter (database size, sample size `m`, field, keys,
//! circuit shape, rng seeds) stays fixed. Variant 0 is the canonical run
//! the conformance suites use. The differential leakage audit (DESIGN.md
//! §14) asserts that every party-view fingerprint is bit-identical across
//! all variants: the wire shape must not depend on what the protocol is
//! hiding.

use spfe_circuits::boolean::Circuit;
use spfe_circuits::builders::sum_circuit;
use spfe_core::database::reference;
use spfe_core::input_select::select1;
use spfe_core::multiserver::{self, MsFunction, MultiServerParams};
use spfe_core::{psm_spfe, stats, two_phase, universal, Statistic};
use spfe_crypto::{ChaChaRng, HomomorphicScheme, Paillier, PaillierPk, PaillierSk, SchnorrGroup};
use spfe_math::Fp64;
use spfe_pir::poly_it::{self, PolyItParams};
use spfe_pir::spir::{self, SpirParams};
use spfe_pir::{batched, hom_pir, recursive, xor2};
use spfe_transport::{
    pump, Channel, ClientCore, FaultPlan, FaultyChannel, ProtocolError, SessionCore,
};
use std::borrow::Cow;
use std::sync::OnceLock;

/// How many secret-input variants every driver supports (variant 0 is the
/// canonical conformance run).
pub const NUM_VARIANTS: usize = 3;

/// The process-wide crypto fixture shared by every driver.
pub struct Fixture {
    /// A small Schnorr group (96-bit prime) for the SPIR/OT substrates.
    pub group: SchnorrGroup,
    /// Paillier public key (160-bit modulus).
    pub pk: PaillierPk,
    /// Paillier secret key.
    pub sk: PaillierSk,
}

/// The lazily generated [`Fixture`] (one keygen per process).
pub fn fx() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let mut rng = ChaChaRng::from_u64_seed(0xADE5);
        let group = SchnorrGroup::generate(96, &mut rng);
        let (pk, sk) = Paillier::keygen(160, &mut rng);
        Fixture { group, pk, sk }
    })
}

/// The canonical 16-item database (variant 0 of [`db16_v`]).
pub fn db16() -> Vec<u64> {
    db16_v(0)
}

/// A 16-item database whose *contents* (not size) vary with the secret
/// variant `v`.
pub fn db16_v(v: usize) -> Vec<u64> {
    assert!(v < NUM_VARIANTS);
    (0..16u64)
        .map(|i| (i * 7 + 3 + 11 * v as u64) % 50)
        .collect()
}

/// A 27-item database whose contents vary with the secret variant `v`.
pub fn db27_v(v: usize) -> Vec<u64> {
    assert!(v < NUM_VARIANTS);
    (0..27u64)
        .map(|i| (i * 5 + 2 + 7 * v as u64) % 40)
        .collect()
}

/// A 16-record byte database whose contents vary with the secret variant.
pub fn xor_db_v(v: usize) -> Vec<Vec<u8>> {
    assert!(v < NUM_VARIANTS);
    let salt = (v as u8) * 13;
    (0..16u8)
        .map(|i| {
            (0..4u8)
                .map(|j| {
                    i.wrapping_mul(31)
                        .wrapping_add(j * 7 + 1)
                        .wrapping_add(salt)
                })
                .collect()
        })
        .collect()
}

/// The shared arithmetic field (public parameter, never varied).
pub fn field() -> Fp64 {
    Fp64::at_least(1_000)
}

/// Per-variant client index into a 16-item database (single-index
/// protocols).
fn idx16(v: usize, choices: [usize; NUM_VARIANTS]) -> usize {
    assert!(v < NUM_VARIANTS);
    choices[v]
}

// ---------------------------------------------------------------------------
// The driver table: every protocol in the workspace, each reduced to a
// `u64` digest so one matrix covers them all.
// ---------------------------------------------------------------------------

/// A canonical (variant-0) driver entry point.
pub type DriverFn = fn(&mut dyn Channel) -> Result<u64, ProtocolError>;

/// A driver entry point under secret variant `v < NUM_VARIANTS`.
pub type VariantFn = fn(&mut dyn Channel, usize) -> Result<u64, ProtocolError>;

/// One row of the conformance/audit driver table.
pub struct Driver {
    /// Stable driver name (doubles as the audit-report id).
    pub name: &'static str,
    /// Number of servers the protocol runs against.
    pub servers: usize,
    /// Expected digest of the canonical (variant-0) run.
    pub expect: u64,
    /// The canonical run (variant 0).
    pub run: DriverFn,
    /// The run under a chosen secret variant.
    pub run_variant: VariantFn,
    /// Expected digest per secret variant.
    pub expect_variant: fn(usize) -> u64,
}

/// A cored driver's inputs under a secret variant: the client's rng, the
/// database and the client's index (or index set). The in-process driver,
/// its expected digest and the networked cores ([`net_client_core`],
/// [`net_server_cores`]) all read them from its `*_inputs` function.
type Inputs<D, I> = (ChaChaRng, D, I);

fn xor2_inputs(v: usize) -> Inputs<Vec<Vec<u8>>, usize> {
    let rng = ChaChaRng::from_u64_seed(0xA0);
    (rng, xor_db_v(v), idx16(v, [5, 3, 12]))
}

fn byte_sum(item: &[u8]) -> u64 {
    item.iter().map(|&b| u64::from(b)).sum()
}

/// xor2 variant `v`: two-server XOR PIR; the record index is the secret.
pub fn drv_xor2_v(t: &mut dyn Channel, v: usize) -> Result<u64, ProtocolError> {
    let (mut rng, db, index) = xor2_inputs(v);
    Ok(byte_sum(&xor2::run(t, &db, index, &mut rng)?))
}

fn expect_xor2(v: usize) -> u64 {
    let (_, db, index) = xor2_inputs(v);
    byte_sum(&db[index])
}

/// The canonical xor2 run.
pub fn drv_xor2(t: &mut dyn Channel) -> Result<u64, ProtocolError> {
    drv_xor2_v(t, 0)
}

fn hom_pir_inputs(v: usize) -> Inputs<Vec<u64>, usize> {
    let rng = ChaChaRng::from_u64_seed(0xA1);
    (rng, db16_v(v), idx16(v, [9, 0, 15]))
}

/// hom_pir variant `v`: √n homomorphic PIR; index and db are the secrets.
pub fn drv_hom_pir_v(t: &mut dyn Channel, v: usize) -> Result<u64, ProtocolError> {
    let (mut rng, db, index) = hom_pir_inputs(v);
    hom_pir::run(t, &fx().pk, &fx().sk, &db, index, &mut rng)
}

fn expect_hom_pir(v: usize) -> u64 {
    let (_, db, index) = hom_pir_inputs(v);
    db[index]
}

/// The canonical hom_pir run.
pub fn drv_hom_pir(t: &mut dyn Channel) -> Result<u64, ProtocolError> {
    drv_hom_pir_v(t, 0)
}

fn recursive_inputs(v: usize) -> Inputs<Vec<u64>, usize> {
    let rng = ChaChaRng::from_u64_seed(0xA2);
    (rng, db27_v(v), [13, 1, 26][v])
}

/// recursive variant `v`: depth-2 recursive PIR on the 27-item db.
pub fn drv_recursive_v(t: &mut dyn Channel, v: usize) -> Result<u64, ProtocolError> {
    let (mut rng, db, index) = recursive_inputs(v);
    recursive::run(t, &fx().pk, &fx().sk, &db, index, &mut rng)
}

fn expect_recursive(v: usize) -> u64 {
    let (_, db, index) = recursive_inputs(v);
    db[index]
}

/// The canonical recursive run.
pub fn drv_recursive(t: &mut dyn Channel) -> Result<u64, ProtocolError> {
    drv_recursive_v(t, 0)
}

fn spir_inputs(v: usize) -> Inputs<Vec<u64>, usize> {
    let rng = ChaChaRng::from_u64_seed(0xA3);
    (rng, db16_v(v), idx16(v, [7, 2, 11]))
}

/// The shared spir parameters (public).
fn spir_params() -> SpirParams {
    SpirParams::new(fx().group.clone(), 16)
}

/// spir variant `v`: single-server SPIR; index and db are the secrets.
pub fn drv_spir_v(t: &mut dyn Channel, v: usize) -> Result<u64, ProtocolError> {
    let (mut rng, db, index) = spir_inputs(v);
    spir::run(t, &spir_params(), &fx().pk, &fx().sk, &db, index, &mut rng)
}

fn expect_spir(v: usize) -> u64 {
    let (_, db, index) = spir_inputs(v);
    db[index]
}

/// The canonical spir run.
pub fn drv_spir(t: &mut dyn Channel) -> Result<u64, ProtocolError> {
    drv_spir_v(t, 0)
}

const BATCHED_INDICES: [[usize; 4]; NUM_VARIANTS] = [[1, 5, 9, 14], [0, 2, 3, 15], [4, 7, 8, 12]];

fn batched_inputs(v: usize) -> Inputs<Vec<u64>, [usize; 4]> {
    let rng = ChaChaRng::from_u64_seed(0xA4);
    (rng, db16_v(v), BATCHED_INDICES[v])
}

/// batched variant `v`: cuckoo-batched SPIR; the index *set* is the secret.
pub fn drv_batched_v(t: &mut dyn Channel, v: usize) -> Result<u64, ProtocolError> {
    let (mut rng, db, indices) = batched_inputs(v);
    let f = fx();
    let (vals, _) = batched::run(t, &f.group, &f.pk, &f.sk, &db, &indices, &mut rng)?;
    Ok(vals.iter().sum())
}

fn expect_batched(v: usize) -> u64 {
    let (_, db, indices) = batched_inputs(v);
    indices.iter().map(|&i| db[i]).sum()
}

/// The canonical batched run.
pub fn drv_batched(t: &mut dyn Channel) -> Result<u64, ProtocolError> {
    drv_batched_v(t, 0)
}

fn poly_it_inputs(v: usize) -> Inputs<Vec<u64>, usize> {
    let rng = ChaChaRng::from_u64_seed(0xA5);
    (rng, db16_v(v), idx16(v, [5, 8, 2]))
}

/// poly_it variant `v`: polynomial-interpolation PIR.
pub fn drv_poly_it_v(t: &mut dyn Channel, v: usize) -> Result<u64, ProtocolError> {
    let (mut rng, db, index) = poly_it_inputs(v);
    poly_it::run(t, &poly_params(), &db, index, None, &mut rng)
}

fn expect_poly_it(v: usize) -> u64 {
    let (_, db, index) = poly_it_inputs(v);
    db[index]
}

/// The canonical poly_it run.
pub fn drv_poly_it(t: &mut dyn Channel) -> Result<u64, ProtocolError> {
    drv_poly_it_v(t, 0)
}

/// The shared poly_it parameters (public).
pub fn poly_params() -> PolyItParams {
    PolyItParams::new(16, 1, field())
}

fn ms_inputs(v: usize) -> Inputs<Vec<u64>, [usize; 2]> {
    let rng = ChaChaRng::from_u64_seed(0xA6);
    (rng, db16_v(v), [[3, 10], [0, 15], [6, 7]][v])
}

/// multiserver variant `v`: Theorem 2 multi-server SPFE, f = sum.
pub fn drv_multiserver_v(t: &mut dyn Channel, v: usize) -> Result<u64, ProtocolError> {
    let (mut rng, db, index) = ms_inputs(v);
    multiserver::run(t, &ms_params(), &db, &index, None, &mut rng).map(|sums| sums[0])
}

fn expect_multiserver(v: usize) -> u64 {
    let (_, db, index) = ms_inputs(v);
    (db[index[0]] + db[index[1]]) % field().modulus()
}

/// The canonical multiserver run.
pub fn drv_multiserver(t: &mut dyn Channel) -> Result<u64, ProtocolError> {
    drv_multiserver_v(t, 0)
}

/// The shared multiserver parameters (public).
pub fn ms_params() -> MultiServerParams {
    MultiServerParams::new(16, 1, field(), MsFunction::Sum { m: 2 })
}

const SELECT1_INDICES: [[usize; 2]; NUM_VARIANTS] = [[2, 7], [1, 14], [0, 9]];

/// input_select variant `v`: §3.3.1 input selection into shares.
pub fn drv_select1_v(t: &mut dyn Channel, v: usize) -> Result<u64, ProtocolError> {
    let mut rng = ChaChaRng::from_u64_seed(0xA7);
    let f = fx();
    let shares = select1(
        t,
        &f.group,
        &f.pk,
        &f.sk,
        &db16_v(v),
        &SELECT1_INDICES[v],
        field(),
        &mut rng,
    )?;
    Ok(shares.reconstruct().iter().sum())
}

fn expect_select1(v: usize) -> u64 {
    let db = db16_v(v);
    SELECT1_INDICES[v].iter().map(|&i| db[i]).sum()
}

/// The canonical input_select run.
pub fn drv_select1(t: &mut dyn Channel) -> Result<u64, ProtocolError> {
    drv_select1_v(t, 0)
}

const PSM_INDICES: [[usize; 2]; NUM_VARIANTS] = [[2, 11], [5, 6], [0, 13]];
/// Bits per item of the psm_spfe circuit (public).
const PSM_ITEM_BITS: usize = 8;

fn psm_inputs(v: usize) -> Inputs<Vec<u64>, [usize; 2]> {
    let rng = ChaChaRng::from_u64_seed(0xA8);
    (rng, db16_v(v), PSM_INDICES[v])
}

/// The psm_spfe circuit: the sum of two 8-bit items (public).
fn psm_circuit() -> Circuit {
    sum_circuit(2, PSM_ITEM_BITS)
}

/// psm_spfe variant `v`: PSM-based SPFE over the 2-input sum circuit.
pub fn drv_psm_v(t: &mut dyn Channel, v: usize) -> Result<u64, ProtocolError> {
    let (mut rng, db, indices) = psm_inputs(v);
    let f = fx();
    psm_spfe::run_yao_psm(
        t,
        &f.group,
        &f.pk,
        &f.sk,
        &db,
        &indices,
        &psm_circuit(),
        PSM_ITEM_BITS,
        &mut rng,
    )
}

fn expect_psm(v: usize) -> u64 {
    let (_, db, indices) = psm_inputs(v);
    indices.iter().map(|&i| db[i]).sum()
}

/// The canonical psm_spfe run.
pub fn drv_psm(t: &mut dyn Channel) -> Result<u64, ProtocolError> {
    drv_psm_v(t, 0)
}

const TWO_PHASE_INDICES: [[usize; 3]; NUM_VARIANTS] = [[1, 6, 12], [0, 3, 5], [2, 9, 15]];

fn two_phase_inputs(v: usize) -> Inputs<Vec<u64>, [usize; 3]> {
    let rng = ChaChaRng::from_u64_seed(0xA9);
    (rng, db16_v(v), TWO_PHASE_INDICES[v])
}

/// The two_phase circuit: the sum statistic on three shares (public).
fn two_phase_circuit() -> Circuit {
    Statistic::Sum.share_circuit(3, field().modulus())
}

/// two_phase variant `v`: select1 + Yao evaluation of the sum statistic.
pub fn drv_two_phase_v(t: &mut dyn Channel, v: usize) -> Result<u64, ProtocolError> {
    let (mut rng, db, indices) = two_phase_inputs(v);
    let f = fx();
    let got = two_phase::run_select1_yao(
        t,
        &f.group,
        &f.pk,
        &f.sk,
        &db,
        &indices,
        &Statistic::Sum,
        field(),
        &mut rng,
    )?;
    Ok(got[0])
}

fn expect_two_phase(v: usize) -> u64 {
    let (_, db, indices) = two_phase_inputs(v);
    reference::sum(&db, &indices)
}

/// The canonical two_phase run.
pub fn drv_two_phase(t: &mut dyn Channel) -> Result<u64, ProtocolError> {
    drv_two_phase_v(t, 0)
}

const UNIVERSAL_INDICES: [[usize; 2]; NUM_VARIANTS] = [[0, 4], [3, 12], [5, 9]];
/// Which entry of the (public) statistic menu the client secretly selects.
const UNIVERSAL_SELECTION: [usize; NUM_VARIANTS] = [0, 1, 0];

fn universal_menu() -> [Statistic; 2] {
    [Statistic::Sum, Statistic::Frequency { keyword: 9 }]
}

fn universal_inputs(v: usize) -> Inputs<Vec<u64>, ([usize; 2], usize)> {
    let rng = ChaChaRng::from_u64_seed(0xAA);
    (
        rng,
        db16_v(v),
        (UNIVERSAL_INDICES[v], UNIVERSAL_SELECTION[v]),
    )
}

/// The universal circuit: the menu over two shares (public).
fn universal_circuit() -> Circuit {
    universal::universal_circuit(&universal_menu(), 2, field().modulus())
}

/// The universal client: select1, then Yao on the shares and the
/// secretly chosen menu entry.
fn universal_client(
    circuit: Cow<'_, Circuit>,
    v: usize,
) -> (Vec<u64>, impl ClientCore + '_, ChaChaRng) {
    let (mut rng, db, (indices, choice)) = universal_inputs(v);
    let f = fx();
    let client = two_phase::select1_yao_client(
        SpirParams::new(f.group.clone(), db.len()),
        f.pk.clone(),
        f.sk.clone(),
        field(),
        &indices,
        circuit,
        universal::menu_choice_bits(&universal_menu(), choice),
        &mut rng,
    );
    (db, client, rng)
}

/// universal variant `v`: the function-hiding phase — indices *and* the
/// selected menu entry are secrets.
pub fn drv_universal_v(t: &mut dyn Channel, v: usize) -> Result<u64, ProtocolError> {
    let circuit = universal_circuit();
    let (db, mut client, mut rng) = universal_client(Cow::Borrowed(&circuit), v);
    let f = fx();
    let server = two_phase::select1_yao_server(
        SpirParams::new(f.group.clone(), db.len()),
        f.pk.clone(),
        field(),
        2,
        db,
        Cow::Borrowed(&circuit),
        &mut rng,
    );
    let mut servers = [Box::new(server)];
    pump(t, &mut client, &mut servers)
}

fn expect_universal(v: usize) -> u64 {
    let (_, db, (indices, choice)) = universal_inputs(v);
    match universal_menu()[choice] {
        Statistic::Sum => reference::sum(&db, &indices),
        Statistic::Frequency { keyword } => reference::frequency(&db, &indices, keyword),
        _ => unreachable!("menu holds only sum and frequency"),
    }
}

/// The canonical universal run.
pub fn drv_universal(t: &mut dyn Channel) -> Result<u64, ProtocolError> {
    drv_universal_v(t, 0)
}

const WS_INDICES: [[usize; 3]; NUM_VARIANTS] = [[1, 4, 9], [0, 2, 3], [5, 10, 15]];
const WS_WEIGHTS: [[u64; 3]; NUM_VARIANTS] = [[2, 3, 1], [1, 1, 4], [3, 2, 2]];

fn ws_inputs(v: usize) -> Inputs<Vec<u64>, ([usize; 3], [u64; 3])> {
    let rng = ChaChaRng::from_u64_seed(0xAB);
    (rng, db16_v(v), (WS_INDICES[v], WS_WEIGHTS[v]))
}

/// weighted_sum variant `v`: §4 weighted sum — indices *and* the weight
/// vector are secrets.
pub fn drv_weighted_sum_v(t: &mut dyn Channel, v: usize) -> Result<u64, ProtocolError> {
    let (mut rng, db, (indices, weights)) = ws_inputs(v);
    let f = fx();
    stats::weighted_sum(
        t,
        &f.group,
        &f.pk,
        &f.sk,
        &[&db],
        &indices,
        &weights,
        field(),
        &mut rng,
    )
    .map(|sums| sums[0])
}

fn expect_weighted_sum(v: usize) -> u64 {
    let (_, db, (indices, weights)) = ws_inputs(v);
    reference::weighted_sum(&db, &indices, &weights)
}

/// The canonical weighted_sum run.
pub fn drv_weighted_sum(t: &mut dyn Channel) -> Result<u64, ProtocolError> {
    drv_weighted_sum_v(t, 0)
}

const FREQ_INDICES: [[usize; 3]; NUM_VARIANTS] = [[0, 5, 10], [1, 2, 3], [4, 8, 12]];
/// Which database slot's value the client secretly counts.
const FREQ_KEYWORD_SLOT: [usize; NUM_VARIANTS] = [5, 2, 9];

fn freq_inputs(v: usize) -> Inputs<Vec<u64>, ([usize; 3], u64)> {
    let rng = ChaChaRng::from_u64_seed(0xAC);
    let db = db16_v(v);
    let keyword = db[FREQ_KEYWORD_SLOT[v]];
    (rng, db, (FREQ_INDICES[v], keyword))
}

/// The frequency client: select1, then the frequency round for the
/// secret keyword.
fn freq_client(v: usize) -> (Vec<u64>, impl ClientCore, ChaChaRng) {
    let (mut rng, db, (indices, keyword)) = freq_inputs(v);
    let f = fx();
    let client = stats::select1_frequency_client(
        SpirParams::new(f.group.clone(), db.len()),
        f.pk.clone(),
        f.sk.clone(),
        field(),
        &indices,
        vec![keyword; indices.len()],
        &mut rng,
    );
    (db, client, rng)
}

/// frequency variant `v`: §4 frequency counting — indices *and* the
/// keyword are secrets.
pub fn drv_frequency_v(t: &mut dyn Channel, v: usize) -> Result<u64, ProtocolError> {
    let (db, mut client, mut rng) = freq_client(v);
    let f = fx();
    let server = stats::select1_frequency_server(
        SpirParams::new(f.group.clone(), db.len()),
        f.pk.clone(),
        field(),
        3,
        db,
        &mut rng,
    );
    let mut servers = [Box::new(server)];
    pump(t, &mut client, &mut servers)
}

fn expect_frequency(v: usize) -> u64 {
    let (_, db, (indices, keyword)) = freq_inputs(v);
    reference::frequency(&db, &indices, keyword)
}

/// The canonical frequency run.
pub fn drv_frequency(t: &mut dyn Channel) -> Result<u64, ProtocolError> {
    drv_frequency_v(t, 0)
}

/// The full driver table, in stable order.
pub fn drivers() -> Vec<Driver> {
    fn row(
        name: &'static str,
        servers: usize,
        run: DriverFn,
        run_variant: VariantFn,
        expect_variant: fn(usize) -> u64,
    ) -> Driver {
        Driver {
            name,
            servers,
            expect: expect_variant(0),
            run,
            run_variant,
            expect_variant,
        }
    }
    vec![
        row("xor2", 2, drv_xor2, drv_xor2_v, expect_xor2),
        row("hom_pir", 1, drv_hom_pir, drv_hom_pir_v, expect_hom_pir),
        row(
            "recursive",
            1,
            drv_recursive,
            drv_recursive_v,
            expect_recursive,
        ),
        row("spir", 1, drv_spir, drv_spir_v, expect_spir),
        row("batched", 1, drv_batched, drv_batched_v, expect_batched),
        row(
            "poly_it",
            poly_params().num_servers(),
            drv_poly_it,
            drv_poly_it_v,
            expect_poly_it,
        ),
        row(
            "multiserver",
            ms_params().num_servers(),
            drv_multiserver,
            drv_multiserver_v,
            expect_multiserver,
        ),
        row(
            "input_select",
            1,
            drv_select1,
            drv_select1_v,
            expect_select1,
        ),
        row("psm_spfe", 1, drv_psm, drv_psm_v, expect_psm),
        row(
            "two_phase",
            1,
            drv_two_phase,
            drv_two_phase_v,
            expect_two_phase,
        ),
        row(
            "universal",
            1,
            drv_universal,
            drv_universal_v,
            expect_universal,
        ),
        row(
            "weighted_sum",
            1,
            drv_weighted_sum,
            drv_weighted_sum_v,
            expect_weighted_sum,
        ),
        row(
            "frequency",
            1,
            drv_frequency,
            drv_frequency_v,
            expect_frequency,
        ),
    ]
}

// ---------------------------------------------------------------------------
// Networked-service wiring (DESIGN.md §15): the canonical (variant-0)
// inputs of the cored drivers, as the client and server cores their
// in-process `run` pumps.
// ---------------------------------------------------------------------------

/// The svc-compute batch: the cored drivers perfbench's `svc-compute`
/// workload times over TCP, and nothing else. It is not the set of cored
/// drivers — every driver whose [`net_client_core`] is `Some` runs in
/// compute mode — and it widens only with a benchmark change, since it
/// fixes the workload's `comm_bytes_per_request`.
pub const NET_CORE_DRIVERS: &[&str] = &["xor2", "hom_pir", "poly_it", "multiserver"];

/// The server state machines hosting driver `name`'s canonical database,
/// one per logical server; `None` for drivers without an extracted core.
/// A server that draws while answering (spir, batched, psm_spfe,
/// two_phase, universal, weighted_sum, frequency) gets a fresh OS-seeded
/// rng per session: a fixed seed would let a client predict, and strip,
/// every pad, mask, share and garbling. input_select has no entry: its
/// digest needs the server's shares, so it runs in relay mode.
pub fn net_server_cores(name: &str) -> Option<Vec<Box<dyn SessionCore + Send>>> {
    Some(match name {
        "xor2" => xor2::server_cores(xor2_inputs(0).1),
        "hom_pir" => vec![Box::new(hom_pir::HomPirServerCore::new(
            fx().pk.clone(),
            hom_pir_inputs(0).1,
        ))],
        "recursive" => vec![Box::new(recursive::RecursiveServerCore::new(
            fx().pk.clone(),
            recursive_inputs(0).1,
        ))],
        "spir" => vec![Box::new(spir::SpirServerCore::new(
            spir_params(),
            fx().pk.clone(),
            spir_inputs(0).1,
            ChaChaRng::from_os_entropy(),
        ))],
        "batched" => {
            let db: Vec<Vec<u64>> = batched_inputs(0).1.iter().map(|&v| vec![v]).collect();
            vec![Box::new(batched::BatchedServerCore::new(
                fx().group.clone(),
                fx().pk.clone(),
                db,
                ChaChaRng::from_os_entropy(),
            ))]
        }
        "poly_it" => poly_it::server_cores(&poly_params(), poly_it_inputs(0).1, None),
        "multiserver" => multiserver::server_cores(&ms_params(), ms_inputs(0).1, None),
        "psm_spfe" => {
            let (_, db, _) = psm_inputs(0);
            vec![Box::new(psm_spfe::YaoPsmServerCore::new(
                SpirParams::new(fx().group.clone(), db.len()),
                fx().pk.clone(),
                db,
                Cow::Owned(psm_circuit()),
                PSM_ITEM_BITS,
                ChaChaRng::from_os_entropy(),
            ))]
        }
        "weighted_sum" => {
            let (_, db, (indices, _)) = ws_inputs(0);
            vec![Box::new(stats::WsumServerCore::new(
                fx().group.clone(),
                fx().pk.clone(),
                field(),
                indices.len(),
                vec![Cow::Owned(db)],
                ChaChaRng::from_os_entropy(),
            ))]
        }
        "two_phase" => {
            let (_, db, indices) = two_phase_inputs(0);
            vec![Box::new(two_phase::select1_yao_server(
                SpirParams::new(fx().group.clone(), db.len()),
                fx().pk.clone(),
                field(),
                indices.len(),
                db,
                Cow::Owned(two_phase_circuit()),
                ChaChaRng::from_os_entropy(),
            ))]
        }
        "universal" => {
            let (_, db, (indices, _)) = universal_inputs(0);
            vec![Box::new(two_phase::select1_yao_server(
                SpirParams::new(fx().group.clone(), db.len()),
                fx().pk.clone(),
                field(),
                indices.len(),
                db,
                Cow::Owned(universal_circuit()),
                ChaChaRng::from_os_entropy(),
            ))]
        }
        "frequency" => {
            let (_, db, (indices, _)) = freq_inputs(0);
            vec![Box::new(stats::select1_frequency_server(
                SpirParams::new(fx().group.clone(), db.len()),
                fx().pk.clone(),
                field(),
                indices.len(),
                db,
                ChaChaRng::from_os_entropy(),
            ))]
        }
        _ => return None,
    })
}

/// The client state machine for driver `name`'s canonical run, so its
/// digest and transcript are those of the in-process driver; `None` for
/// drivers without an extracted core.
pub fn net_client_core(name: &str) -> Option<Box<dyn ClientCore>> {
    Some(match name {
        "xor2" => {
            let (mut rng, db, index) = xor2_inputs(0);
            Box::new(xor2::Xor2ClientCore::new(db.len(), index, &mut rng)) as Box<dyn ClientCore>
        }
        "hom_pir" => {
            let (mut rng, db, index) = hom_pir_inputs(0);
            Box::new(hom_pir::HomPirClientCore::new(
                fx().pk.clone(),
                fx().sk.clone(),
                db.len(),
                index,
                &mut rng,
            ))
        }
        "recursive" => {
            let (mut rng, db, index) = recursive_inputs(0);
            Box::new(recursive::RecursiveClientCore::new(
                fx().pk.clone(),
                fx().sk.clone(),
                db.len(),
                index,
                &mut rng,
            ))
        }
        "spir" => {
            let (mut rng, _, index) = spir_inputs(0);
            Box::new(spir::SpirClientCore::new(
                spir_params(),
                fx().pk.clone(),
                fx().sk.clone(),
                index,
                &mut rng,
            ))
        }
        "batched" => {
            let (mut rng, db, indices) = batched_inputs(0);
            Box::new(batched::BatchedClientCore::new(
                fx().group.clone(),
                fx().pk.clone(),
                fx().sk.clone(),
                db.len(),
                1,
                &indices,
                &mut rng,
            ))
        }
        "poly_it" => {
            let (mut rng, _, index) = poly_it_inputs(0);
            Box::new(poly_it::PolyItClientCore::new(
                poly_params(),
                index,
                &mut rng,
            ))
        }
        "multiserver" => {
            let (mut rng, _, index) = ms_inputs(0);
            Box::new(multiserver::MsClientCore::new(
                ms_params(),
                &index,
                &mut rng,
            ))
        }
        "psm_spfe" => {
            let (mut rng, db, indices) = psm_inputs(0);
            Box::new(psm_spfe::YaoPsmClientCore::new(
                SpirParams::new(fx().group.clone(), db.len()),
                fx().pk.clone(),
                fx().sk.clone(),
                Cow::Owned(psm_circuit()),
                PSM_ITEM_BITS,
                &indices,
                &mut rng,
            ))
        }
        "weighted_sum" => {
            let (mut rng, db, (indices, weights)) = ws_inputs(0);
            Box::new(stats::WsumClientCore::new(
                fx().group.clone(),
                fx().pk.clone(),
                fx().sk.clone(),
                field(),
                db.len(),
                1,
                &indices,
                &weights,
                &mut rng,
            ))
        }
        "two_phase" => {
            let (mut rng, db, indices) = two_phase_inputs(0);
            Box::new(two_phase::select1_yao_client(
                SpirParams::new(fx().group.clone(), db.len()),
                fx().pk.clone(),
                fx().sk.clone(),
                field(),
                &indices,
                Cow::Owned(two_phase_circuit()),
                Vec::new(),
                &mut rng,
            ))
        }
        "universal" => Box::new(universal_client(Cow::Owned(universal_circuit()), 0).1),
        "frequency" => Box::new(freq_client(0).1),
        _ => return None,
    })
}

/// Runs driver `d` (canonical variant) over a fresh [`FaultyChannel`]
/// under `plan`, tolerating up to `tolerance` healed servers.
pub fn run_under(d: &Driver, plan: FaultPlan, tolerance: usize) -> Result<u64, ProtocolError> {
    let mut ch = FaultyChannel::new(d.servers, plan, tolerance);
    (d.run)(&mut ch)
}

/// Runs the driver fault-free and returns how many messages it attempts —
/// the index space scripted plans address.
///
/// # Panics
///
/// Panics if the honest run does not produce the expected digest.
pub fn honest_messages(d: &Driver) -> u64 {
    let mut ch = FaultyChannel::new(d.servers, FaultPlan::honest(), 0);
    let got = (d.run)(&mut ch);
    assert_eq!(got, Ok(d.expect), "[{}] honest run", d.name);
    ch.messages_attempted()
}
