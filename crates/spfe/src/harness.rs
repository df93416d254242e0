//! The shared conformance harness: every protocol in the workspace as one
//! row of a driver table, with secret-input variants for the leakage audit.
//!
//! Both the test suites (`tests/adversarial.rs`, `tests/trace_conformance.rs`,
//! `tests/mem_profile.rs`, `tests/leakage_audit.rs`) and the `spfe-tables
//! audit` differential harness consume this table, so the set of audited
//! protocols and the set of conformance-tested protocols can never drift
//! apart. The networked service reads it too: `spfe-server` hosts each
//! row's server cores and `spfe-client` runs its client core.
//!
//! **One row per driver.** A row names the driver, its server count, the
//! protocol span an in-process run opens and its rng seed, and gives three
//! functions of the secret variant: the client core, the server cores and
//! the expected digest. Everything else is derived from it. The in-process
//! run opens the span, seeds the rng, builds the client core, then moves
//! the same rng (past the client's draws: a client core draws only at
//! construction) into the server cores and calls [`pump`]. A hosted
//! session builds the same server cores on a fresh OS-seeded rng
//! ([`Driver::hosted_cores`]), and [`Driver::client_core`] is the canonical
//! client core, so a TCP session reproduces the in-process transcript.
//! Adding a driver means adding a row.
//!
//! One (small) Schnorr group and Paillier keypair, and every public
//! parameter derived from them, are generated once per process ([`fx`]);
//! key generation dominates setup time, the protocols themselves run on
//! 16–27-item databases. Each row owns its rng seed, so a run is a pure
//! function of `(channel fault plan, secret variant)` — the
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
use spfe_core::input_select;
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

/// The process-wide crypto fixture and public parameters shared by every
/// driver.
pub struct Fixture {
    /// A small Schnorr group (96-bit prime) for the SPIR/OT substrates.
    pub group: SchnorrGroup,
    /// Paillier public key (160-bit modulus).
    pub pk: PaillierPk,
    /// Paillier secret key.
    pub sk: PaillierSk,
    /// The shared arithmetic field.
    field: Fp64,
    /// poly_it's parameters.
    poly: PolyItParams,
    /// multiserver's parameters: `f` = the sum of two items.
    ms: MultiServerParams,
    /// SPIR over the 16-item database (spir, psm_spfe, the select1 family).
    spir: SpirParams,
    /// psm_spfe's circuit: the sum of two 8-bit items.
    psm_circuit: Circuit,
    /// two_phase's circuit: the sum statistic on three shares.
    two_phase_circuit: Circuit,
    /// universal's circuit: the menu over two shares.
    universal_circuit: Circuit,
}

/// The lazily generated [`Fixture`] (one keygen per process).
pub fn fx() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let mut rng = ChaChaRng::from_u64_seed(0xADE5);
        let group = SchnorrGroup::generate(96, &mut rng);
        let (pk, sk) = Paillier::keygen(160, &mut rng);
        let field = Fp64::at_least(1_000);
        let p = field.modulus();
        Fixture {
            poly: PolyItParams::new(N, 1, field),
            ms: MultiServerParams::new(N, 1, field, MsFunction::Sum { m: 2 }),
            spir: SpirParams::new(group.clone(), N),
            psm_circuit: sum_circuit(2, PSM_ITEM_BITS),
            two_phase_circuit: Statistic::Sum.share_circuit(3, p),
            universal_circuit: universal::universal_circuit(&universal_menu(), 2, p),
            group,
            pk,
            sk,
            field,
        }
    })
}

/// Items in the 16-item databases.
const N: usize = 16;
/// Items in recursive's database.
const N27: usize = 27;

/// The canonical 16-item database (variant 0 of [`db16_v`]).
pub fn db16() -> Vec<u64> {
    db16_v(0)
}

/// A 16-item database whose *contents* (not size) vary with the secret
/// variant `v`.
pub fn db16_v(v: usize) -> Vec<u64> {
    assert!(v < NUM_VARIANTS);
    (0..N as u64)
        .map(|i| (i * 7 + 3 + 11 * v as u64) % 50)
        .collect()
}

/// A 27-item database whose contents vary with the secret variant `v`.
pub fn db27_v(v: usize) -> Vec<u64> {
    assert!(v < NUM_VARIANTS);
    (0..N27 as u64)
        .map(|i| (i * 5 + 2 + 7 * v as u64) % 40)
        .collect()
}

/// A 16-record byte database whose contents vary with the secret variant.
pub fn xor_db_v(v: usize) -> Vec<Vec<u8>> {
    assert!(v < NUM_VARIANTS);
    let salt = (v as u8) * 13;
    (0..N as u8)
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
    fx().field
}

/// The shared poly_it parameters (public).
pub fn poly_params() -> PolyItParams {
    fx().poly
}

/// The shared multiserver parameters (public).
pub fn ms_params() -> MultiServerParams {
    fx().ms.clone()
}

// ---------------------------------------------------------------------------
// The secret inputs, per variant. Every index set has the same size in
// every variant: `m` is public.
// ---------------------------------------------------------------------------

const XOR2_INDEX: [usize; NUM_VARIANTS] = [5, 3, 12];
const HOM_PIR_INDEX: [usize; NUM_VARIANTS] = [9, 0, 15];
const RECURSIVE_INDEX: [usize; NUM_VARIANTS] = [13, 1, 26];
const SPIR_INDEX: [usize; NUM_VARIANTS] = [7, 2, 11];
const BATCHED_INDICES: [[usize; 4]; NUM_VARIANTS] = [[1, 5, 9, 14], [0, 2, 3, 15], [4, 7, 8, 12]];
const POLY_IT_INDEX: [usize; NUM_VARIANTS] = [5, 8, 2];
const MS_INDICES: [[usize; 2]; NUM_VARIANTS] = [[3, 10], [0, 15], [6, 7]];
const SELECT1_INDICES: [[usize; 2]; NUM_VARIANTS] = [[2, 7], [1, 14], [0, 9]];
const PSM_INDICES: [[usize; 2]; NUM_VARIANTS] = [[2, 11], [5, 6], [0, 13]];
/// Bits per item of the psm_spfe circuit (public).
const PSM_ITEM_BITS: usize = 8;
const TWO_PHASE_INDICES: [[usize; 3]; NUM_VARIANTS] = [[1, 6, 12], [0, 3, 5], [2, 9, 15]];
const UNIVERSAL_INDICES: [[usize; 2]; NUM_VARIANTS] = [[0, 4], [3, 12], [5, 9]];
/// Which entry of the (public) statistic menu the client secretly selects.
const UNIVERSAL_SELECTION: [usize; NUM_VARIANTS] = [0, 1, 0];
const WS_INDICES: [[usize; 3]; NUM_VARIANTS] = [[1, 4, 9], [0, 2, 3], [5, 10, 15]];
const WS_WEIGHTS: [[u64; 3]; NUM_VARIANTS] = [[2, 3, 1], [1, 1, 4], [3, 2, 2]];
const FREQ_INDICES: [[usize; 3]; NUM_VARIANTS] = [[0, 5, 10], [1, 2, 3], [4, 8, 12]];
/// Which database slot's value the client secretly counts.
const FREQ_KEYWORD_SLOT: [usize; NUM_VARIANTS] = [5, 2, 9];

fn universal_menu() -> [Statistic; 2] {
    [Statistic::Sum, Statistic::Frequency { keyword: 9 }]
}

fn freq_keyword(v: usize) -> u64 {
    db16_v(v)[FREQ_KEYWORD_SLOT[v]]
}

/// The sum of the selected `db16` items: below `p`, since every value is
/// below 50.
fn db16_sum(v: usize, indices: &[usize]) -> u64 {
    reference::sum(&db16_v(v), indices)
}

// ---------------------------------------------------------------------------
// The driver table: every protocol in the workspace, each reduced to a
// `u64` digest so one matrix covers them all.
// ---------------------------------------------------------------------------

/// A row's client core under a secret variant, drawing from the row's rng.
type ClientFactory = fn(usize, &mut ChaChaRng) -> Box<dyn ClientCore>;

/// A row's server cores under a secret variant, owning the rng they draw
/// from while answering (the servers that never draw ignore it).
type ServerFactory = fn(usize, ChaChaRng) -> Vec<Box<dyn SessionCore + Send>>;

/// One driver, described once.
struct Row {
    name: &'static str,
    servers: usize,
    /// The protocol span an in-process run opens; `None` where the client
    /// core holds its own phase spans (the composed select1 family).
    span: Option<&'static str>,
    /// The seed of the rng the client core draws from, then, in process,
    /// the server cores.
    seed: u64,
    client: ClientFactory,
    server_cores: ServerFactory,
    expect: fn(usize) -> u64,
}

impl Row {
    /// One in-process run under secret variant `v`.
    fn run(&self, ch: &mut dyn Channel, v: usize) -> Result<u64, ProtocolError> {
        let _proto = self.span.map(spfe_obs::span);
        let mut rng = ChaChaRng::from_u64_seed(self.seed);
        let mut client = (self.client)(v, &mut rng);
        let mut servers = (self.server_cores)(v, rng);
        pump(ch, client.as_mut(), &mut servers)
    }
}

/// One hosted server core.
fn one(core: impl SessionCore + Send + 'static) -> Vec<Box<dyn SessionCore + Send>> {
    vec![Box::new(core)]
}

static ROWS: &[Row] = &[
    Row {
        name: "xor2",
        servers: 2,
        span: Some("pir2"),
        seed: 0xA0,
        client: |v, rng| Box::new(xor2::Xor2ClientCore::new(N, XOR2_INDEX[v], rng)),
        server_cores: |v, _| xor2::server_cores(xor_db_v(v)),
        expect: |v| {
            let item = &xor_db_v(v)[XOR2_INDEX[v]];
            item.iter().map(|&b| u64::from(b)).sum()
        },
    },
    Row {
        name: "hom_pir",
        servers: 1,
        span: Some("hompir"),
        seed: 0xA1,
        client: |v, rng| {
            let f = fx();
            Box::new(hom_pir::HomPirClientCore::new(
                f.pk.clone(),
                f.sk.clone(),
                N,
                HOM_PIR_INDEX[v],
                rng,
            ))
        },
        server_cores: |v, _| one(hom_pir::HomPirServerCore::new(fx().pk.clone(), db16_v(v))),
        expect: |v| db16_v(v)[HOM_PIR_INDEX[v]],
    },
    Row {
        name: "recursive",
        servers: 1,
        span: Some("recpir"),
        seed: 0xA2,
        client: |v, rng| {
            let f = fx();
            Box::new(recursive::RecursiveClientCore::new(
                f.pk.clone(),
                f.sk.clone(),
                N27,
                RECURSIVE_INDEX[v],
                rng,
            ))
        },
        server_cores: |v, _| {
            one(recursive::RecursiveServerCore::new(
                fx().pk.clone(),
                db27_v(v),
            ))
        },
        expect: |v| db27_v(v)[RECURSIVE_INDEX[v]],
    },
    Row {
        name: "spir",
        servers: 1,
        span: Some("spir"),
        seed: 0xA3,
        client: |v, rng| {
            let f = fx();
            Box::new(spir::SpirClientCore::new(
                f.spir.clone(),
                f.pk.clone(),
                f.sk.clone(),
                SPIR_INDEX[v],
                rng,
            ))
        },
        server_cores: |v, rng| {
            let f = fx();
            one(spir::SpirServerCore::new(
                f.spir.clone(),
                f.pk.clone(),
                db16_v(v),
                rng,
            ))
        },
        expect: |v| db16_v(v)[SPIR_INDEX[v]],
    },
    Row {
        name: "batched",
        servers: 1,
        span: Some("batched"),
        seed: 0xA4,
        client: |v, rng| {
            let f = fx();
            Box::new(batched::BatchedClientCore::new(
                f.group.clone(),
                f.pk.clone(),
                f.sk.clone(),
                N,
                1,
                &BATCHED_INDICES[v],
                rng,
            ))
        },
        server_cores: |v, rng| {
            let f = fx();
            let words: Vec<Vec<u64>> = db16_v(v).into_iter().map(|x| vec![x]).collect();
            one(batched::BatchedServerCore::new(
                f.group.clone(),
                f.pk.clone(),
                words,
                rng,
            ))
        },
        expect: |v| db16_sum(v, &BATCHED_INDICES[v]),
    },
    Row {
        name: "poly_it",
        servers: 5,
        span: Some("polyit"),
        seed: 0xA5,
        client: |v, rng| {
            Box::new(poly_it::PolyItClientCore::new(
                fx().poly,
                POLY_IT_INDEX[v],
                rng,
            ))
        },
        server_cores: |v, _| poly_it::server_cores(&fx().poly, db16_v(v), None),
        expect: |v| db16_v(v)[POLY_IT_INDEX[v]],
    },
    Row {
        name: "multiserver",
        servers: 5,
        span: Some("multiserver"),
        seed: 0xA6,
        client: |v, rng| {
            Box::new(multiserver::MsClientCore::new(
                ms_params(),
                &MS_INDICES[v],
                rng,
            ))
        },
        server_cores: |v, _| multiserver::server_cores(&fx().ms, db16_v(v), None),
        expect: |v| db16_sum(v, &MS_INDICES[v]),
    },
    // §3.3.1 input selection into shares, then the §3.3 phase for the
    // linear `f = sum`: the server opens `Σ a_j`.
    Row {
        name: "input_select",
        servers: 1,
        span: None,
        seed: 0xA7,
        client: |v, rng| {
            let f = fx();
            Box::new(input_select::select1_sum_client(
                f.spir.clone(),
                f.pk.clone(),
                f.sk.clone(),
                f.field,
                &SELECT1_INDICES[v],
                rng,
            ))
        },
        server_cores: |v, rng| {
            let f = fx();
            one(input_select::select1_sum_server(
                f.spir.clone(),
                f.pk.clone(),
                f.field,
                SELECT1_INDICES[v].len(),
                db16_v(v),
                rng,
            ))
        },
        expect: |v| db16_sum(v, &SELECT1_INDICES[v]),
    },
    Row {
        name: "psm_spfe",
        servers: 1,
        span: Some("psm-yao"),
        seed: 0xA8,
        client: |v, rng| {
            let f = fx();
            Box::new(psm_spfe::YaoPsmClientCore::new(
                f.spir.clone(),
                f.pk.clone(),
                f.sk.clone(),
                Cow::Borrowed(&f.psm_circuit),
                PSM_ITEM_BITS,
                &PSM_INDICES[v],
                rng,
            ))
        },
        server_cores: |v, rng| {
            let f = fx();
            one(psm_spfe::YaoPsmServerCore::new(
                f.spir.clone(),
                f.pk.clone(),
                db16_v(v),
                Cow::Borrowed(&f.psm_circuit),
                PSM_ITEM_BITS,
                rng,
            ))
        },
        expect: |v| db16_sum(v, &PSM_INDICES[v]),
    },
    // select1, then Yao evaluation of the sum statistic on the shares.
    Row {
        name: "two_phase",
        servers: 1,
        span: None,
        seed: 0xA9,
        client: |v, rng| {
            let f = fx();
            Box::new(two_phase::select1_yao_client(
                f.spir.clone(),
                f.pk.clone(),
                f.sk.clone(),
                f.field,
                &TWO_PHASE_INDICES[v],
                Cow::Borrowed(&f.two_phase_circuit),
                Vec::new(),
                rng,
            ))
        },
        server_cores: |v, rng| {
            let f = fx();
            one(two_phase::select1_yao_server(
                f.spir.clone(),
                f.pk.clone(),
                f.field,
                TWO_PHASE_INDICES[v].len(),
                db16_v(v),
                Cow::Borrowed(&f.two_phase_circuit),
                rng,
            ))
        },
        expect: |v| db16_sum(v, &TWO_PHASE_INDICES[v]),
    },
    // The function-hiding phase: the indices *and* the selected menu
    // entry are secrets.
    Row {
        name: "universal",
        servers: 1,
        span: None,
        seed: 0xAA,
        client: |v, rng| {
            let f = fx();
            Box::new(two_phase::select1_yao_client(
                f.spir.clone(),
                f.pk.clone(),
                f.sk.clone(),
                f.field,
                &UNIVERSAL_INDICES[v],
                Cow::Borrowed(&f.universal_circuit),
                universal::menu_choice_bits(&universal_menu(), UNIVERSAL_SELECTION[v]),
                rng,
            ))
        },
        server_cores: |v, rng| {
            let f = fx();
            one(two_phase::select1_yao_server(
                f.spir.clone(),
                f.pk.clone(),
                f.field,
                UNIVERSAL_INDICES[v].len(),
                db16_v(v),
                Cow::Borrowed(&f.universal_circuit),
                rng,
            ))
        },
        expect: |v| {
            let (db, indices) = (db16_v(v), &UNIVERSAL_INDICES[v]);
            match universal_menu()[UNIVERSAL_SELECTION[v]] {
                Statistic::Sum => reference::sum(&db, indices),
                Statistic::Frequency { keyword } => reference::frequency(&db, indices, keyword),
                _ => unreachable!("menu holds only sum and frequency"),
            }
        },
    },
    // §4 weighted sum: the indices *and* the weight vector are secrets.
    Row {
        name: "weighted_sum",
        servers: 1,
        span: Some("weighted-sum"),
        seed: 0xAB,
        client: |v, rng| {
            let f = fx();
            Box::new(stats::WsumClientCore::new(
                f.group.clone(),
                f.pk.clone(),
                f.sk.clone(),
                f.field,
                N,
                1,
                &WS_INDICES[v],
                &WS_WEIGHTS[v],
                rng,
            ))
        },
        server_cores: |v, rng| {
            let f = fx();
            one(stats::WsumServerCore::new(
                f.group.clone(),
                f.pk.clone(),
                f.field,
                WS_INDICES[v].len(),
                vec![Cow::Owned(db16_v(v))],
                rng,
            ))
        },
        expect: |v| reference::weighted_sum(&db16_v(v), &WS_INDICES[v], &WS_WEIGHTS[v]),
    },
    // §4 frequency counting: the indices *and* the keyword are secrets.
    Row {
        name: "frequency",
        servers: 1,
        span: None,
        seed: 0xAC,
        client: |v, rng| {
            let f = fx();
            Box::new(stats::select1_frequency_client(
                f.spir.clone(),
                f.pk.clone(),
                f.sk.clone(),
                f.field,
                &FREQ_INDICES[v],
                vec![freq_keyword(v); FREQ_INDICES[v].len()],
                rng,
            ))
        },
        server_cores: |v, rng| {
            let f = fx();
            one(stats::select1_frequency_server(
                f.spir.clone(),
                f.pk.clone(),
                f.field,
                FREQ_INDICES[v].len(),
                db16_v(v),
                rng,
            ))
        },
        expect: |v| reference::frequency(&db16_v(v), &FREQ_INDICES[v], freq_keyword(v)),
    },
];

/// A canonical (variant-0) in-process run.
pub type DriverFn = &'static (dyn Fn(&mut dyn Channel) -> Result<u64, ProtocolError> + Send + Sync);

/// An in-process run under secret variant `v < NUM_VARIANTS`.
pub type VariantFn =
    &'static (dyn Fn(&mut dyn Channel, usize) -> Result<u64, ProtocolError> + Send + Sync);

/// One driver of the table, as its consumers read it.
#[derive(Clone, Copy)]
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
    row: &'static Row,
}

impl Driver {
    /// The canonical client core, drawing from the row's seed, so its
    /// digest and transcript are those of the in-process run.
    pub fn client_core(&self) -> Box<dyn ClientCore> {
        (self.row.client)(0, &mut ChaChaRng::from_u64_seed(self.row.seed))
    }

    /// The server cores a hosted session runs, over the canonical
    /// database. A server that draws while answering gets a fresh
    /// OS-seeded rng per session: a fixed seed would let a client
    /// predict, and strip, every pad, mask, share and garbling.
    pub fn hosted_cores(&self) -> Vec<Box<dyn SessionCore + Send>> {
        (self.row.server_cores)(0, ChaChaRng::from_os_entropy())
    }
}

/// The table, built once per process. Each row's two entry points are
/// boxed once and live as long as the table.
fn table() -> &'static [Driver] {
    static TABLE: OnceLock<Vec<Driver>> = OnceLock::new();
    TABLE.get_or_init(|| {
        ROWS.iter()
            .map(|row| Driver {
                name: row.name,
                servers: row.servers,
                expect: (row.expect)(0),
                run: Box::leak(Box::new(move |ch: &mut dyn Channel| row.run(ch, 0))),
                run_variant: Box::leak(Box::new(move |ch: &mut dyn Channel, v| row.run(ch, v))),
                expect_variant: row.expect,
                row,
            })
            .collect()
    })
}

/// The full driver table, in stable order.
pub fn drivers() -> Vec<Driver> {
    table().to_vec()
}

/// The driver named `name`; `None` for an unknown name.
pub fn driver(name: &str) -> Option<&'static Driver> {
    table().iter().find(|d| d.name == name)
}

/// The svc-compute batch: the drivers perfbench's `svc-compute` workload
/// times over TCP, and nothing else. It is not the set of hosted drivers
/// — every row runs in compute mode — and it widens only with a benchmark
/// change, since it fixes the workload's `comm_bytes_per_request`.
pub const NET_CORE_DRIVERS: &[&str] = &["xor2", "hom_pir", "poly_it", "multiserver"];

/// The server cores a hosted session of driver `name` runs
/// ([`Driver::hosted_cores`]); `None` for an unknown name.
pub fn net_server_cores(name: &str) -> Option<Vec<Box<dyn SessionCore + Send>>> {
    driver(name).map(Driver::hosted_cores)
}

/// The canonical client core of driver `name` ([`Driver::client_core`]);
/// `None` for an unknown name.
pub fn net_client_core(name: &str) -> Option<Box<dyn ClientCore>> {
    driver(name).map(Driver::client_core)
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_row_hosts_its_server_count() {
        assert_eq!(fx().poly.num_servers(), driver("poly_it").unwrap().servers);
        assert_eq!(
            fx().ms.num_servers(),
            driver("multiserver").unwrap().servers
        );
        for d in drivers() {
            assert_eq!(d.hosted_cores().len(), d.servers, "[{}]", d.name);
        }
    }
}
