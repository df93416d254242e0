//! Batched `SPIR(n, m, *)`: retrieving `m` items cheaper than `m`
//! independent retrievals (\[36, 37, 8\] — the claim behind footnote 2 and
//! the second/third reductions of §3.3).
//!
//! Construction: view `[n]` as a `B`-wide grid (`B ≈ 2m`). Every index `i`
//! belongs to exactly two buckets with *closed-form* in-bucket positions:
//!
//! * its **column bucket** `i mod B`, at slot `i div B`;
//! * its **row bucket** `(i div B) mod B`, at slot
//!   `(i mod B) + B·(i div B²)`.
//!
//! The client cuckoo-assigns its `m` indices so that each of the `2B`
//! buckets serves at most one index, then runs exactly one single-item SPIR
//! per bucket (dummy queries for unassigned buckets — the server sees a
//! fixed access pattern, so nothing leaks). Total communication is
//! `2B·SPIR(n/B)` ≈ `O(√(m·n)·κ)`, beating `m·SPIR(n)` ≈ `O(m√n·κ)`, and
//! the server touches each item `O(1)` times per batch instead of `m`
//! times — the paper's `Ω(mn) → ≈ linear n` computation claim.
//!
//! Indices that cuckoo fails to place (possible only for adversarial index
//! sets sharing both buckets) fall back to individual full-database SPIRs,
//! reported in [`BatchedStats`].

use crate::spir::{self, SpirParams};
use spfe_crypto::hom::{HomomorphicPk, HomomorphicSk};
use spfe_crypto::SchnorrGroup;
use spfe_math::RandomSource;
use spfe_transport::{Channel, ChannelExt, ProtocolError};

/// Outcome statistics of a batched retrieval.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BatchedStats {
    /// Number of buckets queried (always `2B`).
    pub bucket_queries: usize,
    /// Indices that could not be cuckoo-placed and used a full-db SPIR.
    pub fallbacks: usize,
}

/// Grid/bucket geometry.
#[derive(Debug, Clone, Copy)]
pub struct BatchLayout {
    /// Database size.
    pub n: usize,
    /// Buckets per family.
    pub b: usize,
}

impl BatchLayout {
    /// Geometry for `n` items and `m` queries. `B ≈ 1.3m` keeps the
    /// two-choice cuckoo load factor near 0.38 (placement succeeds w.h.p.
    /// for random index sets) while minimizing per-bucket query overhead.
    pub fn new(n: usize, m: usize) -> Self {
        assert!(n > 0);
        BatchLayout {
            n,
            b: ((m * 13).div_ceil(10)).max(1),
        }
    }

    /// Column bucket of `i`.
    pub fn col_bucket(&self, i: usize) -> usize {
        i % self.b
    }

    /// Slot of `i` inside its column bucket.
    pub fn col_slot(&self, i: usize) -> usize {
        i / self.b
    }

    /// Row bucket of `i`.
    pub fn row_bucket(&self, i: usize) -> usize {
        (i / self.b) % self.b
    }

    /// Slot of `i` inside its row bucket.
    pub fn row_slot(&self, i: usize) -> usize {
        (i % self.b) + self.b * (i / (self.b * self.b))
    }

    /// Fixed size of every column bucket.
    pub fn col_bucket_len(&self) -> usize {
        self.n.div_ceil(self.b)
    }

    /// Fixed size of every row bucket.
    pub fn row_bucket_len(&self) -> usize {
        self.b * self.n.div_ceil(self.b * self.b)
    }

    /// Materializes column bucket `c` (padded with zeros).
    pub fn col_bucket_db(&self, db: &[u64], c: usize) -> Vec<u64> {
        (0..self.col_bucket_len())
            .map(|slot| {
                let i = slot * self.b + c;
                if i < db.len() {
                    db[i]
                } else {
                    0
                }
            })
            .collect()
    }

    /// Materializes row bucket `s` (padded with zeros).
    pub fn row_bucket_db(&self, db: &[u64], s: usize) -> Vec<u64> {
        (0..self.row_bucket_len())
            .map(|slot| {
                let r = slot % self.b;
                let qq = slot / self.b;
                let i = (qq * self.b + s) * self.b + r;
                if i < db.len() {
                    db[i]
                } else {
                    0
                }
            })
            .collect()
    }
}

/// A bucket identifier: family (column/row) plus bucket number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Bucket {
    Col(usize),
    Row(usize),
}

/// Cuckoo assignment: maps each query position (by its index in `indices`)
/// to a bucket, at most one query per bucket. Returns `(assignment,
/// leftovers)` where `assignment[q] = Some(bucket)`.
fn cuckoo_assign<R: RandomSource + ?Sized>(
    layout: &BatchLayout,
    indices: &[usize],
    rng: &mut R,
) -> (Vec<Option<Bucket>>, Vec<usize>) {
    use std::collections::HashMap;
    let mut occupant: HashMap<Bucket, usize> = HashMap::new();
    let mut assignment: Vec<Option<Bucket>> = vec![None; indices.len()];
    let mut leftovers = Vec::new();
    let max_steps = 50 * indices.len().max(1);

    'outer: for q in 0..indices.len() {
        let mut cur = q;
        let mut steps = 0;
        loop {
            let i = indices[cur];
            let candidates = [
                Bucket::Col(layout.col_bucket(i)),
                Bucket::Row(layout.row_bucket(i)),
            ];
            // Prefer an empty candidate.
            if let Some(&free) = candidates.iter().find(|b| !occupant.contains_key(b)) {
                occupant.insert(free, cur);
                assignment[cur] = Some(free);
                continue 'outer;
            }
            // Both full: evict a random one.
            if steps >= max_steps {
                leftovers.push(cur);
                continue 'outer;
            }
            steps += 1;
            let victim_bucket = candidates[(rng.next_u64() & 1) as usize];
            let evicted = occupant.insert(victim_bucket, cur).expect("was full");
            assignment[cur] = Some(victim_bucket);
            assignment[evicted] = None;
            cur = evicted;
        }
    }
    (assignment, leftovers)
}

/// Materializes bucket `k`'s virtual database of multi-word items.
fn bucket_words(layout: &BatchLayout, db: &[Vec<u64>], width: usize, k: usize) -> Vec<Vec<u64>> {
    let b = layout.b;
    if k < b {
        (0..layout.col_bucket_len())
            .map(|slot| {
                let i = slot * b + k;
                db.get(i).cloned().unwrap_or_else(|| vec![0; width])
            })
            .collect()
    } else {
        let s = k - b;
        (0..layout.row_bucket_len())
            .map(|slot| {
                let r = slot % b;
                let qq = slot / b;
                let i = (qq * b + s) * b + r;
                db.get(i).cloned().unwrap_or_else(|| vec![0; width])
            })
            .collect()
    }
}

/// Client-side state of a batched retrieval, spanning the query and decode
/// phases. Exposing the phases separately lets protocols (a) combine the
/// batched query with other same-direction messages in one round and
/// (b) answer one query set against *several* databases — the §4
/// "average + variance package" pattern.
pub struct BatchedClientState {
    layout: BatchLayout,
    indices: Vec<usize>,
    /// Per-bucket SPIR states (columns then rows).
    states: Vec<spir::SpirClientState>,
    /// `bucket → query position` ownership.
    owners: Vec<Option<usize>>,
    /// Query positions that need full-database fallbacks.
    pub leftovers: Vec<usize>,
    col_params: SpirParams,
    row_params: SpirParams,
}

impl std::fmt::Debug for BatchedClientState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchedClientState")
            .field("buckets", &self.owners.len())
            .field("leftovers", &self.leftovers.len())
            .finish()
    }
}

/// The client's batched query message: one SPIR query per bucket.
pub type BatchedQuery = Vec<spir::SpirQuery>;

impl BatchedClientState {
    fn params_for(&self, k: usize) -> &SpirParams {
        if k < self.layout.b {
            &self.col_params
        } else {
            &self.row_params
        }
    }
}

/// Phase 1 (client): cuckoo-assign the indices and build one query per
/// bucket (dummy slot 0 for unowned buckets).
///
/// # Panics
///
/// Panics if `indices` is empty or out of range for `n`.
pub fn client_query<P: HomomorphicPk, S: HomomorphicSk<P>, R: RandomSource + ?Sized>(
    group: &SchnorrGroup,
    pk: &P,
    sk: &S,
    n: usize,
    indices: &[usize],
    rng: &mut R,
) -> (BatchedQuery, BatchedClientState) {
    assert!(!indices.is_empty(), "no indices requested");
    assert!(indices.iter().all(|&i| i < n), "index out of range");
    let layout = BatchLayout::new(n, indices.len());
    let (assignment, leftovers) = cuckoo_assign(&layout, indices, rng);
    use std::collections::HashMap;
    let mut by_bucket: HashMap<Bucket, usize> = HashMap::new();
    for (q, bkt) in assignment.iter().enumerate() {
        if let Some(bkt) = bkt {
            by_bucket.insert(*bkt, q);
        }
    }
    let col_params = SpirParams::new(group.clone(), layout.col_bucket_len());
    let row_params = SpirParams::new(group.clone(), layout.row_bucket_len());
    let total_buckets = 2 * layout.b;
    let mut owners = Vec::with_capacity(total_buckets);
    for k in 0..total_buckets {
        owners.push(if k < layout.b {
            by_bucket.get(&Bucket::Col(k)).copied()
        } else {
            by_bucket.get(&Bucket::Row(k - layout.b)).copied()
        });
    }
    let mut queries = Vec::with_capacity(total_buckets);
    let mut states = Vec::with_capacity(total_buckets);
    for (k, owner) in owners.iter().enumerate() {
        let slot = owner.map_or(0, |q| {
            if k < layout.b {
                layout.col_slot(indices[q])
            } else {
                layout.row_slot(indices[q])
            }
        });
        let params = if k < layout.b {
            &col_params
        } else {
            &row_params
        };
        let (q, st) = spir::client_query(params, pk, sk, slot, rng);
        queries.push(q);
        states.push(st);
    }
    (
        queries,
        BatchedClientState {
            layout,
            indices: indices.to_vec(),
            states,
            owners,
            leftovers,
            col_params,
            row_params,
        },
    )
}

/// Phase 2 (server): answers every bucket of a query against a (multi-word)
/// database.
///
/// # Errors
///
/// [`ProtocolError::InvalidMessage`] on a malformed (client-controlled)
/// query.
///
/// # Panics
///
/// Panics on ragged/empty items (the server's own data).
pub fn server_answer_words<P: HomomorphicPk, R: RandomSource + ?Sized>(
    group: &SchnorrGroup,
    pk: &P,
    db: &[Vec<u64>],
    query: &BatchedQuery,
    rng: &mut R,
) -> Result<Vec<spir::SpirWordsAnswer>, ProtocolError> {
    let width = db.first().map_or(0, |it| it.len());
    assert!(width > 0, "empty items");
    assert!(db.iter().all(|it| it.len() == width), "ragged items");
    // Geometry is determined by the query arity: total buckets = 2B.
    let b = query.len() / 2;
    if b == 0 || query.len() != 2 * b {
        return Err(ProtocolError::InvalidMessage {
            label: "batched-queries",
            reason: "bucket query count must be a positive even number",
        });
    }
    let layout = BatchLayout { n: db.len(), b };
    let col_params = SpirParams::new(group.clone(), layout.col_bucket_len());
    let row_params = SpirParams::new(group.clone(), layout.row_bucket_len());
    // Stage 1 — the Ω(n) work: every bucket's scan is rng-free, so the 2B
    // scans fan out across the worker pool. A bucket scan is Θ(n/B)
    // modexps — `CostClass::Heavy`.
    let jobs: Vec<(usize, &spir::SpirQuery)> = query.iter().enumerate().collect();
    let scans: Vec<Vec<Vec<P::Ciphertext>>> =
        spfe_math::par::par_map_cost(spfe_math::par::CostClass::Heavy, &jobs, |&(k, q)| {
            let bucket_db = bucket_words(&layout, db, width, k);
            let params = if k < b { &col_params } else { &row_params };
            spir::scan_words(params, pk, &bucket_db, q)
        })
        .into_iter()
        .collect::<Result<_, _>>()?;
    // Stage 2 — pads and OT consume the rng, so run serially in bucket
    // order: the draw sequence (and the transcript) is thread-count
    // independent.
    Ok(query
        .iter()
        .zip(&scans)
        .enumerate()
        .map(|(k, (q, scanned))| {
            let params = if k < b { &col_params } else { &row_params };
            spir::pad_answer_words(params, pk, scanned, q, rng)
        })
        .collect())
}

/// Phase 3 (client): decodes the buckets it owns. Positions listed in
/// `state.leftovers` remain zero-filled and must be fetched by fallback.
///
/// # Errors
///
/// [`ProtocolError::InvalidMessage`] on malformed (server-controlled)
/// answers.
pub fn client_decode_words<P: HomomorphicPk, S: HomomorphicSk<P>>(
    pk: &P,
    sk: &S,
    state: &BatchedClientState,
    answers: &[spir::SpirWordsAnswer],
    width: usize,
) -> Result<Vec<Vec<u64>>, ProtocolError> {
    if answers.len() != state.states.len() {
        return Err(ProtocolError::InvalidMessage {
            label: "batched-answers",
            reason: "answer count mismatches bucket count",
        });
    }
    let mut values = vec![vec![0u64; width]; state.indices.len()];
    for (k, (st, a)) in state.states.iter().zip(answers).enumerate() {
        if let Some(q) = state.owners[k] {
            values[q] = spir::client_decode_words(state.params_for(k), pk, sk, st, a)?;
        }
    }
    Ok(values)
}

/// Runs the batched `SPIR(n, m, *)` over multi-word items: all bucket
/// queries travel in one client message and all answers in one server
/// message — a single round plus (rarely) one extra round of full-database
/// fallbacks.
///
/// # Errors
///
/// [`ProtocolError`] on any transport fault or malformed message.
///
/// # Panics
///
/// Panics if any index is out of range, items are ragged/empty, or
/// `indices` is empty (driver bugs).
pub fn run_words<P: HomomorphicPk, S: HomomorphicSk<P>, R: RandomSource + ?Sized>(
    t: &mut dyn Channel,
    group: &SchnorrGroup,
    pk: &P,
    sk: &S,
    db: &[Vec<u64>],
    indices: &[usize],
    rng: &mut R,
) -> Result<(Vec<Vec<u64>>, BatchedStats), ProtocolError> {
    let _proto = spfe_obs::span("batched");
    let width = db.first().map_or(0, |it| it.len());
    let (queries, state) = {
        let _s = spfe_obs::span("query-gen");
        client_query(group, pk, sk, db.len(), indices, rng)
    };
    let queries = t.client_to_server(0, "batched-queries", &queries)?;
    let answers = {
        let _s = spfe_obs::span("server-scan");
        server_answer_words(group, pk, db, &queries, rng)?
    };
    let answers = t.server_to_client(0, "batched-answers", &answers)?;
    let mut values = {
        let _s = spfe_obs::span("reconstruct");
        client_decode_words(pk, sk, &state, &answers, width)?
    };

    // Fallbacks: full-database retrievals, batched into one extra exchange.
    if !state.leftovers.is_empty() {
        let _s = spfe_obs::span("fallbacks");
        let full_params = SpirParams::new(group.clone(), db.len());
        let mut fqueries = Vec::with_capacity(state.leftovers.len());
        let mut fstates = Vec::with_capacity(state.leftovers.len());
        for &q in &state.leftovers {
            let (fq, fst) = spir::client_query(&full_params, pk, sk, indices[q], rng);
            fqueries.push(fq);
            fstates.push(fst);
        }
        let fqueries = t.client_to_server(0, "batched-fallback-queries", &fqueries)?;
        let fanswers: Vec<spir::SpirWordsAnswer> = fqueries
            .iter()
            .map(|fq| spir::server_answer_words(&full_params, pk, db, fq, rng))
            .collect::<Result<_, _>>()?;
        let fanswers = t.server_to_client(0, "batched-fallback-answers", &fanswers)?;
        for ((&q, st), a) in state.leftovers.iter().zip(&fstates).zip(&fanswers) {
            values[q] = spir::client_decode_words(&full_params, pk, sk, st, a)?;
        }
    }

    Ok((
        values,
        BatchedStats {
            bucket_queries: state.owners.len(),
            fallbacks: state.leftovers.len(),
        },
    ))
}

/// Runs the batched `SPIR(n, m, *)` over single-word items, returning the
/// retrieved items in the order of `indices` plus execution statistics.
///
/// # Errors
///
/// [`ProtocolError`] on any transport fault or malformed message.
///
/// # Panics
///
/// Panics if any index is out of range or `indices` is empty (driver
/// bugs).
pub fn run<P: HomomorphicPk, S: HomomorphicSk<P>, R: RandomSource + ?Sized>(
    t: &mut dyn Channel,
    group: &SchnorrGroup,
    pk: &P,
    sk: &S,
    db: &[u64],
    indices: &[usize],
    rng: &mut R,
) -> Result<(Vec<u64>, BatchedStats), ProtocolError> {
    let db_words: Vec<Vec<u64>> = db.iter().map(|&v| vec![v]).collect();
    let (vals, stats) = run_words(t, group, pk, sk, &db_words, indices, rng)?;
    Ok((vals.into_iter().map(|v| v[0]).collect(), stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use spfe_crypto::{ChaChaRng, HomomorphicScheme, Paillier};
    use spfe_transport::Transcript;

    fn setup() -> (
        SchnorrGroup,
        spfe_crypto::PaillierPk,
        spfe_crypto::PaillierSk,
        ChaChaRng,
    ) {
        let mut rng = ChaChaRng::from_u64_seed(0xBA7C);
        let group = SchnorrGroup::generate(96, &mut rng);
        let (pk, sk) = Paillier::keygen(128, &mut rng);
        (group, pk, sk, rng)
    }

    fn db(n: usize) -> Vec<u64> {
        (0..n as u64).map(|i| i * 7 + 3).collect()
    }

    #[test]
    fn grid_positions_are_consistent() {
        let layout = BatchLayout::new(100, 4);
        let database = db(100);
        for i in 0..100 {
            let c = layout.col_bucket(i);
            let cs = layout.col_slot(i);
            assert_eq!(layout.col_bucket_db(&database, c)[cs], database[i]);
            let r = layout.row_bucket(i);
            let rs = layout.row_slot(i);
            assert_eq!(layout.row_bucket_db(&database, r)[rs], database[i], "i={i}");
        }
    }

    #[test]
    fn retrieves_random_index_sets() {
        let (group, pk, sk, mut rng) = setup();
        let database = db(60);
        let indices = vec![3usize, 17, 42, 59];
        let mut t = Transcript::new(1);
        let (values, stats) = run(&mut t, &group, &pk, &sk, &database, &indices, &mut rng).unwrap();
        for (v, &i) in values.iter().zip(&indices) {
            assert_eq!(*v, database[i]);
        }
        assert_eq!(stats.fallbacks, 0);
        let expected_b = BatchLayout::new(60, 4).b;
        assert_eq!(stats.bucket_queries, 2 * expected_b);
    }

    #[test]
    fn handles_colliding_indices() {
        let (group, pk, sk, mut rng) = setup();
        let database = db(64);
        // All share column bucket (i mod 8 == 1) but have distinct rows.
        let indices = vec![1usize, 9, 17, 25];
        let mut t = Transcript::new(1);
        let (values, _) = run(&mut t, &group, &pk, &sk, &database, &indices, &mut rng).unwrap();
        for (v, &i) in values.iter().zip(&indices) {
            assert_eq!(*v, database[i], "i={i}");
        }
    }

    #[test]
    fn worst_case_identical_buckets_falls_back() {
        let (group, pk, sk, mut rng) = setup();
        let database = db(600);
        let b = BatchLayout::new(600, 3).b;
        assert_eq!(b, 4, "test indices assume B = 4");
        // Indices sharing BOTH buckets: i ≡ i' (mod B) and
        // (i div B) ≡ (i' div B) (mod B), i.e. i, i + B², i + 2B².
        let indices = vec![5usize, 5 + b * b, 5 + 2 * b * b];
        let mut t = Transcript::new(1);
        let (values, stats) = run(&mut t, &group, &pk, &sk, &database, &indices, &mut rng).unwrap();
        for (v, &i) in values.iter().zip(&indices) {
            assert_eq!(*v, database[i], "i={i}");
        }
        assert!(stats.fallbacks >= 1, "third clone must fall back");
    }

    #[test]
    fn duplicate_indices_are_served() {
        let (group, pk, sk, mut rng) = setup();
        let database = db(40);
        let indices = vec![7usize, 7];
        let mut t = Transcript::new(1);
        let (values, _) = run(&mut t, &group, &pk, &sk, &database, &indices, &mut rng).unwrap();
        assert_eq!(values, vec![database[7], database[7]]);
    }

    #[test]
    fn single_index_batch() {
        let (group, pk, sk, mut rng) = setup();
        let database = db(20);
        let mut t = Transcript::new(1);
        let (values, _) = run(&mut t, &group, &pk, &sk, &database, &[11], &mut rng).unwrap();
        assert_eq!(values, vec![database[11]]);
    }

    #[test]
    fn batched_is_one_round_without_fallbacks() {
        let (group, pk, sk, mut rng) = setup();
        let database = db(100);
        let indices = vec![2usize, 50, 99];
        let mut t = Transcript::new(1);
        let (_, stats) = run(&mut t, &group, &pk, &sk, &database, &indices, &mut rng).unwrap();
        assert_eq!(stats.fallbacks, 0);
        assert_eq!(t.report().half_rounds, 2, "must be a single round");
    }

    #[test]
    fn batched_multiword_items() {
        let (group, pk, sk, mut rng) = setup();
        let database: Vec<Vec<u64>> = (0..40u64)
            .map(|i| vec![i, i * i + 7, u64::MAX - i])
            .collect();
        let indices = vec![0usize, 13, 39];
        let mut t = Transcript::new(1);
        let (vals, _) = run_words(&mut t, &group, &pk, &sk, &database, &indices, &mut rng).unwrap();
        for (v, &i) in vals.iter().zip(&indices) {
            assert_eq!(*v, database[i]);
        }
        assert_eq!(t.report().half_rounds, 2);
    }

    #[test]
    fn batched_beats_m_independent_spirs() {
        // E10: batched SPIR(n, m) vs m × SPIR(n, 1) communication.
        let (group, pk, sk, mut rng) = setup();
        let n = 512;
        let database = db(n);
        let m = 16;
        let indices: Vec<usize> = (0..m).map(|j| (j * 31 + 5) % n).collect();

        let mut t_batched = Transcript::new(1);
        let (vals, stats) = run(
            &mut t_batched,
            &group,
            &pk,
            &sk,
            &database,
            &indices,
            &mut rng,
        )
        .unwrap();
        for (v, &i) in vals.iter().zip(&indices) {
            assert_eq!(*v, database[i]);
        }
        assert_eq!(stats.fallbacks, 0);

        let mut t_indep = Transcript::new(1);
        let params = SpirParams::new(group.clone(), n);
        for &i in &indices {
            assert_eq!(
                spir::run(&mut t_indep, &params, &pk, &sk, &database, i, &mut rng).unwrap(),
                database[i]
            );
        }
        let b = t_batched.report().total_bytes();
        let s = t_indep.report().total_bytes();
        assert!(
            b < s,
            "batched ({b}) should beat independent ({s}) at n={n} m={m}"
        );
    }
}
