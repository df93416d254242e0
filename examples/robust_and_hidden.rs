//! Two extensions from the paper's remarks, working together:
//!
//! 1. **Fault tolerance** (§3.1): "t′ malicious servers can be tolerated
//!    by adding 2t′ additional servers" — the client decodes its answer
//!    through Byzantine replies with Berlekamp–Welch.
//! 2. **Function hiding** (§1): a universal `f` lets the client keep even
//!    the *statistic* secret — the server sees only a public menu.
//!
//! Run with: `cargo run --release --example robust_and_hidden`

use spfe::core::input_select::select1;
use spfe::core::multiserver::{run, MsFunction, MultiServerParams};
use spfe::core::universal::universal_yao_phase;
use spfe::core::Statistic;
use spfe::crypto::{ChaChaRng, HomomorphicScheme, Paillier, SchnorrGroup};
use spfe::math::Fp64;
use spfe::transport::{FaultAction, FaultPlan, FaultyChannel, Transcript, Wire};

fn main() {
    let mut rng = ChaChaRng::from_os_entropy();

    // --- Part 1: Byzantine replicas -------------------------------------
    let n = 1_024;
    let readings: Vec<u64> = (0..n as u64).map(|i| 50 + (i * 13) % 900).collect();
    let sample = [3usize, 500, 1_023];
    let field = Fp64::at_least(n as u64 + 1_000 * 3);
    let expect: u64 = sample.iter().map(|&i| readings[i]).sum();

    for liars in [0usize, 1, 2] {
        // A fault budget of `liars`: 2·liars extra servers.
        let params =
            MultiServerParams::new(n, 1, field, MsFunction::Sum { m: 3 }).with_faults(liars);
        let k = params.num_servers();
        // Servers 0..liars replace their answers with garbage. Every query
        // goes out before any answer, so server h's answer is message k + h.
        let lies = (0..liars).map(|h| ((k + h) as u64, FaultAction::Byzantine));
        let mut t = FaultyChannel::new(k, FaultPlan::scripted(lies.collect()), 0);
        t.set_tamper(Box::new(move |_, bytes| {
            let honest = u64::from_bytes(bytes).expect("one field element");
            *bytes = (honest.wrapping_mul(977).wrapping_add(1) % field.modulus()).to_bytes();
        }));
        let got = run(&mut t, &params, &readings, &sample, None, &mut rng).expect("decodable")[0];
        assert_eq!(got, expect);
        println!(
            "{k:>2} servers, {liars} Byzantine: private sum still = {got} \
             ({} bytes, 1 round)",
            t.inner().report().total_bytes()
        );
    }

    // --- Part 2: hiding the statistic -----------------------------------
    let group = SchnorrGroup::generate(128, &mut rng);
    let (pk, sk) = Paillier::keygen(256, &mut rng);
    let menu = vec![
        Statistic::Sum,
        Statistic::Frequency { keyword: 63 },
        Statistic::CountBelow { threshold: 100 },
    ];
    let small_db: Vec<u64> = (0..256u64).map(|i| (i * 7) % 128).collect();
    let field = Fp64::at_least(600);
    let sample = [9usize, 63, 200];

    println!("\npublic menu: {menu:?}");
    for choice in 0..menu.len() {
        let mut t = Transcript::new(1);
        let shares = select1(
            &mut t, &group, &pk, &sk, &small_db, &sample, field, &mut rng,
        )
        .expect("honest transport");
        let got = universal_yao_phase(&mut t, &group, &shares, &menu, choice, &mut rng)
            .expect("honest transport");
        println!(
            "client secretly evaluates entry {choice}: result = {got} \
             (server cannot tell which entry ran)"
        );
    }
}
