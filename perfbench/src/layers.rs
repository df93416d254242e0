//! Per-layer metrics shared by every workload: op counts per request and
//! kernel unit costs, and the ledger that reconciles the two with the
//! measured phase times.

use crate::kernels::KernelCosts;
use crate::run::Report;
use spfe_obs::{Op, OpsSnapshot};

/// The op counters reported per request.
const OPS: [Op; 7] = [
    Op::Modexp,
    Op::PaillierEncrypt,
    Op::PaillierDecrypt,
    Op::HomAdd,
    Op::HomScalarMul,
    Op::Ot2Transfer,
    Op::PirWordsScanned,
];

/// Sets `ops.<op>` to the counter delta between `before` and `after`,
/// divided by `requests`. Every request of a workload does the same work,
/// so these repeat exactly for a given seed.
pub fn ops_per_request(
    report: &mut Report,
    before: &OpsSnapshot,
    after: &OpsSnapshot,
    requests: u64,
) {
    for op in OPS {
        let delta = after.get(op) - before.get(op);
        report.set(
            &format!("ops.{}", op.name()),
            delta as f64 / requests.max(1) as f64,
        );
    }
}

/// Sets the kernel unit costs and the two explained ratios: op counts ×
/// unit costs against the measured phase times. `k` servers times `m`
/// selector evaluations is the multi-server evaluation's kernel work.
pub fn ledger(report: &mut Report, c: &KernelCosts, k: usize, m: usize, threads: usize) {
    report.set("crypto.paillier.encrypt_us", c.encrypt_us);
    report.set("crypto.paillier.decrypt_us", c.decrypt_us);
    report.set("crypto.paillier.add_us", c.add_us);
    report.set("crypto.paillier.mul_const_us", c.mul_const_us);
    report.set("math.montgomery.pow_us", c.pow_us);
    report.set("math.poly.interpolate_at_us", c.interpolate_at_us);
    report.set("circuits.selector_eval_ms", c.selector_eval_ms);

    let get = |name: &str| report.metrics.get(name).copied().unwrap_or(0.0);
    let predicted_ms = (c.encrypt_us * get("ops.paillier_encrypt")
        + c.decrypt_us * get("ops.paillier_decrypt")
        + c.add_us * get("ops.hom_add")
        + c.mul_const_us * get("ops.hom_scalar_mul"))
        / 1e3;
    let phases_ms: f64 = [
        "pir.hom_pir.query_gen_ms",
        "pir.hom_pir.server_ms",
        "pir.hom_pir.decode_ms",
        "core.multiserver.query_gen_ms",
        "core.multiserver.server_ms",
        "core.multiserver.reconstruct_ms",
    ]
    .iter()
    .map(|n| get(n))
    .sum();
    let crypto = if phases_ms > 0.0 {
        predicted_ms / phases_ms
    } else {
        0.0
    };
    let server_ms = get("core.multiserver.server_ms");
    let kernel_ms = (k * m) as f64 * c.selector_eval_ms;
    let core = if server_ms > 0.0 {
        kernel_ms / server_ms
    } else {
        0.0
    };
    report.set("crypto.explained_ratio", crypto);
    report.set("core.explained_ratio", core);
    if phases_ms > 0.0 {
        report.note(format!(
            "crypto.explained_ratio {crypto:.4} = ops x unit costs {predicted_ms:.3} ms / phases {phases_ms:.3} ms (unit costs single-threaded; sessions ran on {threads} pool threads)"
        ));
    }
    if server_ms > 0.0 {
        report.note(format!(
            "core.explained_ratio {core:.4} = k*m*selector_eval {k}*{m}*{:.4} ms = {kernel_ms:.3} ms / server {server_ms:.3} ms ({threads} pool threads)",
            c.selector_eval_ms
        ));
    }
}
