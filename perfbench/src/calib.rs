//! CPU cost at a nominal host speed: how the CPU-bound end-to-end metrics
//! are measured.
//!
//! The benchmark runs on a few cores of a shared host. Neighbours take the
//! cores away for whole scheduler slices (hypervisor steal, run-queue
//! waits), and while they run beside us they also slow the instructions we
//! do get (shared caches, SMT siblings, clock). Wall-clock times of CPU-bound
//! work drift by 25% and more between runs minutes apart, so they read the
//! host as much as the program. Two steps take the host out:
//!
//! 1. Work is timed in **process CPU time** (`CLOCK_PROCESS_CPUTIME_ID`, all
//!    threads), which does not advance while the process is held off the
//!    CPU.
//! 2. Each measurement is taken next to a fixed reference kernel, the
//!    [`Probe`] — plain `std` code that no change to the system under test
//!    can speed up — timed in thread CPU time, and scaled by
//!    `NOMINAL_MS / probe`: the CPU time the work would take on a host
//!    where one probe pass takes [`NOMINAL_MS`].
//!
//! A change that makes the program do less work moves the result as much
//! as it moves raw CPU time. Parallel speed-ups do not show here (the CPU
//! time of the threads is summed); the benchmark reports wall-clock latency
//! next to it, unbounded, for those.

use std::hint::black_box;
use std::time::Instant;

/// One probe pass's thread CPU time on an unloaded 2-vCPU x86-64 cloud
/// host: the scale normalised times are given in.
pub const NOMINAL_MS: f64 = 0.75;

/// Look-up table size: larger than L1, so the probe also feels the caches
/// the workloads share with their neighbours.
const WORDS: usize = 1 << 16;
/// Look-up-and-reduce steps per pass.
const STEPS: usize = 40_000;
/// Limbs of the probe's Montgomery modulus (2048 bits, the `hom-scan`
/// key's modulus size).
const LIMBS: usize = 32;
/// Montgomery products per pass. With [`STEPS`], sized so that one pass
/// takes about [`NOMINAL_MS`], split about evenly between the two halves.
const MONT_MULS: usize = 170;
/// Passes per probe; the probe reports the fastest, the one least
/// disturbed by preemption.
const PASSES: usize = 3;
/// A 64-bit prime: the look-up half's multiply-reduce chain runs modulo it.
const P: u64 = 0xFFFF_FFFF_0000_0001;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_ms(clock: i32) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec and `clock` one of the
    // two CPU-time clocks above, which every Linux kernel provides.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock})");
    ts.tv_sec as f64 * 1e3 + ts.tv_nsec as f64 / 1e6
}

/// CPU time this process has used, all threads, in ms.
pub fn process_cpu_ms() -> f64 {
    cpu_ms(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time the calling thread has used, in ms.
pub fn thread_cpu_ms() -> f64 {
    cpu_ms(CLOCK_THREAD_CPUTIME_ID)
}

/// The reference kernel, in two halves that mirror the workloads' inner
/// loops: dependent table look-ups with 64-bit `u128 % p` reductions (the
/// `Fp64` field arithmetic of `ms-sum`), and chained 2048-bit CIOS
/// Montgomery products (the Paillier arithmetic of `hom-scan`).
#[derive(Debug)]
pub struct Probe {
    table: Vec<u64>,
    modulus: Vec<u64>,
    /// `−modulus⁻¹ mod 2⁶⁴`.
    n0_inv: u64,
}

impl Default for Probe {
    fn default() -> Probe {
        Probe::new()
    }
}

impl Probe {
    /// A probe over a fixed pseudo-random table and odd modulus.
    pub fn new() -> Probe {
        let mut rng = crate::inputs::SplitMix64::stream(0x5052_4F42, 0);
        let table = (0..WORDS).map(|_| rng.next_u64()).collect();
        let mut modulus: Vec<u64> = (0..LIMBS).map(|_| rng.next_u64()).collect();
        modulus[0] |= 1;
        modulus[LIMBS - 1] |= 1 << 63;
        // Newton's iteration doubles the correct low bits of the inverse.
        let mut inv = 1_u64;
        for _ in 0..6 {
            inv = inv.wrapping_mul(2_u64.wrapping_sub(modulus[0].wrapping_mul(inv)));
        }
        Probe {
            table,
            modulus,
            n0_inv: inv.wrapping_neg(),
        }
    }

    fn pass(&self) -> u64 {
        let (mut x, mut y) = (0x243F_6A88_85A3_08D3_u64, 1_u64);
        for _ in 0..STEPS {
            let w = self.table[(x as usize) & (WORDS - 1)];
            x = (x ^ w).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            x ^= x >> 29;
            y = ((u128::from(y) * u128::from(w | 1)) % u128::from(P)) as u64;
        }
        // a ← a·b·R⁻¹ mod n, with a and b below n/2 so no final subtraction
        // is needed and every product keeps the same shape.
        let mut a: Vec<u64> = self.table[..LIMBS].to_vec();
        a[LIMBS - 1] >>= 2;
        let b = black_box(a.clone());
        let mut t = [0_u64; LIMBS + 2];
        for _ in 0..MONT_MULS {
            self.mont_mul(&a, &b, &mut t);
            a.copy_from_slice(&t[..LIMBS]);
            a[LIMBS - 1] >>= 2;
        }
        x ^ y ^ a[0]
    }

    /// The CIOS Montgomery product of `a` and `b` into `t`.
    fn mont_mul(&self, a: &[u64], b: &[u64], t: &mut [u64; LIMBS + 2]) {
        let n = &self.modulus;
        t.fill(0);
        for &ai in a {
            let mut carry = 0_u128;
            for (tj, &bj) in t.iter_mut().zip(b) {
                let cur = u128::from(*tj) + u128::from(ai) * u128::from(bj) + carry;
                *tj = cur as u64;
                carry = cur >> 64;
            }
            let cur = u128::from(t[LIMBS]) + carry;
            t[LIMBS] = cur as u64;
            t[LIMBS + 1] = (cur >> 64) as u64;
            let m = t[0].wrapping_mul(self.n0_inv);
            let mut carry = (u128::from(t[0]) + u128::from(m) * u128::from(n[0])) >> 64;
            for j in 1..LIMBS {
                let cur = u128::from(t[j]) + u128::from(m) * u128::from(n[j]) + carry;
                t[j - 1] = cur as u64;
                carry = cur >> 64;
            }
            let cur = u128::from(t[LIMBS]) + carry;
            t[LIMBS - 1] = cur as u64;
            t[LIMBS] = t[LIMBS + 1] + (cur >> 64) as u64;
            t[LIMBS + 1] = 0;
        }
    }

    /// One probe: the fastest of [`PASSES`] passes, in thread CPU ms.
    pub fn time_ms(&self) -> f64 {
        (0..PASSES)
            .map(|_| {
                let t = thread_cpu_ms();
                black_box(self.pass());
                thread_cpu_ms() - t
            })
            .fold(f64::INFINITY, f64::min)
    }

    /// Probes, then runs `work`. Returns its result and what it cost.
    pub fn measure<T>(&self, work: impl FnOnce() -> T) -> (T, Cost) {
        let c0 = thread_cpu_ms();
        let probe_ms = self.time_ms();
        let probe_cpu_ms = thread_cpu_ms() - c0;
        let (t, c) = (Instant::now(), process_cpu_ms());
        let out = work();
        let cost = Cost {
            wall_ms: t.elapsed().as_secs_f64() * 1e3,
            cpu_ms: process_cpu_ms() - c,
            probe_ms,
            probe_cpu_ms,
        };
        (out, cost)
    }
}

/// What one piece of work cost.
#[derive(Debug, Clone, Copy)]
pub struct Cost {
    /// Wall-clock time, ms.
    pub wall_ms: f64,
    /// Process CPU time, all threads, ms.
    pub cpu_ms: f64,
    /// The probe taken just before, thread CPU ms.
    pub probe_ms: f64,
    /// What taking the probe cost, thread CPU ms.
    pub probe_cpu_ms: f64,
}

impl Cost {
    /// The CPU time at the nominal host speed, ms.
    pub fn nominal_cpu_ms(&self) -> f64 {
        normalise(self.cpu_ms, self.probe_ms)
    }
}

/// `cpu_ms` at the nominal host speed, given the probe's time `probe_ms`
/// on this host at the time `cpu_ms` was measured.
pub fn normalise(cpu_ms: f64, probe_ms: f64) -> f64 {
    cpu_ms * NOMINAL_MS / probe_ms
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalising_scales_by_the_probe() {
        assert_eq!(normalise(10.0, NOMINAL_MS), 10.0);
        assert_eq!(normalise(10.0, 2.0 * NOMINAL_MS), 5.0);
    }

    #[test]
    fn cpu_clocks_advance_with_work() {
        let p = Probe::new();
        assert_eq!(p.pass(), Probe::new().pass());
        let (v, cost) = p.measure(|| p.pass());
        assert_eq!(v, p.pass());
        assert!(cost.probe_ms > 0.0 && cost.cpu_ms > 0.0 && cost.wall_ms > 0.0);
        assert!(cost.nominal_cpu_ms() > 0.0);
    }
}
