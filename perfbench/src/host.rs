//! Host fingerprint, process memory, and per-thread CPU time.
//!
//! Results from different machines cannot be compared, so every result
//! carries the CPU model, the core count, and a short calibration score
//! (a fixed F128 multiply loop plus 1024-bit modular exponentiations in
//! the F128 commitment group).

use std::hint::black_box;
use std::time::Instant;

use zaatar_crypto::HasGroup;
use zaatar_field::{Field, F128};

/// Multiplications in one calibration loop.
const CALIBRATION_MULS: u32 = 1 << 20;
/// Modular exponentiations per calibration round.
const CALIBRATION_MODEXPS: u32 = 8;
/// Calibration rounds; each figure is the fastest of them, which is the
/// steadiest estimate on a host whose speed drifts under neighbours'
/// load.
const CALIBRATION_ROUNDS: usize = 12;
/// Median calibration scores of two result sets further apart than this
/// share mean the host ran at a different speed, and the sets are not
/// compared. (A single run's score moves with neighbours' load on a
/// shared host, so only set medians are compared.)
pub const SCORE_TOLERANCE: f64 = 0.25;

/// Where a result was measured.
#[derive(Clone, Debug, PartialEq)]
pub struct Host {
    /// `model name` from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// Hardware threads available to this process.
    pub nproc: usize,
    /// Nanoseconds per dependent F128 multiplication.
    pub f128_mul_ns: f64,
    /// Microseconds per 1024-bit modular exponentiation.
    pub modexp_us: f64,
}

impl Host {
    /// Probes the machine (about a quarter of a second).
    pub fn probe() -> Host {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        let mut muls = Vec::with_capacity(CALIBRATION_ROUNDS);
        let mut exps = Vec::with_capacity(CALIBRATION_ROUNDS);
        for _ in 0..CALIBRATION_ROUNDS {
            muls.push(time_muls());
            exps.push(time_modexps());
        }
        Host {
            cpu_model,
            nproc: nproc(),
            f128_mul_ns: muls.iter().copied().fold(f64::INFINITY, f64::min),
            modexp_us: exps.iter().copied().fold(f64::INFINITY, f64::min),
        }
    }

    /// Milliseconds for the fixed calibration job: one multiply loop
    /// plus one round of exponentiations.
    pub fn score_ms(&self) -> f64 {
        (self.f128_mul_ns * f64::from(CALIBRATION_MULS)
            + self.modexp_us * 1e3 * f64::from(CALIBRATION_MODEXPS))
            / 1e6
    }

    /// Why results from `self` and `other` come from different machines,
    /// or `None` when the CPU model and core count agree.
    pub fn other_machine(&self, other: &Host) -> Option<String> {
        if self.cpu_model != other.cpu_model {
            return Some(format!("CPU {:?} vs {:?}", self.cpu_model, other.cpu_model));
        }
        if self.nproc != other.nproc {
            return Some(format!("nproc {} vs {}", self.nproc, other.nproc));
        }
        None
    }

    /// The fingerprint as a JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"cpu\":{},\"nproc\":{},\"f128_mul_ns\":{},\"modexp_us\":{},\"score_ms\":{}}}",
            zaatar_obs::json::escape(&self.cpu_model),
            self.nproc,
            self.f128_mul_ns,
            self.modexp_us,
            self.score_ms()
        )
    }
}

/// Hardware threads available to this process (at least 1).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn time_muls() -> f64 {
    let mut x = F128::from_u64(0x9e37_79b9_7f4a_7c15);
    let y = black_box(F128::from_u64(0xd1b5_4a32_d192_ed03));
    let start = Instant::now();
    for _ in 0..CALIBRATION_MULS {
        x = x * y + y;
    }
    black_box(x);
    start.elapsed().as_nanos() as f64 / f64::from(CALIBRATION_MULS)
}

fn time_modexps() -> f64 {
    let group = F128::group();
    let base = group.generator();
    // A full-width exponent: every one of the modulus's 1024 bits.
    let exp: Vec<u64> = (0..group.modulus_words().len() as u64)
        .map(|i| 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(i + 1))
        .collect();
    let start = Instant::now();
    for _ in 0..CALIBRATION_MODEXPS {
        black_box(group.pow(black_box(&base), black_box(&exp)));
    }
    start.elapsed().as_secs_f64() * 1e6 / f64::from(CALIBRATION_MODEXPS)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_THREAD_CPUTIME_ID` on Linux.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// CPU time consumed by the calling thread, in nanoseconds.
pub fn thread_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this benchmark runs on), and
    // clock_gettime writes only through the pointer it is given.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_cpu_time_advances_with_work() {
        let before = thread_cpu_ns();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        black_box(x);
        assert!(thread_cpu_ns() > before);
    }

    #[test]
    fn fingerprints_refuse_other_machines() {
        let host = Host {
            cpu_model: "cpu".into(),
            nproc: 2,
            f128_mul_ns: 10.0,
            modexp_us: 500.0,
        };
        assert_eq!(host.other_machine(&host.clone()), None);
        let busier = Host {
            f128_mul_ns: 12.0,
            modexp_us: 900.0,
            ..host.clone()
        };
        assert_eq!(
            host.other_machine(&busier),
            None,
            "speed alone is not another machine"
        );
        let other_cpu = Host {
            cpu_model: "other".into(),
            ..host.clone()
        };
        assert!(host.other_machine(&other_cpu).is_some());
        let more_cores = Host {
            nproc: 8,
            ..host.clone()
        };
        assert!(host.other_machine(&more_cores).is_some());
        assert!((host.score_ms() - (10.0 * 1048576.0 + 500e3 * 8.0) / 1e6).abs() < 1e-9);
        assert!(peak_rss_mib() > 0.0);
    }
}
