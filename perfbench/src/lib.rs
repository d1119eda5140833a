//! Benchmark of the paper's configuration, end to end and per layer.
//!
//! Three workloads, each a closed loop in one process:
//!
//! * `lcs-batch16` — a verifier runs `runtime::run_session_verifier`
//!   against one `SessionServer` over the framed loopback transport,
//!   β = 16 LCS instances per session: the prover's commitment and
//!   answering dominate.
//! * `lcs-batch1` — the same at β = 1: per-session costs (key
//!   generation, query generation on both sides, SETUP handling)
//!   dominate.
//! * `apsp-prove16` — the prover builds batches of 16 APSP proofs from
//!   raw inputs under the scheduler's policy: NTTs at a 2^17 domain,
//!   no crypto, no transport.
//!
//! An untraced run prints the end-to-end metrics; a traced run records
//! spans around the benchmark's calls into the crates and prints the
//! per-layer metrics.

pub mod circuit;
pub mod host;
pub mod sessions;
pub mod stats;
pub mod trace;
pub mod workloads;

use std::collections::BTreeMap;

use host::Host;

/// End-to-end metrics (name, unit), printed by untraced runs.
pub const END_TO_END: [(&str, &str); 5] = [
    ("instances_per_s", "1/s"),
    ("session_s.p50", "s"),
    ("prover_ms_per_instance", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (name, unit), printed by traced runs. A layer a
/// workload does not exercise reads 0 there.
pub const PER_LAYER: [(&str, &str); 36] = [
    ("crypto.keygen_ms", "ms"),
    ("crypto.commit_ms", "ms"),
    ("crypto.msm_buckets", "count"),
    ("crypto.msm_doublings", "count"),
    ("crypto.verify_ms", "ms"),
    ("pcp.queries_ms", "ms"),
    ("pcp.consistency_ms", "ms"),
    ("pcp.answer_ms", "ms"),
    ("pcp.check_us", "us"),
    ("pcp.prove_ms", "ms"),
    ("poly.ntt_ms", "ms"),
    ("poly.ntt_calls", "count"),
    ("poly.quotient_ms", "ms"),
    ("cc.solve_ms", "ms"),
    ("cc.compile_ms", "ms"),
    ("mem.prove_hit_rate", "ratio"),
    ("mem.serve_hit_rate", "ratio"),
    ("mem.high_water_bytes", "bytes"),
    ("sched.workers", "count"),
    ("sched.streamed", "flag"),
    ("sched.parallel_efficiency", "ratio"),
    ("transport.bytes_per_session", "bytes"),
    ("transport.frames_per_session", "count"),
    ("transport.retransmits", "count"),
    ("transport.setup_frame_ms", "ms"),
    ("wire_kb_per_instance", "KiB"),
    ("verifier_cpu_ms_per_instance", "ms"),
    ("server.busy_frac", "ratio"),
    ("server.setup_ms", "ms"),
    ("server.admit_us", "us"),
    ("server.sessions_accepted", "count"),
    ("server.sessions_rejected", "count"),
    ("server.sessions_failed", "count"),
    ("trace.coverage", "ratio"),
    ("trace.residual_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
];

/// Per-layer metrics `compare` also reads from the untraced runs'
/// detail lines (name, unit, higher-is-better): the verifier's CPU time
/// and the wire bytes per instance. The prover-only workload has
/// neither, so they cannot be end-to-end metrics, which every workload
/// must report. Every bound lives in `BENCHMARK.json`, which gives
/// per-layer metrics none, so `compare` prints these without a verdict.
pub const RECORDED: [(&str, &str, bool); 2] = [
    ("verifier_cpu_ms_per_instance", "ms", false),
    ("wire_kb_per_instance", "KiB", false),
];

/// What one run measured.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Workload name.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Whether this was the traced run.
    pub trace: bool,
    /// Instances (or proofs) attempted, the canary excluded.
    pub attempted: u64,
    /// Attempted instances not accepted or not produced, plus canary
    /// and reference-output misses.
    pub failed: u64,
    /// Every measured value by metric name (end-to-end and per-layer
    /// alike, plus the sample counts under `samples.*`).
    pub values: BTreeMap<String, f64>,
    /// Human-readable reasons for every failure counted.
    pub problems: Vec<String>,
    /// The traced run's spans (empty when untraced).
    pub spans: Vec<trace::Span>,
}

impl Report {
    /// Records a measured value.
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// Counts `n` failures for `why`.
    pub fn fail(&mut self, n: u64, why: String) {
        if n > 0 {
            self.failed += n;
            self.problems.push(why);
        }
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty() && self.attempted > 0
    }

    /// The result line: `correct`, `attempted`, `failed` and, with
    /// their units, every end-to-end metric (untraced run) or every
    /// per-layer metric (traced run).
    pub fn result_line(&self) -> String {
        let printed: &[(&str, &str)] = if self.trace { &PER_LAYER } else { &END_TO_END };
        let metrics: Vec<String> = printed
            .iter()
            .map(|(name, unit)| {
                let value = self.values.get(*name).copied().unwrap_or(0.0);
                format!(
                    "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                    json_num(value)
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }

    /// The detail line the compare command reads: workload, seed, host
    /// fingerprint, every measured value and every problem.
    pub fn detail_line(&self, host: &Host) -> String {
        let values: Vec<String> = self
            .values
            .iter()
            .map(|(k, v)| format!("{}:{}", zaatar_obs::json::escape(k), json_num(*v)))
            .collect();
        let problems: Vec<String> = self
            .problems
            .iter()
            .map(|p| zaatar_obs::json::escape(p))
            .collect();
        format!(
            "{{\"perfbench\":{{\"workload\":{},\"seed\":{},\"trace\":{},\"host\":{},\"correct\":{},\"attempted\":{},\"failed\":{},\"values\":{{{}}},\"problems\":[{}]}}}}",
            zaatar_obs::json::escape(&self.workload),
            self.seed,
            self.trace,
            host.to_json(),
            self.correct(),
            self.attempted,
            self.failed,
            values.join(","),
            problems.join(",")
        )
    }
}

/// A finite number as JSON (non-finite values, which no metric should
/// produce, print as 0).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}
