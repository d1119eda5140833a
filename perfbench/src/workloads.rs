//! The named workloads: set-up, warm-up with the tampered-io canary,
//! the timed window, and the metrics each yields.

use std::sync::Arc;
use std::time::{Duration, Instant};

use zaatar_apps::apsp::Apsp;
use zaatar_apps::lcs::Lcs;
use zaatar_apps::Suite;
use zaatar_core::{ExecPolicy, Proving, VerifyOutcome, ZaatarProof};
use zaatar_field::Field;
use zaatar_obs::Snapshot;
use zaatar_server::{SessionOutcome, SessionServer};

use crate::circuit::{instances, prove_from_inputs, Circuit, Instance, Proved, F};
use crate::host::peak_rss_mib;
use crate::sessions::{drive, server_config, Job, Phase, Stop, TraceCtx, Tracing, Verifier};
use crate::stats::median;
use crate::trace::{obs_scope, snap_calls, snap_count, snap_gauge, snap_ns, Span, Tracer};
use crate::Report;

/// Instances in a session workload's warm-up session: one honest
/// instance and the tampered-io canary.
const WARM_UP_INSTANCES: usize = 2;

/// Full set-ups per run, the last of which the timed window uses;
/// `setup_s` is their median. A set-up of a session workload is mostly
/// its warm-up session, whose key generation swings with the host's
/// modular-exponentiation speed, so the median needs several samples.
const SETUPS: usize = 7;

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// LCS sessions at β = 16: prover commitment and answering dominate.
    LcsBatch16,
    /// LCS sessions at β = 1: per-session setup costs dominate.
    LcsBatch1,
    /// Batches of 16 APSP proofs from raw inputs: NTTs at 2^17.
    ApspProve16,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::LcsBatch16,
        Workload::LcsBatch1,
        Workload::ApspProve16,
    ];

    /// The name given on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::LcsBatch16 => "lcs-batch16",
            Workload::LcsBatch1 => "lcs-batch1",
            Workload::ApspProve16 => "apsp-prove16",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The computation and batch size at the benchmark's size.
    pub fn spec(self) -> Spec {
        match self {
            Workload::LcsBatch16 => Spec {
                app: Suite::Lcs(Lcs { m: 5 }),
                beta: 16,
            },
            Workload::LcsBatch1 => Spec {
                app: Suite::Lcs(Lcs { m: 5 }),
                beta: 1,
            },
            Workload::ApspProve16 => Spec {
                app: Suite::Apsp(Apsp { m: 10 }),
                beta: 16,
            },
        }
    }

    /// Runs the workload at `spec`.
    pub fn run(self, spec: Spec, opts: &RunOpts) -> Report {
        let mut report = match self {
            Workload::LcsBatch16 | Workload::LcsBatch1 => run_sessions(spec, opts),
            Workload::ApspProve16 => run_proving(spec, opts),
        };
        report.workload = self.name().to_string();
        report.seed = opts.seed;
        report.trace = opts.trace;
        report.set("peak_rss_mb", peak_rss_mib());
        report.set(
            "failed_frac",
            report.failed as f64 / report.attempted.max(1) as f64,
        );
        report
    }
}

/// The computation and batch size a workload runs.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    /// The computation.
    pub app: Suite,
    /// Instances per session (or proofs per batch).
    pub beta: usize,
}

/// How one run is measured.
#[derive(Clone, Debug)]
pub struct RunOpts {
    /// Workload seed: every input and verifier secret derives from it.
    pub seed: u64,
    /// Length of the timed window; the session or batch in progress
    /// when it ends still completes.
    pub seconds: f64,
    /// The traced run: spans, per-layer metrics.
    pub trace: bool,
}

/// Sessions of one circuit served from precomputed proofs.
fn run_sessions(spec: Spec, opts: &RunOpts) -> Report {
    let mut report = Report::default();
    let insts = instances(&spec.app, opts.seed, spec.beta);
    let tracer = Tracer::default();
    let ctx = TraceCtx::new(&tracer);
    let mut setup_times = Vec::new();
    std::thread::scope(|scope| {
        let verifier = Verifier::spawn(scope, opts.seed, opts.trace.then_some(&ctx));
        for rep in 0..SETUPS {
            let t0 = Instant::now();
            let circuit = Circuit::build(spec.app);
            let policy = circuit.policy(spec.beta);
            let (mut proved, prove_snap) =
                obs_scope(|| prove_from_inputs(&circuit, &insts, &policy, None, None));
            check_proved(&mut report, &proved, &insts, None);
            let proofs: Vec<ZaatarProof<F>> = std::mem::take(&mut proved.proofs)
                .into_iter()
                .flatten()
                .collect();
            if proofs.len() != spec.beta {
                report.attempted += spec.beta as u64;
                return;
            }
            let mut server = SessionServer::new(&circuit.pcp, &proofs, server_config());
            // Warm-up: one session of up to two instances, the last of
            // which claims a wrong output. Two are enough to exercise
            // every step of a session (key generation, SETUP, commitment,
            // answering, verification) and keep a run short, so that ten
            // runs span little of the host's drift.
            let mut canary = proved.ios[..spec.beta.min(WARM_UP_INSTANCES)].to_vec();
            *canary
                .last_mut()
                .and_then(|io| io.last_mut())
                .expect("io holds the outputs") += F::ONE;
            let warm_instances = canary.len();
            let job = Job {
                pcp: Arc::clone(&circuit.pcp),
                ios: Arc::new(canary),
                first_id: rep as u64,
                stop: Stop::Sessions(1),
                tracing: Tracing::Off,
            };
            let warm = drive(&mut server, &verifier, job, None);
            setup_times.push(t0.elapsed().as_secs_f64());
            check_phase(&mut report, &warm, warm_instances, true);
            // Set-ups before the last only count toward setup_s.
            if rep + 1 < SETUPS {
                continue;
            }
            let job = Job {
                pcp: Arc::clone(&circuit.pcp),
                ios: Arc::new(proved.ios.clone()),
                first_id: SETUPS as u64,
                stop: Stop::Seconds(opts.seconds),
                tracing: if opts.trace {
                    Tracing::Alternate
                } else {
                    Tracing::Off
                },
            };
            let (window, snap) =
                obs_scope(|| drive(&mut server, &verifier, job, opts.trace.then_some(&ctx)));
            report.attempted += window.instances(spec.beta) as u64;
            check_phase(&mut report, &window, spec.beta, false);
            session_metrics(&mut report, &window, spec.beta);
            if opts.trace {
                let workers = policy.workers.max(1) as f64;
                let parallel =
                    spec.beta as f64 / (proved.solve + proved.witness + proved.prove).as_secs_f64();
                let serial = serial_rate(&circuit, &insts, &policy);
                report.set("sched.parallel_efficiency", parallel / (workers * serial));
                proving_layers(
                    &mut report,
                    &circuit,
                    &policy,
                    proved.solve,
                    &prove_snap,
                    spec.beta,
                );
                report.spans = tracer.spans();
                serving_layers(&mut report, &window, &snap, spec.beta);
            }
        }
    });
    if !setup_times.is_empty() {
        report.set("setup_s", median(&setup_times));
    }
    report
}

/// Batches of proofs from raw inputs.
fn run_proving(spec: Spec, opts: &RunOpts) -> Report {
    let mut report = Report::default();
    let insts = instances(&spec.app, opts.seed, spec.beta);
    let tracer = Tracer::default();
    let mut setup_times = Vec::new();
    for rep in 0..SETUPS {
        let t0 = Instant::now();
        let circuit = Circuit::build(spec.app);
        let policy = circuit.policy(spec.beta);
        // Warm-up: one batch whose last instance claims a wrong output,
        // which the prover must refuse.
        let warm = prove_from_inputs(&circuit, &insts, &policy, Some(spec.beta - 1), None);
        setup_times.push(t0.elapsed().as_secs_f64());
        report.attempted += spec.beta as u64 - 1;
        check_proved(&mut report, &warm, &insts, Some(spec.beta - 1));
        if rep + 1 < SETUPS {
            continue;
        }
        // (traced, wall, solve time) per batch; the proofs are checked
        // between batches and dropped, so a run holds one batch of
        // proofs at a time.
        let (batches, snap) = obs_scope(|| {
            let start = Instant::now();
            let mut batches: Vec<(bool, Duration, Duration)> = Vec::new();
            loop {
                let have = |t: bool| batches.iter().any(|b| b.0 == t);
                let both = !opts.trace || (have(true) && have(false));
                if !batches.is_empty() && both && start.elapsed().as_secs_f64() >= opts.seconds {
                    break;
                }
                let traced = opts.trace && batches.len() % 2 == 1;
                let id = batches.len() as u64;
                let root = traced.then(|| tracer.begin("batch", id, None));
                let b0 = Instant::now();
                let proved = prove_from_inputs(
                    &circuit,
                    &insts,
                    &policy,
                    None,
                    root.map(|r| (&tracer, id, r)),
                );
                let wall = b0.elapsed();
                if let Some(root) = root {
                    tracer.end(root);
                }
                report.attempted += spec.beta as u64;
                check_proved(&mut report, &proved, &insts, None);
                batches.push((traced, wall, proved.solve));
            }
            batches
        });
        let proofs = (batches.len() * spec.beta) as f64;
        let busy: f64 = batches.iter().map(|b| b.1.as_secs_f64()).sum();
        let untraced: Vec<f64> = batches
            .iter()
            .filter(|b| !b.0)
            .map(|b| b.1.as_secs_f64())
            .collect();
        report.set("instances_per_s", proofs / busy);
        report.set("session_s.p50", median(&untraced));
        report.set("prover_ms_per_instance", busy * 1e3 / proofs);
        report.set("samples.batches", batches.len() as f64);
        if opts.trace {
            let serial = serial_rate(&circuit, &insts, &policy);
            report.set(
                "sched.parallel_efficiency",
                (proofs / busy) / (policy.workers.max(1) as f64 * serial),
            );
            let solve: Duration = batches.iter().map(|b| b.2).sum();
            proving_layers(
                &mut report,
                &circuit,
                &policy,
                solve,
                &snap,
                batches.len() * spec.beta,
            );
            report.spans = tracer.spans();
            let traced: Vec<f64> = batches
                .iter()
                .filter(|b| b.0)
                .map(|b| b.1.as_secs_f64())
                .collect();
            let (coverage, residual) = coverage(
                &report.spans,
                "batch",
                &["cc.solve", "cc.witness", "runtime.prove_batch"],
            );
            report.set("trace.coverage", coverage);
            report.set("trace.residual_ms", residual);
            report.set(
                "trace.overhead_frac",
                median(&traced) / median(&untraced) - 1.0,
            );
        }
    }
    report.set("setup_s", median(&setup_times));
    report
}

/// Checks one pass of the pipeline: every proof produced (the canary's
/// refused) and every claimed output equal to the native reference.
fn check_proved(report: &mut Report, proved: &Proved, insts: &[Instance], canary: Option<usize>) {
    report.fail(
        proved.wrong_outputs as u64,
        format!(
            "{} of {} claimed outputs differ from the native reference",
            proved.wrong_outputs,
            insts.len()
        ),
    );
    let missing = proved
        .proofs
        .iter()
        .enumerate()
        .filter(|(i, p)| Some(*i) != canary && p.is_none())
        .count();
    report.fail(
        missing as u64,
        format!("the prover refused {missing} honest instances"),
    );
    if let Some(c) = canary {
        if proved.proofs[c].is_some() {
            report.fail(1, "the prover proved the tampered-io canary".to_string());
        }
    }
}

/// Checks a session phase: every verdict `Accepted` (in the warm-up the
/// last instance, the tampered-io canary, must be `Rejected`) and every
/// session served.
fn check_phase(report: &mut Report, phase: &Phase, beta: usize, warm_up: bool) {
    let mut verdicts = phase.verdicts(beta);
    if warm_up {
        let canary = verdicts.pop();
        if canary != Some(VerifyOutcome::Rejected) {
            report.fail(
                1,
                format!("tampered-io canary ended {canary:?}, not Rejected"),
            );
        }
        report.attempted += verdicts.len() as u64;
    }
    let bad = verdicts.iter().filter(|v| !v.is_accepted()).count();
    report.fail(bad as u64, format!("{bad} honest instances not Accepted"));
    for s in &phase.sessions {
        if let Err(e) = &s.result {
            report
                .problems
                .push(format!("session {} failed: {e}", s.id));
        }
    }
    let unserved = phase.unserved();
    if unserved > 0 {
        report.problems.push(format!(
            "{unserved} sessions not served: {:?}",
            phase.server_outcomes
        ));
    }
}

/// End-to-end metrics of a session window. Session latency counts the
/// untraced sessions only, so a traced run's figure stays comparable.
fn session_metrics(report: &mut Report, w: &Phase, beta: usize) {
    let n = w.instances(beta) as f64;
    let accepted = w.verdicts(beta).iter().filter(|v| v.is_accepted()).count() as f64;
    let walls: Vec<f64> = w
        .sessions
        .iter()
        .filter(|s| !s.traced)
        .map(|s| s.wall.as_secs_f64())
        .collect();
    let bytes: u64 = w.sessions.iter().map(|s| s.bytes).sum();
    report.set("instances_per_s", accepted / w.wall.as_secs_f64());
    report.set("session_s.p50", median(&walls));
    report.set(
        "prover_ms_per_instance",
        w.server_busy.as_secs_f64() * 1e3 / n,
    );
    report.set(
        "verifier_cpu_ms_per_instance",
        w.client_cpu.as_secs_f64() * 1e3 / n,
    );
    report.set("wire_kb_per_instance", bytes as f64 / 1024.0 / n);
    report.set("samples.sessions", w.sessions.len() as f64);
}

/// Per-layer metrics of proof construction, from the obs snapshot of
/// the phase that proved `proofs` proofs and spent `solve` in the
/// witness solver.
fn proving_layers(
    report: &mut Report,
    c: &Circuit,
    policy: &ExecPolicy,
    solve: Duration,
    snap: &Snapshot,
    proofs: usize,
) {
    let per = |ns: u64| ns as f64 / 1e6 / proofs as f64;
    report.set("pcp.prove_ms", per(snap_ns(snap, "pcp.prove")));
    report.set(
        "poly.ntt_ms",
        per(snap_ns(snap, "poly.ntt.forward") + snap_ns(snap, "poly.ntt.inverse")),
    );
    report.set(
        "poly.ntt_calls",
        (snap_calls(snap, "poly.ntt.forward") + snap_calls(snap, "poly.ntt.inverse")) as f64
            / proofs as f64,
    );
    report.set("poly.quotient_ms", per(snap_ns(snap, "poly.quotient")));
    report.set("cc.solve_ms", solve.as_secs_f64() * 1e3 / proofs as f64);
    report.set("cc.compile_ms", c.compile.as_secs_f64() * 1e3);
    report.set("mem.prove_hit_rate", hit_rate(snap));
    report.set(
        "mem.high_water_bytes",
        snap_gauge(snap, "mem.scratch.high_water") as f64,
    );
    report.set("sched.workers", policy.workers as f64);
    report.set(
        "sched.streamed",
        f64::from(u8::from(matches!(policy.proving, Proving::Streamed { .. }))),
    );
}

/// Per-layer metrics of serving: crates' obs timers scoped to the
/// window, plus the spans of the traced sessions (`report.spans`).
fn serving_layers(report: &mut Report, w: &Phase, snap: &Snapshot, beta: usize) {
    let sessions = w.sessions.len() as f64;
    let inst = w.instances(beta) as f64;
    let per_inst = |name: &str| snap_ns(snap, name) as f64 / 1e6 / inst;
    let per_sess = |name: &str| snap_ns(snap, name) as f64 / 1e6 / sessions;
    report.set("crypto.keygen_ms", per_sess("commit.keygen"));
    report.set("crypto.commit_ms", per_inst("commit.commit"));
    report.set(
        "crypto.msm_buckets",
        snap_count(snap, "commit.msm.buckets") as f64 / inst,
    );
    report.set(
        "crypto.msm_doublings",
        snap_count(snap, "commit.msm.doublings") as f64 / inst,
    );
    report.set("crypto.verify_ms", per_inst("commit.verify"));
    report.set("pcp.queries_ms", per_sess("pcp.generate_queries"));
    report.set("pcp.consistency_ms", per_sess("commit.consistency_query"));
    report.set("pcp.answer_ms", per_inst("pcp.answer"));
    report.set("pcp.check_us", per_inst("pcp.check") * 1e3);
    report.set("mem.serve_hit_rate", hit_rate(snap));
    let bytes: u64 = w.sessions.iter().map(|s| s.bytes).sum();
    let frames: u64 = w.sessions.iter().map(|s| s.frames).sum();
    let retransmits: u64 = w
        .sessions
        .iter()
        .filter_map(|s| s.result.as_ref().ok())
        .map(|r| r.retransmits)
        .sum();
    report.set("transport.bytes_per_session", bytes as f64 / sessions);
    report.set("transport.frames_per_session", frames as f64 / sessions);
    report.set("transport.retransmits", retransmits as f64);
    report.set(
        "server.busy_frac",
        w.server_busy.as_secs_f64() / w.wall.as_secs_f64(),
    );
    let failed = w
        .server_outcomes
        .iter()
        .filter(|o| matches!(o, SessionOutcome::Failed(_) | SessionOutcome::Expired))
        .count();
    report.set("server.sessions_accepted", w.server_outcomes.len() as f64);
    report.set("server.sessions_rejected", w.refused as f64);
    report.set("server.sessions_failed", failed as f64);

    let spans = std::mem::take(&mut report.spans);
    let mean_ms = |name: &str| {
        let d: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect();
        d.iter().sum::<f64>() / d.len().max(1) as f64
    };
    let server_setup = mean_ms("server.setup");
    report.set("server.setup_ms", server_setup);
    report.set("server.admit_us", mean_ms("server.admit") * 1e3);
    // Encode, send, receive and decode of SETUP (and its ACK): the
    // client's exchange less the server's handling inside it.
    report.set(
        "transport.setup_frame_ms",
        mean_ms("exchange.setup") - server_setup,
    );
    let (coverage, residual) = coverage(
        &spans,
        "session",
        &[
            "verifier.new",
            "verifier.setup_message",
            "verifier.verify",
            "server.admit",
            "server.setup",
            "server.instance",
            "server.done",
        ],
    );
    report.set("trace.coverage", coverage);
    report.set("trace.residual_ms", residual);
    let wall = |traced: bool| -> Vec<f64> {
        w.sessions
            .iter()
            .filter(|s| s.traced == traced)
            .map(|s| s.wall.as_secs_f64())
            .collect()
    };
    report.set(
        "trace.overhead_frac",
        median(&wall(true)) / median(&wall(false)) - 1.0,
    );
    report.spans = spans;
}

/// Share of each `root` span's wall time covered by the `layers` spans
/// of the same session (clipped to the root), averaged over roots, and
/// the mean uncovered remainder in milliseconds.
pub fn coverage(spans: &[Span], root: &str, layers: &[&str]) -> (f64, f64) {
    let roots: Vec<&Span> = spans.iter().filter(|s| s.name == root).collect();
    let mut shares = Vec::new();
    let mut residuals = Vec::new();
    for r in &roots {
        let covered: u64 = spans
            .iter()
            .filter(|s| s.session == r.session && layers.contains(&s.name))
            .map(|s| {
                s.end_ns
                    .min(r.end_ns)
                    .saturating_sub(s.start_ns.max(r.start_ns))
            })
            .sum();
        let wall = r.dur_ns().max(1);
        shares.push(covered as f64 / wall as f64);
        residuals.push(wall.saturating_sub(covered) as f64 / 1e6);
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    (mean(&shares), mean(&residuals))
}

/// Hits over leases of the workspace scratch pools in a snapshot.
fn hit_rate(snap: &Snapshot) -> f64 {
    let hits = snap_count(snap, "mem.scratch.hit");
    let leases = hits + snap_count(snap, "mem.scratch.miss");
    if leases == 0 {
        0.0
    } else {
        hits as f64 / leases as f64
    }
}

/// Proofs per second of one serial batch through the same pipeline.
fn serial_rate(c: &Circuit, insts: &[Instance], policy: &ExecPolicy) -> f64 {
    let serial = ExecPolicy {
        workers: 1,
        ..*policy
    };
    let start = Instant::now();
    prove_from_inputs(c, insts, &serial, None, None);
    insts.len() as f64 / start.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sessions::ClientSession;
    use zaatar_core::SessionReport;

    fn phase(outcomes: Vec<VerifyOutcome>) -> Phase {
        let session = ClientSession {
            id: 0,
            traced: false,
            wall: Duration::from_millis(1),
            result: Ok(SessionReport {
                outcomes,
                retransmits: 0,
                elapsed: Duration::from_millis(1),
            }),
            bytes: 1,
            frames: 1,
        };
        Phase {
            sessions: vec![session],
            wall: Duration::from_millis(1),
            client_cpu: Duration::ZERO,
            server_busy: Duration::ZERO,
            server_outcomes: vec![SessionOutcome::Served],
            refused: 0,
        }
    }

    #[test]
    fn an_accepted_canary_fails_the_run() {
        use VerifyOutcome::{Accepted, Rejected};
        let mut ok = Report::default();
        check_phase(&mut ok, &phase(vec![Accepted, Rejected]), 2, true);
        assert_eq!((ok.attempted, ok.failed), (1, 0));
        assert!(ok.correct());

        let mut tripped = Report::default();
        check_phase(&mut tripped, &phase(vec![Accepted, Accepted]), 2, true);
        assert_eq!(tripped.failed, 1);
        assert!(!tripped.correct());

        let mut rejected = Report::default();
        check_phase(&mut rejected, &phase(vec![Rejected, Accepted]), 2, false);
        assert_eq!(rejected.failed, 1, "an honest instance must be Accepted");
    }

    #[test]
    fn a_proved_canary_or_missing_proof_fails_the_run() {
        let insts = vec![
            Instance {
                inputs: Vec::new(),
                reference: vec![0]
            };
            2
        ];
        let proof = || {
            Some(ZaatarProof {
                z: Vec::new(),
                h: Vec::new(),
            })
        };
        let proved = |proofs, wrong_outputs| Proved {
            proofs,
            ios: Vec::new(),
            wrong_outputs,
            solve: Duration::ZERO,
            witness: Duration::ZERO,
            prove: Duration::ZERO,
        };
        let mut ok = Report::default();
        check_proved(&mut ok, &proved(vec![proof(), None], 0), &insts, Some(1));
        assert_eq!(ok.failed, 0);

        let mut proved_canary = Report::default();
        check_proved(
            &mut proved_canary,
            &proved(vec![proof(), proof()], 0),
            &insts,
            Some(1),
        );
        assert_eq!(proved_canary.failed, 1);

        let mut missing = Report::default();
        check_proved(&mut missing, &proved(vec![None, proof()], 0), &insts, None);
        assert_eq!(missing.failed, 1);

        let mut wrong = Report::default();
        check_proved(&mut wrong, &proved(vec![proof(), proof()], 2), &insts, None);
        assert_eq!(
            wrong.failed, 2,
            "claimed outputs must match the native reference"
        );
    }

    #[test]
    fn coverage_clips_layers_to_their_session() {
        let span = |name, session, start_ns, end_ns| Span {
            name,
            start_ns,
            end_ns,
            parent: None,
            session,
        };
        let spans = [
            span("session", 1, 0, 100),
            span("verifier.new", 1, 0, 40),
            span("server.setup", 1, 50, 80),
            span("server.done", 1, 95, 120),
            span("server.setup", 2, 10, 20),
        ];
        let (share, residual_ms) = coverage(
            &spans,
            "session",
            &["verifier.new", "server.setup", "server.done"],
        );
        assert!((share - 0.75).abs() < 1e-12);
        assert!((residual_ms - 25e-6).abs() < 1e-12);
    }
}
