//! The verifier ↔ `SessionServer` workloads: one process, the server's
//! poll loop on the calling thread and one verifier client thread in a
//! closed loop (the next session starts only when the last one ends),
//! over the framed in-memory loopback transport.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender, TryRecvError};
use std::sync::Arc;
use std::thread::Scope;
use std::time::{Duration, Instant};

use zaatar_core::runtime::msg;
use zaatar_core::wire::WireError;
use zaatar_core::{
    run_session_verifier, SessionError, SessionReport, SessionVerifier, VerifyOutcome,
};
use zaatar_crypto::ChaChaPrg;
use zaatar_poly::Radix2Domain;
use zaatar_server::{Admission, ServerConfig, SessionOutcome, SessionServer};
use zaatar_transport::{
    exchange, loopback_transport_pair, Frame, LoopbackTransport, RetryPolicy, Transport,
    TransportError,
};

use crate::circuit::{mix, Pcp, F};
use crate::host::thread_cpu_ns;
use crate::trace::{SpanId, Tracer};

/// The loopback link is lossless, so a retransmission would only mean
/// the peer was slow; these waits are far above any exchange's service
/// time so that none happens.
pub fn retry_policy() -> RetryPolicy {
    RetryPolicy {
        deadline: Duration::from_secs(150),
        initial_timeout: Duration::from_secs(60),
        backoff_factor: 2,
        max_timeout: Duration::from_secs(60),
        max_retransmits: 1,
    }
}

/// Server limits with room for the closed loop: a session is never
/// refused, expired or idled out for being slow. One frame per sweep,
/// so each `poll` call that does work handles exactly one protocol step
/// (SETUP, one instance, or DONE) and the trace can name it.
pub fn server_config() -> ServerConfig {
    ServerConfig {
        session_budget: Duration::from_secs(600),
        idle_timeout: Duration::from_secs(150),
        frames_per_sweep: 1,
        ..ServerConfig::default()
    }
}

/// When the client stops starting sessions.
#[derive(Clone, Copy, Debug)]
pub enum Stop {
    /// After exactly this many sessions.
    Sessions(usize),
    /// After the first session that ends past this much time; at least
    /// one session runs.
    Seconds(f64),
}

/// Which sessions run through the traced verifier loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tracing {
    /// None.
    Off,
    /// Every other session, starting with an untraced one, so the
    /// traced and untraced latencies come from the same phase.
    Alternate,
}

/// One verifier session as the client saw it.
#[derive(Debug)]
pub struct ClientSession {
    /// Benchmark-wide session number (also the span session id).
    pub id: u64,
    /// Whether it ran through the traced loop.
    pub traced: bool,
    /// Verifier-observed latency.
    pub wall: Duration,
    /// Verdicts, or the error that ended the session.
    pub result: Result<SessionReport, SessionError>,
    /// Framed bytes in both directions.
    pub bytes: u64,
    /// Frames in both directions.
    pub frames: u64,
}

/// Everything one phase (warm-up or timed window) measured.
#[derive(Debug)]
pub struct Phase {
    /// Client sessions in order.
    pub sessions: Vec<ClientSession>,
    /// From the first session's start to the last one's end.
    pub wall: Duration,
    /// CPU time of the client thread over the phase.
    pub client_cpu: Duration,
    /// Summed duration of the `SessionServer::poll` calls that
    /// processed a frame or ended a session.
    pub server_busy: Duration,
    /// Terminal states the server reported, by session.
    pub server_outcomes: Vec<SessionOutcome>,
    /// Admissions the server refused.
    pub refused: u64,
}

impl Phase {
    /// Instances the client asked for.
    pub fn instances(&self, beta: usize) -> usize {
        self.sessions.len() * beta
    }

    /// Every verdict across the phase (sessions that failed outright
    /// contribute `TimedOut` for each of their instances).
    pub fn verdicts(&self, beta: usize) -> Vec<VerifyOutcome> {
        self.sessions
            .iter()
            .flat_map(|s| match &s.result {
                Ok(report) => report.outcomes.clone(),
                Err(_) => vec![VerifyOutcome::TimedOut; beta],
            })
            .collect()
    }

    /// Sessions the server did not end as `Served`.
    pub fn unserved(&self) -> usize {
        self.server_outcomes
            .iter()
            .filter(|o| **o != SessionOutcome::Served)
            .count()
            + self.refused as usize
    }
}

/// Trace state shared by the client and server threads.
pub struct TraceCtx<'t> {
    /// The span recorder.
    pub tracer: &'t Tracer,
    /// Most recent SETUP exchange span the client opened.
    setup_exchange: AtomicUsize,
    /// Most recent INSTANCE_REQ exchange span the client opened.
    instance_exchange: AtomicUsize,
}

const NO_SPAN: usize = usize::MAX;

impl<'t> TraceCtx<'t> {
    /// Shared trace state over `tracer`.
    pub fn new(tracer: &'t Tracer) -> Self {
        TraceCtx {
            tracer,
            setup_exchange: AtomicUsize::new(NO_SPAN),
            instance_exchange: AtomicUsize::new(NO_SPAN),
        }
    }

    fn parent(slot: &AtomicUsize) -> Option<SpanId> {
        // A span id, not a publication of other data: Relaxed suffices.
        Some(slot.load(Ordering::Relaxed)).filter(|&id| id != NO_SPAN)
    }
}

/// One phase of sessions for the verifier to run.
pub struct Job {
    /// The circuit's PCP, shared with the server.
    pub pcp: Arc<Pcp>,
    /// Each instance's claimed io; every session claims all of them.
    pub ios: Arc<Vec<Vec<F>>>,
    /// Number of the phase's first session.
    pub first_id: u64,
    /// When the verifier stops starting sessions.
    pub stop: Stop,
    /// Which sessions run through the traced loop.
    pub tracing: Tracing,
}

/// What the verifier thread tells the poll loop.
enum ClientMsg {
    /// A new session's server end, to admit.
    Connect(u64, bool, LoopbackTransport),
    /// The phase is over: its sessions, wall time and client CPU time.
    Done(Vec<ClientSession>, Duration, Duration),
}

/// The verifier client: one thread for the whole run, so every session
/// allocates from the same allocator arena and the process's peak
/// residency does not depend on the order in which short-lived threads
/// happened to exit.
pub struct Verifier {
    jobs: Sender<Job>,
    msgs: Receiver<ClientMsg>,
}

impl Verifier {
    /// Starts the verifier thread in `scope`; it runs each [`Job`] sent
    /// through [`drive`] and exits once the `Verifier` is dropped.
    pub fn spawn<'scope, 'env>(
        scope: &'scope Scope<'scope, 'env>,
        seed: u64,
        ctx: Option<&'env TraceCtx<'env>>,
    ) -> Verifier {
        let (jobs, job_rx) = mpsc::channel::<Job>();
        let (msg_tx, msgs) = mpsc::channel::<ClientMsg>();
        scope.spawn(move || {
            for job in job_rx {
                let done = run_job(&job, seed, ctx, &msg_tx);
                if msg_tx.send(done).is_err() {
                    break;
                }
            }
        });
        Verifier { jobs, msgs }
    }
}

/// The verifier's side of one phase: sessions back to back until the
/// job's stop condition holds.
fn run_job(job: &Job, seed: u64, ctx: Option<&TraceCtx<'_>>, tx: &Sender<ClientMsg>) -> ClientMsg {
    let policy = retry_policy();
    let cpu0 = thread_cpu_ns();
    let start = Instant::now();
    let mut sessions: Vec<ClientSession> = Vec::new();
    loop {
        let done = match job.stop {
            Stop::Sessions(n) => sessions.len() >= n,
            Stop::Seconds(s) => {
                let have = |t: bool| sessions.iter().any(|c| c.traced == t);
                let both_kinds = job.tracing == Tracing::Off || (have(true) && have(false));
                !sessions.is_empty() && both_kinds && start.elapsed().as_secs_f64() >= s
            }
        };
        if done {
            break;
        }
        let id = job.first_id + sessions.len() as u64;
        let traced = job.tracing == Tracing::Alternate && sessions.len() % 2 == 1;
        let (mut vt, pt) = loopback_transport_pair();
        if tx.send(ClientMsg::Connect(id, traced, pt)).is_err() {
            break;
        }
        let mut prg = ChaChaPrg::from_u64_seed(mix(seed, 0x5e55_0000 + id));
        let t0 = Instant::now();
        let result = match (traced, ctx) {
            (true, Some(ctx)) => {
                traced_session(&mut vt, &job.pcp, &job.ios, &policy, &mut prg, ctx, id)
            }
            _ => run_session_verifier(&mut vt, &*job.pcp, &job.ios, &policy, &mut prg),
        };
        let wall = t0.elapsed();
        let st = vt.stats();
        sessions.push(ClientSession {
            id,
            traced,
            wall,
            result,
            bytes: st.bytes_sent + st.bytes_received,
            frames: st.frames_sent + st.frames_received,
        });
    }
    let cpu = Duration::from_nanos(thread_cpu_ns() - cpu0);
    ClientMsg::Done(sessions, start.elapsed(), cpu)
}

/// Runs one phase: hands `job` to the verifier thread and serves its
/// sessions from the calling thread's poll loop until the verifier is
/// done and every session has ended.
///
/// Each working `poll` call handles one frame (see [`server_config`]),
/// and in the closed loop every frame but a finished session's DONE
/// belongs to the newest session, so a poll is its SETUP (the newest
/// session's first frame), one of its instances, or a DONE (the poll
/// that ended a session).
pub fn drive(
    server: &mut SessionServer<'_, F, Radix2Domain<F>>,
    verifier: &Verifier,
    job: Job,
    ctx: Option<&TraceCtx<'_>>,
) -> Phase {
    verifier
        .jobs
        .send(job)
        .expect("the verifier thread outlives the run");
    let mut client = None;
    let mut server_busy = Duration::ZERO;
    let mut server_outcomes = Vec::new();
    let mut refused = 0u64;
    // The newest session: benchmark id, traced, and whether its SETUP
    // has been handled.
    let mut newest: Option<(u64, bool, bool)> = None;
    // Server session ids → benchmark ids, for naming DONE polls.
    let mut ids: Vec<(u64, u64)> = Vec::new();
    loop {
        match verifier.msgs.try_recv() {
            Ok(ClientMsg::Connect(id, traced, pt)) => {
                let t0 = Instant::now();
                let admission = server.admit(pt, "perfbench");
                if let (Some(ctx), true) = (ctx, traced) {
                    ctx.tracer
                        .record("server.admit", id, None, t0, Instant::now());
                }
                match admission {
                    Admission::Admitted(sid) => {
                        ids.push((sid, id));
                        newest = Some((id, traced, false));
                    }
                    Admission::Rejected(_) => refused += 1,
                }
            }
            Ok(ClientMsg::Done(sessions, wall, cpu)) => client = Some((sessions, wall, cpu)),
            Err(TryRecvError::Empty) => {}
            Err(TryRecvError::Disconnected) => panic!("the verifier thread ended early"),
        }
        if client.is_some() && server.live_sessions() == 0 {
            break;
        }
        let frames_before = server.stats().frames_processed;
        let t0 = Instant::now();
        let finished = server.poll();
        let t1 = Instant::now();
        if server.stats().frames_processed == frames_before && finished.is_empty() {
            // Yield rather than sleep: the poll loop keeps its core, as a
            // busy-polling server does. Letting the core idle between
            // sweeps doubled the run-to-run spread of session timings on
            // a shared 2-vCPU host.
            std::thread::yield_now();
            continue;
        }
        server_busy += t1 - t0;
        let (name, session, traced) = match (finished.first(), newest.as_mut()) {
            (Some(&(sid, _)), _) => {
                let id = ids.iter().find(|p| p.0 == sid).map_or(0, |p| p.1);
                ("server.done", id, newest.is_some_and(|n| n.0 == id && n.1))
            }
            (None, Some((id, traced, setup_seen))) if !*setup_seen => {
                *setup_seen = true;
                ("server.setup", *id, *traced)
            }
            (None, Some((id, traced, _))) => ("server.instance", *id, *traced),
            (None, None) => ("server.other", 0, false),
        };
        if let (Some(ctx), true) = (ctx, traced) {
            let parent = match name {
                "server.setup" => TraceCtx::parent(&ctx.setup_exchange),
                "server.instance" => TraceCtx::parent(&ctx.instance_exchange),
                _ => None,
            };
            ctx.tracer.record(name, session, parent, t0, t1);
        }
        server_outcomes.extend(finished.into_iter().map(|(_, outcome)| outcome));
    }
    let (sessions, wall, client_cpu) = client.expect("loop ends only once the verifier is done");
    Phase {
        sessions,
        wall,
        client_cpu,
        server_busy,
        server_outcomes,
        refused,
    }
}

/// [`run_session_verifier`] step by step, with a span around each call
/// into the verifier and each exchange. Same PRG draws in the same
/// order, the same error handling and the same obs timer and counters,
/// so the transcript and the verdicts match the untraced session's.
#[allow(clippy::too_many_arguments)]
fn traced_session(
    transport: &mut LoopbackTransport,
    pcp: &Pcp,
    ios: &[Vec<F>],
    policy: &RetryPolicy,
    prg: &mut ChaChaPrg,
    ctx: &TraceCtx<'_>,
    id: u64,
) -> Result<SessionReport, SessionError> {
    if ios.len() >= u32::MAX as usize {
        return Err(SessionError::Wire(WireError::TooLong { len: ios.len() }));
    }
    let tr = ctx.tracer;
    let _timer = zaatar_obs::time("runtime.session");
    let started = Instant::now();
    let root = tr.begin("session", id, None);
    let result = (|| {
        let mut verifier = tr.span("verifier.new", id, Some(root), || {
            SessionVerifier::new(pcp, prg)
        });
        let mut retry_prg = prg.fork(1);
        let mut retransmits = 0u64;
        let setup = tr.span("verifier.setup_message", id, Some(root), || {
            verifier.setup_message()
        })?;
        let span = tr.begin("exchange.setup", id, Some(root));
        ctx.setup_exchange.store(span, Ordering::Relaxed);
        let setup = Frame::new(msg::SETUP, 0, setup);
        let ack = exchange(
            transport,
            &setup,
            &[msg::SETUP_ACK, msg::ERROR],
            policy,
            &mut retry_prg,
        );
        tr.end(span);
        let ack = ack?;
        retransmits += ack.retransmits as u64;
        if ack.response.msg_type == msg::ERROR {
            return Err(SessionError::Peer(
                ack.response.payload.first().copied().unwrap_or(0),
            ));
        }
        let mut outcomes = Vec::with_capacity(ios.len());
        let mut channel_gone = false;
        for (i, io) in ios.iter().enumerate() {
            if channel_gone {
                outcomes.push(VerifyOutcome::TimedOut);
                continue;
            }
            let span = tr.begin("exchange.instance", id, Some(root));
            ctx.instance_exchange.store(span, Ordering::Relaxed);
            let req = Frame::new(
                msg::INSTANCE_REQ,
                (i + 1) as u32,
                (i as u32).to_le_bytes().to_vec(),
            );
            let out = exchange(
                transport,
                &req,
                &[msg::INSTANCE_RESP, msg::ERROR],
                policy,
                &mut retry_prg,
            );
            tr.end(span);
            let outcome = match out {
                Ok(out) => {
                    retransmits += out.retransmits as u64;
                    if out.response.msg_type == msg::ERROR {
                        VerifyOutcome::Malformed(WireError::Invalid)
                    } else {
                        let verdict = tr.span("verifier.verify", id, Some(root), || {
                            verifier.verify_instance(&out.response.payload, io)
                        });
                        match verdict {
                            Ok(true) => VerifyOutcome::Accepted,
                            Ok(false) => VerifyOutcome::Rejected,
                            Err(e) => VerifyOutcome::Malformed(e),
                        }
                    }
                }
                Err(TransportError::TimedOut) => VerifyOutcome::TimedOut,
                Err(_) => {
                    channel_gone = true;
                    VerifyOutcome::TimedOut
                }
            };
            let counter = match outcome {
                VerifyOutcome::Accepted => "runtime.verifier.accepted",
                VerifyOutcome::Rejected => "runtime.verifier.rejected",
                VerifyOutcome::Malformed(_) => "runtime.verifier.malformed",
                VerifyOutcome::TimedOut => "runtime.verifier.timed_out",
            };
            zaatar_obs::counter(counter).inc();
            outcomes.push(outcome);
        }
        tr.span("exchange.done", id, Some(root), || {
            let _ = transport.send(&Frame::new(msg::DONE, u32::MAX, Vec::new()));
        });
        zaatar_obs::counter("runtime.verifier.retransmits").add(retransmits);
        Ok(SessionReport {
            outcomes,
            retransmits,
            elapsed: started.elapsed(),
        })
    })();
    tr.end(root);
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::{instances, prove_from_inputs, Circuit};
    use crate::trace::Tracer;
    use zaatar_apps::lcs::Lcs;
    use zaatar_apps::Suite;
    use zaatar_core::{run_session_prover, ZaatarProof};
    use zaatar_field::Field;

    /// What the verifier saw of one session: its result and the framed
    /// bytes and frames in both directions.
    type Seen = (Result<SessionReport, SessionError>, u64, u64);

    /// One session from the same verifier seed, through the traced loop
    /// or `run_session_verifier`, against a peer running `serve`.
    fn session(
        traced: bool,
        pcp: &Pcp,
        ios: &[Vec<F>],
        serve: impl FnOnce(LoopbackTransport) + Send,
    ) -> Seen {
        let (mut vt, pt) = loopback_transport_pair();
        let tracer = Tracer::default();
        let ctx = TraceCtx::new(&tracer);
        let mut prg = ChaChaPrg::from_u64_seed(0x7ace);
        let policy = retry_policy();
        let result = std::thread::scope(|scope| {
            scope.spawn(move || serve(pt));
            if traced {
                traced_session(&mut vt, pcp, ios, &policy, &mut prg, &ctx, 1)
            } else {
                run_session_verifier(&mut vt, pcp, ios, &policy, &mut prg)
            }
        });
        let st = vt.stats();
        (
            result,
            st.bytes_sent + st.bytes_received,
            st.frames_sent + st.frames_received,
        )
    }

    /// The same session both ways; everything but the report's
    /// `elapsed`, which no two sessions share, must match.
    fn both_ways(pcp: &Pcp, ios: &[Vec<F>], serve: impl Fn(LoopbackTransport) + Sync) -> Seen {
        let untraced = session(false, pcp, ios, &serve);
        let traced = session(true, pcp, ios, &serve);
        let strip = |seen: &Seen| {
            let result = seen
                .0
                .as_ref()
                .map(|r| (r.outcomes.clone(), r.retransmits))
                .map_err(|e| *e);
            (result, seen.1, seen.2)
        };
        assert_eq!(strip(&traced), strip(&untraced));
        traced
    }

    #[test]
    fn traced_sessions_match_run_session_verifier() {
        let app = Suite::Lcs(Lcs { m: 2 });
        let circuit = Circuit::build(app);
        let insts = instances(&app, 7, 2);
        let mut proved = prove_from_inputs(&circuit, &insts, &circuit.policy(2), None, None);
        let proofs: Vec<ZaatarProof<F>> = std::mem::take(&mut proved.proofs)
            .into_iter()
            .flatten()
            .collect();
        assert_eq!(proofs.len(), 2);
        // An honest instance, one claiming a wrong output, and one the
        // prover holds no proof for (answered with ERROR).
        let mut ios = proved.ios.clone();
        *ios[1].last_mut().expect("io holds the outputs") += F::ONE;
        ios.push(proved.ios[0].clone());
        let pcp = &*circuit.pcp;

        let honest = both_ways(pcp, &ios, |mut pt| {
            run_session_prover(&mut pt, pcp, &proofs, Duration::from_secs(30))
                .expect("the prover serves the session");
        });
        let report = honest.0.expect("the session completes");
        assert_eq!(
            report.outcomes,
            [
                VerifyOutcome::Accepted,
                VerifyOutcome::Rejected,
                VerifyOutcome::Malformed(WireError::Invalid),
            ]
        );

        // A peer that acknowledges SETUP and hangs up: every instance
        // ends TimedOut and the session itself still completes.
        let gone = both_ways(pcp, &ios, |mut pt| {
            let setup = pt
                .recv(Instant::now() + Duration::from_secs(30))
                .expect("SETUP arrives");
            pt.send(&Frame::new(msg::SETUP_ACK, setup.seq, Vec::new()))
                .expect("the verifier is listening");
        });
        let report = gone.0.expect("the session completes");
        assert_eq!(report.outcomes, [VerifyOutcome::TimedOut; 3]);
    }
}
