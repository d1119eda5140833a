//! Session drivers over a fault-tolerant [`Transport`]: the batched
//! argument protocol run across a real (or deliberately hostile)
//! channel, with retransmission and per-instance graceful degradation.
//!
//! The message sequence mirrors [`crate::session`]:
//!
//! ```text
//! V → P   SETUP (seq 0)        commitment keys, query seed, t-vectors
//!         (or HSETUP)          the same for several circuits at once
//! P → V   SETUP_ACK (seq 0)    or ERROR if the setup failed validation
//! V → P   INSTANCE_REQ (seq i+1, payload = LE32 instance index)
//! P → V   INSTANCE_RESP        commitments + decommitments
//! V → P   DONE                 best-effort session close
//! ```
//!
//! The prover side of a session is one state machine,
//! [`ServingSession`], fed one frame at a time; the blocking
//! [`run_hetero_session_prover`] loop and the poll-loop server in
//! `zaatar-server` both drive it, so they answer every frame with the
//! same bytes. The verifier side is one driver shared by
//! [`run_session_verifier`] and [`run_hetero_session_verifier`].
//!
//! Every exchange is idempotent — the setup is deterministic state, and
//! each instance response is computed once and cached — so the retry
//! layer may retransmit freely, and duplicates or reordered frames are
//! resolved by the frame `seq`. A lost or mangled *instance* costs only
//! that instance ([`VerifyOutcome::TimedOut`] / `Malformed`); the batch
//! carries on, which is the graceful-degradation contract the batched
//! argument wants (β instances amortize one setup, so aborting β−1 good
//! instances over one bad one would forfeit the amortization).

use std::time::{Duration, Instant};

use zaatar_crypto::{ChaChaPrg, HasGroup};
use zaatar_field::PrimeField;
use zaatar_mem::MemBudget;
use zaatar_poly::domain::EvalDomain;
use zaatar_sched::ExecPolicy;
use zaatar_transport::{exchange, Frame, RetryPolicy, Transport, TransportError};

use crate::parallel::parallel_map_with;
use crate::pcp::{ZaatarPcp, ZaatarProof};
use crate::qap::QapWitness;
use crate::session::{HeteroSessionProver, HeteroSessionVerifier, SessionError, SessionVerifier};
use crate::wire::WireError;
use crate::workspace::ProverWorkspace;

/// Frame `msg_type` values of the session protocol.
pub mod msg {
    /// V → P: the batch setup message.
    pub const SETUP: u8 = 1;
    /// P → V: setup received and validated.
    pub const SETUP_ACK: u8 = 2;
    /// V → P: request for one instance's proof message.
    pub const INSTANCE_REQ: u8 = 3;
    /// P → V: one instance's commitments + decommitments.
    pub const INSTANCE_RESP: u8 = 4;
    /// Either direction: a typed failure report (payload = error code).
    pub const ERROR: u8 = 5;
    /// V → P: the session is over (best effort).
    pub const DONE: u8 = 6;
    /// V → P: the heterogeneous batch setup (several circuits in one
    /// session; see `crate::session::HeteroSessionVerifier`).
    pub const HSETUP: u8 = 7;
}

/// Error codes carried in [`msg::ERROR`] payloads.
pub mod errcode {
    /// The message failed wire-format or structure validation.
    pub const MALFORMED: u8 = 1;
    /// An instance request arrived before a valid setup.
    pub const NO_SETUP: u8 = 2;
    /// The requested instance index is outside the prover's batch.
    pub const BAD_INDEX: u8 = 3;
    /// The server refused admission: at capacity (backpressure).
    pub const BUSY: u8 = 4;
    /// The session's wall-clock deadline budget ran out mid-serve.
    pub const EXPIRED: u8 = 5;
}

/// Builds the proofs for a batch of witnesses under an explicit
/// [`ExecPolicy`] — the one batch entry point of the prover pipeline:
/// `policy.workers` threads (the paper's "embarrassingly parallel
/// instances", §5.2), each with its own [`ProverWorkspace`] capped by
/// `budget` and stamped with `policy`, each instance proved through
/// [`ZaatarPcp::prove_with`] at the policy's chunk length. Output order
/// matches `witnesses`, and proofs are byte-identical across every
/// policy: the policy moves work across threads and chunks, never into
/// the transcript.
///
/// Per-instance results mirror [`ZaatarPcp::prove`]: a non-satisfying
/// witness yields `None` for that instance only, so one bad instance
/// cannot sink the batch — the same graceful-degradation contract the
/// session layer gives verdicts. A budget refusal, by contrast, aborts
/// the batch with `Err`: it is an environment problem every remaining
/// instance would hit too.
///
/// Derive the policy with [`zaatar_sched::Scheduler::policy`] or pin it
/// with the [`ExecPolicy`] constructors.
pub fn prove_batch_with_policy<F, D>(
    pcp: &ZaatarPcp<F, D>,
    witnesses: &[QapWitness<F>],
    policy: &ExecPolicy,
    budget: MemBudget,
) -> Result<Vec<Option<ZaatarProof<F>>>, zaatar_mem::BudgetError>
where
    F: PrimeField,
    D: EvalDomain<F>,
{
    let _span = zaatar_obs::time("runtime.prove_batch");
    zaatar_obs::counter("runtime.prove_batch.instances").add(witnesses.len() as u64);
    let policy = *policy;
    parallel_map_with(
        witnesses.iter().collect(),
        policy.workers,
        || ProverWorkspace::with_budget(budget).with_policy(policy),
        |ws, w| pcp.prove_with(w, ws),
    )
    .into_iter()
    .collect()
}

/// The verifier's verdict on one instance of the batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VerifyOutcome {
    /// The proof message verified: commitments consistent, PCP checks
    /// passed for the claimed io.
    Accepted,
    /// A well-formed proof message failed verification.
    Rejected,
    /// The message decoded as garbage, or the prover reported an error
    /// for this instance.
    Malformed(WireError),
    /// No usable response within the retry policy's deadline.
    TimedOut,
}

impl VerifyOutcome {
    /// True only for [`VerifyOutcome::Accepted`].
    pub fn is_accepted(&self) -> bool {
        matches!(self, VerifyOutcome::Accepted)
    }
}

/// What a full verifier session produced: one verdict per instance plus
/// channel health counters.
#[derive(Clone, Debug)]
pub struct SessionReport {
    /// Per-instance verdicts, in batch order.
    pub outcomes: Vec<VerifyOutcome>,
    /// Retransmissions across all exchanges (0 on a clean channel).
    pub retransmits: u64,
    /// Wall-clock duration of the whole session.
    pub elapsed: Duration,
}

impl SessionReport {
    /// True if every instance was accepted.
    pub fn all_accepted(&self) -> bool {
        self.outcomes.iter().all(VerifyOutcome::is_accepted)
    }
}

/// Instance indexes travel as LE32 and frame seqs reserve 0 for the
/// setup, so a batch the u32 space cannot address is refused up front
/// instead of silently aliasing instances.
fn check_batch_addressable(batch: usize) -> Result<(), SessionError> {
    if batch >= u32::MAX as usize {
        return Err(SessionError::Wire(WireError::TooLong { len: batch }));
    }
    Ok(())
}

/// Runs the verifier's side of a batched argument session over
/// `transport`, claiming the io vectors in `ios`.
///
/// Setup failure (the one message the whole batch depends on) is the
/// only fatal path. After setup, per-instance failures degrade to their
/// [`VerifyOutcome`] and the loop continues — except a closed channel,
/// which times out the current and all remaining instances.
pub fn run_session_verifier<F, D, T>(
    transport: &mut T,
    pcp: &ZaatarPcp<F, D>,
    ios: &[Vec<F>],
    policy: &RetryPolicy,
    prg: &mut ChaChaPrg,
) -> Result<SessionReport, SessionError>
where
    F: HasGroup + PrimeField,
    D: EvalDomain<F>,
    T: Transport,
{
    check_batch_addressable(ios.len())?;
    let _span = zaatar_obs::time("runtime.session");
    let started = Instant::now();
    let mut verifier = SessionVerifier::new(pcp, prg);
    let setup = Frame::new(msg::SETUP, 0, verifier.setup_message()?);
    drive_verifier(transport, setup, ios, policy, prg.fork(1), started, |_, message, io| {
        verifier.verify_instance(message, io)
    })
}

/// Runs the verifier's side of a *heterogeneous* batched session:
/// `pcps` are the circuits, `circuit_ids[i]` names the circuit of
/// instance `i`, and `ios[i]` is that instance's claimed io in its
/// circuit's QAP order. The message sequence is the legacy one with
/// [`msg::HSETUP`] in place of [`msg::SETUP`]; failure handling and
/// per-instance degradation are those of [`run_session_verifier`] (the
/// two share one driver).
pub fn run_hetero_session_verifier<F, D, T>(
    transport: &mut T,
    pcps: &[&ZaatarPcp<F, D>],
    circuit_ids: &[u32],
    ios: &[Vec<F>],
    policy: &RetryPolicy,
    prg: &mut ChaChaPrg,
) -> Result<SessionReport, SessionError>
where
    F: HasGroup + PrimeField,
    D: EvalDomain<F>,
    T: Transport,
{
    check_batch_addressable(ios.len())?;
    if ios.len() != circuit_ids.len() {
        return Err(SessionError::Protocol("one circuit id per claimed io"));
    }
    let _span = zaatar_obs::time("runtime.session.hetero");
    let started = Instant::now();
    let mut verifier = HeteroSessionVerifier::new(pcps, circuit_ids, prg);
    let setup = Frame::new(msg::HSETUP, 0, verifier.setup_message()?);
    drive_verifier(transport, setup, ios, policy, prg.fork(1), started, |i, message, io| {
        verifier.verify_instance(i, message, io)
    })
}

/// The verifier driver both session kinds share: sends `setup`, then
/// requests and verifies every instance through `verify(i, message, io)`,
/// degrading per instance, and closes with a best-effort DONE.
fn drive_verifier<F, T>(
    transport: &mut T,
    setup: Frame,
    ios: &[Vec<F>],
    policy: &RetryPolicy,
    mut retry_prg: ChaChaPrg,
    started: Instant,
    mut verify: impl FnMut(usize, &[u8], &[F]) -> Result<bool, WireError>,
) -> Result<SessionReport, SessionError>
where
    T: Transport,
{
    let mut retransmits = 0u64;
    let ack = exchange(transport, &setup, &[msg::SETUP_ACK, msg::ERROR], policy, &mut retry_prg)?;
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
        let req = Frame::new(
            msg::INSTANCE_REQ,
            (i + 1) as u32,
            (i as u32).to_le_bytes().to_vec(),
        );
        let outcome = match exchange(
            transport,
            &req,
            &[msg::INSTANCE_RESP, msg::ERROR],
            policy,
            &mut retry_prg,
        ) {
            Ok(out) => {
                retransmits += out.retransmits as u64;
                if out.response.msg_type == msg::ERROR {
                    VerifyOutcome::Malformed(WireError::Invalid)
                } else {
                    match verify(i, &out.response.payload, io) {
                        Ok(true) => VerifyOutcome::Accepted,
                        Ok(false) => VerifyOutcome::Rejected,
                        Err(e) => VerifyOutcome::Malformed(e),
                    }
                }
            }
            Err(TransportError::TimedOut) => VerifyOutcome::TimedOut,
            Err(_) => {
                // Peer gone for good: no later instance can fare better.
                channel_gone = true;
                VerifyOutcome::TimedOut
            }
        };
        match outcome {
            VerifyOutcome::Accepted => zaatar_obs::counter("runtime.verifier.accepted").inc(),
            VerifyOutcome::Rejected => zaatar_obs::counter("runtime.verifier.rejected").inc(),
            VerifyOutcome::Malformed(_) => {
                zaatar_obs::counter("runtime.verifier.malformed").inc()
            }
            VerifyOutcome::TimedOut => zaatar_obs::counter("runtime.verifier.timed_out").inc(),
        }
        outcomes.push(outcome);
    }

    // Best effort: let the prover loop exit promptly instead of idling
    // out. Loss here is harmless.
    let _ = transport.send(&Frame::new(msg::DONE, u32::MAX, Vec::new()));

    zaatar_obs::counter("runtime.verifier.retransmits").add(retransmits);
    Ok(SessionReport {
        outcomes,
        retransmits,
        elapsed: started.elapsed(),
    })
}

/// What [`ServingSession::handle`] concluded about one frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Step {
    /// Send this frame back: `SETUP_ACK`, `INSTANCE_RESP`, or a typed
    /// `ERROR` (malformed setup, bad index, no setup yet).
    Reply(Frame),
    /// The verifier sent DONE: the session is over.
    Done,
    /// A frame type this protocol version does not know: ignored
    /// rather than aborting the session.
    Ignored,
}

/// The prover side of one session as a frame-at-a-time state machine:
/// owns the [`HeteroSessionProver`] endpoint, the per-instance response
/// cache, and the session phase (whether a setup has ever landed).
/// A single-circuit session is the C = 1 case: it accepts the legacy
/// [`msg::SETUP`] encoding as well as [`msg::HSETUP`].
///
/// Transport, deadlines and idle handling belong to the caller — the
/// blocking [`run_hetero_session_prover`] loop or the poll-loop server
/// — which feeds every received frame to [`ServingSession::handle`] and
/// sends back what it returns. The machine never panics on channel
/// input, and the cached responses make every reply idempotent under
/// retransmission.
pub struct ServingSession<'p, F: HasGroup, D> {
    prover: HeteroSessionProver<'p, F, D>,
    proofs: &'p [ZaatarProof<F>],
    cache: Vec<Option<Vec<u8>>>,
    setup_seen: bool,
}

impl<'p, F: HasGroup + PrimeField, D: EvalDomain<F>> ServingSession<'p, F, D> {
    /// A session serving `proofs`, where `proofs[i]` belongs to circuit
    /// `circuit_ids[i]` of `pcps`.
    ///
    /// # Panics
    ///
    /// Panics if `circuit_ids` and `proofs` disagree in length or any id
    /// is out of range — local configuration, not wire input.
    pub fn new(
        pcps: &[&'p ZaatarPcp<F, D>],
        circuit_ids: &[u32],
        proofs: &'p [ZaatarProof<F>],
    ) -> Self {
        assert_eq!(circuit_ids.len(), proofs.len(), "one circuit id per proof");
        ServingSession {
            prover: HeteroSessionProver::new(pcps, circuit_ids),
            proofs,
            cache: vec![None; proofs.len()],
            setup_seen: false,
        }
    }

    /// True once any setup has been accepted — the session then counts
    /// as served when the verifier goes quiet or hangs up.
    pub fn setup_seen(&self) -> bool {
        self.setup_seen
    }

    /// Handles one received frame, computing instance responses over
    /// `ws` (the pipeline's Commit and Answer stages, at the workspace's
    /// stamped chunk length). `Err` is a failure no reply can express,
    /// such as the workspace budget refusing a lease; the session
    /// should end.
    pub fn handle(
        &mut self,
        frame: &Frame,
        ws: &mut ProverWorkspace<F>,
    ) -> Result<Step, SessionError> {
        let error = |code: u8| Ok(Step::Reply(Frame::new(msg::ERROR, frame.seq, vec![code])));
        match frame.msg_type {
            msg::SETUP | msg::HSETUP => {
                // Legacy SETUP keeps its single-circuit byte path;
                // HSETUP carries the multi-circuit layout.
                let received = if frame.msg_type == msg::HSETUP {
                    self.prover.receive_setup(&frame.payload)
                } else {
                    self.prover.receive_legacy_setup(&frame.payload)
                };
                if received.is_err() {
                    return error(errcode::MALFORMED);
                }
                // A (possibly retransmitted) setup invalidates any
                // responses cached under the previous one.
                self.cache.iter_mut().for_each(|slot| *slot = None);
                self.setup_seen = true;
                Ok(Step::Reply(Frame::new(msg::SETUP_ACK, frame.seq, Vec::new())))
            }
            msg::INSTANCE_REQ => {
                let idx = match parse_instance_index(&frame.payload, self.proofs.len()) {
                    Ok(idx) => idx,
                    Err(code) => return error(code),
                };
                let bytes = match &self.cache[idx] {
                    Some(bytes) => bytes.clone(),
                    None => match self.prover.instance_message(idx, &self.proofs[idx], ws) {
                        Ok(bytes) => {
                            self.cache[idx] = Some(bytes.clone());
                            bytes
                        }
                        Err(SessionError::SetupNotReceived) => return error(errcode::NO_SETUP),
                        Err(e) => return Err(e),
                    },
                };
                Ok(Step::Reply(Frame::new(msg::INSTANCE_RESP, frame.seq, bytes)))
            }
            msg::DONE => Ok(Step::Done),
            _ => Ok(Step::Ignored),
        }
    }
}

/// Counters from one prover serving session.
#[derive(Clone, Copy, Debug, Default)]
pub struct ProverStats {
    /// Instance responses served, retransmissions included.
    pub responses_served: u64,
    /// ERROR frames sent back (malformed setup, bad index, …).
    pub errors_reported: u64,
}

/// Serves proofs over `transport` until the verifier sends DONE, the
/// channel closes, or `idle_timeout` passes without any valid frame —
/// [`run_hetero_session_prover`] with one circuit, the same way
/// `SessionServer::new` is its hetero constructor with one circuit.
pub fn run_session_prover<F, D, T>(
    transport: &mut T,
    pcp: &ZaatarPcp<F, D>,
    proofs: &[ZaatarProof<F>],
    idle_timeout: Duration,
) -> Result<ProverStats, SessionError>
where
    F: HasGroup + PrimeField,
    D: EvalDomain<F>,
    T: Transport,
{
    run_hetero_session_prover(transport, &[pcp], &vec![0; proofs.len()], proofs, idle_timeout)
}

/// Serves a (possibly heterogeneous) proof batch over `transport` until
/// the verifier sends DONE, the channel closes, or `idle_timeout`
/// passes without any valid frame: the blocking loop over one
/// [`ServingSession`]. `proofs[i]` belongs to circuit `circuit_ids[i]`.
/// Accepts [`msg::HSETUP`]; a legacy [`msg::SETUP`] is accepted only
/// when the batch carries exactly one circuit.
///
/// Malformed setups and out-of-range instance requests are answered
/// with typed ERROR frames; one workspace (default policy: one covering
/// chunk) serves every instance response of the session.
pub fn run_hetero_session_prover<F, D, T>(
    transport: &mut T,
    pcps: &[&ZaatarPcp<F, D>],
    circuit_ids: &[u32],
    proofs: &[ZaatarProof<F>],
    idle_timeout: Duration,
) -> Result<ProverStats, SessionError>
where
    F: HasGroup + PrimeField,
    D: EvalDomain<F>,
    T: Transport,
{
    if proofs.len() != circuit_ids.len() {
        return Err(SessionError::Protocol("one circuit id per proof"));
    }
    let mut session = ServingSession::new(pcps, circuit_ids, proofs);
    let mut stats = ProverStats::default();
    let mut ws = ProverWorkspace::new();
    loop {
        let frame = match transport.recv(Instant::now() + idle_timeout) {
            Ok(frame) => frame,
            // An idle or closed channel ends the serving loop normally:
            // the verifier is done or gone, and either way there is
            // nobody left to serve.
            Err(TransportError::TimedOut) | Err(TransportError::Closed) => return Ok(stats),
            Err(e) => return Err(e.into()),
        };
        let reply = match session.handle(&frame, &mut ws)? {
            Step::Reply(reply) => reply,
            Step::Done => return Ok(stats),
            Step::Ignored => continue,
        };
        match reply.msg_type {
            msg::INSTANCE_RESP => {
                stats.responses_served += 1;
                zaatar_obs::counter("runtime.prover.responses_served").inc();
            }
            msg::ERROR => {
                stats.errors_reported += 1;
                zaatar_obs::counter("runtime.prover.errors_reported").inc();
            }
            _ => {}
        }
        transport.send(&reply)?;
    }
}

/// Decodes an [`msg::INSTANCE_REQ`] payload (LE32 index) against a
/// batch of `batch` instances, returning the [`errcode`] a prover
/// should report on failure.
fn parse_instance_index(payload: &[u8], batch: usize) -> Result<usize, u8> {
    let bytes: [u8; 4] = payload.try_into().map_err(|_| errcode::MALFORMED)?;
    let idx = u32::from_le_bytes(bytes) as usize;
    if idx >= batch {
        return Err(errcode::BAD_INDEX);
    }
    Ok(idx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pcp::PcpParams;
    use crate::qap::Qap;
    use zaatar_cc::{ginger_to_quad, Builder};
    use zaatar_field::{Field, F61};
    use zaatar_transport::loopback_transport_pair;

    #[allow(clippy::type_complexity)]
    fn fixture(
        inputs: &[[i64; 2]],
    ) -> (
        ZaatarPcp<F61, zaatar_poly::Radix2Domain<F61>>,
        Vec<ZaatarProof<F61>>,
        Vec<Vec<F61>>,
    ) {
        let mut b = Builder::<F61>::new();
        let x = b.alloc_input();
        let y = b.alloc_input();
        let p = b.mul(&x, &y);
        b.bind_output(&p);
        let (sys, solver) = b.finish();
        let t = ginger_to_quad(&sys);
        let qap = Qap::new(&t.system);
        let pcp = ZaatarPcp::new(qap, PcpParams::light());
        let mut witnesses = Vec::new();
        let mut ios = Vec::new();
        for pair in inputs {
            let asg = solver
                .solve(&[F61::from_i64(pair[0]), F61::from_i64(pair[1])])
                .unwrap();
            let ext = t.extend_assignment(&asg);
            witnesses.push(pcp.qap().witness(&ext));
            ios.push(
                pcp.qap()
                    .var_map()
                    .inputs()
                    .iter()
                    .chain(pcp.qap().var_map().outputs())
                    .map(|v| ext.get(*v))
                    .collect(),
            );
        }
        let proofs = prove_batch_with_policy(
            &pcp,
            &witnesses,
            &ExecPolicy::with_workers(4),
            MemBudget::unlimited(),
        )
        .unwrap()
        .into_iter()
            .map(|p| p.expect("satisfying witness"))
            .collect();
        (pcp, proofs, ios)
    }

    #[test]
    fn prove_batch_matches_serial_and_isolates_bad_witnesses() {
        let (pcp, _, _) = fixture(&[[2, 3]]);
        // Rebuild a couple of witnesses directly, one of them corrupted.
        let mut b = Builder::<F61>::new();
        let x = b.alloc_input();
        let y = b.alloc_input();
        let p = b.mul(&x, &y);
        b.bind_output(&p);
        let (sys, solver) = b.finish();
        let t = ginger_to_quad(&sys);
        let mut witnesses = Vec::new();
        for pair in [[2i64, 3], [4, 5], [6, 7]] {
            let asg = solver
                .solve(&[F61::from_i64(pair[0]), F61::from_i64(pair[1])])
                .unwrap();
            witnesses.push(pcp.qap().witness(&t.extend_assignment(&asg)));
        }
        // Corrupt the middle witness: it alone must yield None.
        witnesses[1].z[0] += F61::ONE;
        let parallel = prove_batch_with_policy(
            &pcp,
            &witnesses,
            &ExecPolicy::with_workers(4),
            MemBudget::unlimited(),
        )
        .unwrap();
        let serial: Vec<_> = witnesses.iter().map(|w| pcp.prove(w)).collect();
        assert_eq!(parallel.len(), 3);
        assert!(parallel[0].is_some());
        assert!(parallel[1].is_none(), "bad witness must not prove");
        assert!(parallel[2].is_some());
        for (p, s) in parallel.iter().zip(&serial) {
            assert_eq!(
                p.as_ref().map(|pr| (&pr.z, &pr.h)),
                s.as_ref().map(|pr| (&pr.z, &pr.h)),
                "parallel and serial proofs must agree"
            );
        }
    }

    #[test]
    fn hetero_loopback_session_mixes_circuits() {
        // Circuit 0: y = a·b (the fixture). Circuit 1: y = (a+b)·a.
        let (pcp_a, proofs_a, ios_a) = fixture(&[[2, 3], [4, 5]]);
        let mut b = Builder::<F61>::new();
        let x = b.alloc_input();
        let y = b.alloc_input();
        let s = x.add(&y);
        let p = b.mul(&s, &x);
        b.bind_output(&p);
        let (sys, solver) = b.finish();
        let t = ginger_to_quad(&sys);
        let pcp_b = ZaatarPcp::new(Qap::new(&t.system), PcpParams::light());
        let mut proofs_b = Vec::new();
        let mut ios_b = Vec::new();
        for pair in [[3i64, 1], [7, 2]] {
            let asg = solver
                .solve(&[F61::from_i64(pair[0]), F61::from_i64(pair[1])])
                .unwrap();
            let ext = t.extend_assignment(&asg);
            proofs_b.push(pcp_b.prove(&pcp_b.qap().witness(&ext)).unwrap());
            ios_b.push(
                pcp_b
                    .qap()
                    .var_map()
                    .inputs()
                    .iter()
                    .chain(pcp_b.qap().var_map().outputs())
                    .map(|v| ext.get(*v))
                    .collect::<Vec<_>>(),
            );
        }
        let circuit_ids = vec![0u32, 1, 0, 1];
        let proofs = vec![
            proofs_a[0].clone(),
            proofs_b[0].clone(),
            proofs_a[1].clone(),
            proofs_b[1].clone(),
        ];
        let mut ios = vec![
            ios_a[0].clone(),
            ios_b[0].clone(),
            ios_a[1].clone(),
            ios_b[1].clone(),
        ];
        // Lie about one instance's output: that instance alone rejects.
        let last = ios[3].len() - 1;
        ios[3][last] += F61::ONE;
        let (mut vt, mut pt) = loopback_transport_pair();
        let (pcp_a2, pcp_b2) = (pcp_a.clone(), pcp_b.clone());
        let ids2 = circuit_ids.clone();
        let server = std::thread::spawn(move || {
            let pcps = [&pcp_a2, &pcp_b2];
            run_hetero_session_prover(&mut pt, &pcps, &ids2, &proofs, Duration::from_secs(5))
                .unwrap()
        });
        let mut prg = ChaChaPrg::from_u64_seed(0xA11D7);
        let pcps = [&pcp_a, &pcp_b];
        let report = run_hetero_session_verifier(
            &mut vt,
            &pcps,
            &circuit_ids,
            &ios,
            &RetryPolicy::fast(),
            &mut prg,
        )
        .unwrap();
        assert_eq!(report.outcomes[0], VerifyOutcome::Accepted);
        assert_eq!(report.outcomes[1], VerifyOutcome::Accepted);
        assert_eq!(report.outcomes[2], VerifyOutcome::Accepted);
        assert_eq!(report.outcomes[3], VerifyOutcome::Rejected);
        let stats = server.join().unwrap();
        assert_eq!(stats.responses_served, 4);
        assert_eq!(stats.errors_reported, 0);
    }

    #[test]
    fn clean_loopback_session_accepts_all() {
        let (pcp, proofs, ios) = fixture(&[[2, 3], [4, 5], [6, 7]]);
        let (mut vt, mut pt) = loopback_transport_pair();
        let pcp2 = pcp.clone();
        let server = std::thread::spawn(move || {
            run_session_prover(&mut pt, &pcp2, &proofs, Duration::from_secs(5)).unwrap()
        });
        let mut prg = ChaChaPrg::from_u64_seed(0xA11CE);
        let report =
            run_session_verifier(&mut vt, &pcp, &ios, &RetryPolicy::fast(), &mut prg).unwrap();
        assert!(report.all_accepted(), "{:?}", report.outcomes);
        assert_eq!(report.retransmits, 0);
        let stats = server.join().unwrap();
        assert_eq!(stats.responses_served, 3);
        assert_eq!(stats.errors_reported, 0);
    }

    #[test]
    fn lying_instance_degrades_not_aborts() {
        let (pcp, proofs, mut ios) = fixture(&[[2, 3], [4, 5], [6, 7]]);
        // Claim a wrong output for the middle instance only.
        let last = ios[1].len() - 1;
        ios[1][last] += F61::ONE;
        let (mut vt, mut pt) = loopback_transport_pair();
        let pcp2 = pcp.clone();
        let server = std::thread::spawn(move || {
            run_session_prover(&mut pt, &pcp2, &proofs, Duration::from_secs(5)).unwrap()
        });
        let mut prg = ChaChaPrg::from_u64_seed(0xA11CF);
        let report =
            run_session_verifier(&mut vt, &pcp, &ios, &RetryPolicy::fast(), &mut prg).unwrap();
        assert_eq!(report.outcomes[0], VerifyOutcome::Accepted);
        assert_eq!(report.outcomes[1], VerifyOutcome::Rejected);
        assert_eq!(report.outcomes[2], VerifyOutcome::Accepted);
        server.join().unwrap();
    }

    #[test]
    fn serving_session_answers_frames_without_a_transport() {
        // The state machine alone: no setup yet → NO_SETUP, bad index
        // → BAD_INDEX, unknown frame types ignored, DONE ends it.
        let (pcp, proofs, ios) = fixture(&[[2, 9]]);
        let mut session = ServingSession::new(&[&pcp], &[0], &proofs);
        let mut ws = ProverWorkspace::new();
        let req = |seq: u32, idx: u32| Frame::new(msg::INSTANCE_REQ, seq, idx.to_le_bytes().to_vec());
        let error = |seq: u32, code: u8| Step::Reply(Frame::new(msg::ERROR, seq, vec![code]));
        assert_eq!(session.handle(&req(1, 0), &mut ws).unwrap(), error(1, errcode::NO_SETUP));
        assert!(!session.setup_seen());
        let mut prg = ChaChaPrg::from_u64_seed(0xA11D3);
        let mut verifier = SessionVerifier::new(&pcp, &mut prg);
        let setup = Frame::new(msg::SETUP, 0, verifier.setup_message().unwrap());
        assert_eq!(
            session.handle(&setup, &mut ws).unwrap(),
            Step::Reply(Frame::new(msg::SETUP_ACK, 0, Vec::new()))
        );
        assert!(session.setup_seen());
        assert_eq!(session.handle(&req(2, 5), &mut ws).unwrap(), error(2, errcode::BAD_INDEX));
        let Step::Reply(resp) = session.handle(&req(3, 0), &mut ws).unwrap() else {
            panic!("instance request must be answered");
        };
        assert_eq!(resp.msg_type, msg::INSTANCE_RESP);
        assert!(verifier.verify_instance(&resp.payload, &ios[0]).unwrap());
        // A retransmitted request is served from the cache, byte for byte.
        assert_eq!(session.handle(&req(3, 0), &mut ws).unwrap(), Step::Reply(resp));
        assert_eq!(
            session.handle(&Frame::new(99, 4, Vec::new()), &mut ws).unwrap(),
            Step::Ignored
        );
        assert_eq!(
            session.handle(&Frame::new(msg::DONE, u32::MAX, Vec::new()), &mut ws).unwrap(),
            Step::Done
        );
    }

    #[test]
    fn verifier_without_prover_times_out_with_verdicts() {
        let (pcp, _, ios) = fixture(&[[1, 2], [3, 4]]);
        let (mut vt, _pt) = loopback_transport_pair();
        let policy = RetryPolicy {
            deadline: Duration::from_millis(150),
            initial_timeout: Duration::from_millis(20),
            backoff_factor: 2,
            max_timeout: Duration::from_millis(40),
            max_retransmits: 2,
        };
        let mut prg = ChaChaPrg::from_u64_seed(0xA11D0);
        let err = run_session_verifier(&mut vt, &pcp, &ios, &policy, &mut prg).unwrap_err();
        // Setup is the one fatal exchange: no prover, typed error out.
        assert_eq!(err, SessionError::Transport(TransportError::TimedOut));
    }

    #[test]
    fn out_of_range_instance_request_gets_typed_error() {
        let (pcp, proofs, ios) = fixture(&[[5, 5]]);
        let (mut vt, mut pt) = loopback_transport_pair();
        let pcp2 = pcp.clone();
        let server = std::thread::spawn(move || {
            run_session_prover(&mut pt, &pcp2, &proofs, Duration::from_secs(5)).unwrap()
        });
        // Drive the protocol by hand: valid setup, then a request for
        // instance 7 of a 1-instance batch.
        let mut prg = ChaChaPrg::from_u64_seed(0xA11D1);
        let mut verifier = SessionVerifier::new(&pcp, &mut prg);
        let mut retry_prg = prg.fork(1);
        let policy = RetryPolicy::fast();
        let setup = Frame::new(msg::SETUP, 0, verifier.setup_message().unwrap());
        let ack = exchange(&mut vt, &setup, &[msg::SETUP_ACK], &policy, &mut retry_prg).unwrap();
        assert_eq!(ack.response.msg_type, msg::SETUP_ACK);
        let req = Frame::new(msg::INSTANCE_REQ, 1, 7u32.to_le_bytes().to_vec());
        let resp = exchange(&mut vt, &req, &[msg::INSTANCE_RESP, msg::ERROR], &policy, &mut retry_prg)
            .unwrap();
        assert_eq!(resp.response.msg_type, msg::ERROR);
        assert_eq!(resp.response.payload, vec![errcode::BAD_INDEX]);
        // A garbage-length index payload is MALFORMED, not a crash.
        let req = Frame::new(msg::INSTANCE_REQ, 2, vec![1, 2, 3]);
        let resp = exchange(&mut vt, &req, &[msg::INSTANCE_RESP, msg::ERROR], &policy, &mut retry_prg)
            .unwrap();
        assert_eq!(resp.response.payload, vec![errcode::MALFORMED]);
        // And the real instance still verifies afterwards.
        let req = Frame::new(msg::INSTANCE_REQ, 3, 0u32.to_le_bytes().to_vec());
        let resp = exchange(&mut vt, &req, &[msg::INSTANCE_RESP, msg::ERROR], &policy, &mut retry_prg)
            .unwrap();
        assert_eq!(resp.response.msg_type, msg::INSTANCE_RESP);
        assert!(verifier.verify_instance(&resp.response.payload, &ios[0]).unwrap());
        vt.send(&Frame::new(msg::DONE, u32::MAX, Vec::new())).unwrap();
        let stats = server.join().unwrap();
        assert_eq!(stats.errors_reported, 2);
    }
}
