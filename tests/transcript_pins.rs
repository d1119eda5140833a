//! Transcript pins: fixed-seed wire transcripts and proofs, digested
//! with the transport's CRC32 and pinned to the values the code
//! produced before the prover pipeline was collapsed to one chunked
//! pipeline and the serving loops to one state machine. The
//! differentials elsewhere compare one path of this code base with
//! another; these digests compare it with its own history, so a change
//! that moves every path at once still shows.
//!
//! Pinned, for a 12-step multiplication chain (domain 64) and the
//! product-plus-equality circuit:
//! - the proofs from `prove_batch_with_policy` at 1 and 2 workers;
//! - a SETUP session's setup message and every instance response, and
//!   the same for an HSETUP session mixing both circuits, each proved
//!   and served at chunk = n, n/2 (rounded up) and a ragged 7;
//! - the full framed transcript (both directions, retransmissions
//!   folded) of a SETUP and an HSETUP session through the blocking
//!   prover loop, and through the poll-loop `SessionServer`.
//!
//! and, in the paper's configuration (F128 with its 1024-bit group, so
//! the 16-limb Montgomery kernel and the commitment MSM at that width
//! are under the pin), a β = 2 SETUP session over a 4-step chain,
//! proved and served at one covering chunk and at a ragged 5.

use std::time::{Duration, Instant};

use zaatar::cc::{ginger_to_quad, Builder};
use zaatar::core::pcp::{PcpParams, ZaatarPcp, ZaatarProof};
use zaatar::core::qap::{Qap, QapWitness};
use zaatar::core::runtime::{
    prove_batch_with_policy, run_hetero_session_prover, run_hetero_session_verifier,
    run_session_prover, run_session_verifier,
};
use zaatar::core::session::{
    HeteroSessionProver, HeteroSessionVerifier, SessionProver, SessionVerifier,
};
use zaatar::core::testutil::{circuit_fixture, mul_eq_fixture, CircuitFixture};
use zaatar::core::wire::encode_proof;
use zaatar::core::workspace::ProverWorkspace;
use zaatar::crypto::ChaChaPrg;
use zaatar::field::{Field, F128, F61};
use zaatar::mem::MemBudget;
use zaatar::poly::Radix2Domain;
use zaatar::sched::ExecPolicy;
use zaatar::server::{ServerConfig, SessionServer};
use zaatar::transport::{
    crc32, loopback_transport_pair, Frame, RetryPolicy, Transport, TransportError, TransportStats,
};

/// Digest of the proofs at 1 and 2 workers.
const PROOFS: u32 = 0x7262_1a52;
/// Digest of the SETUP session's messages, at every chunk length.
const SETUP_MESSAGES: u32 = 0xefbd_df30;
/// Digest of the HSETUP session's messages, at every chunk length.
const HSETUP_MESSAGES: u32 = 0xf8f1_e821;
/// Digest of the framed SETUP session, blocking loop or server.
const SETUP_FRAMES: u32 = 0x45c9_577d;
/// Digest of the framed HSETUP session, blocking loop or server.
const HSETUP_FRAMES: u32 = 0x6741_e9b7;
/// Digest of the F128 SETUP session's messages, at every chunk length.
const F128_SETUP_MESSAGES: u32 = 0x6d0f_b587;

const SEED: u64 = 0x7e57_a11c;

/// Instance → circuit layout of the HSETUP sessions.
const IDS: [u32; 5] = [0, 1, 0, 1, 0];

/// `y = ((x·y)·x + y)·y …`, `chain` steps deep.
fn chain_fixture(chain: usize, batch: usize) -> CircuitFixture {
    let mut b = Builder::<F61>::new();
    let x = b.alloc_input();
    let y = b.alloc_input();
    let mut acc = b.mul(&x, &y);
    for _ in 0..chain {
        acc = b.mul(&acc, &x);
        let s = acc.add(&y);
        acc = b.mul(&s, &y);
    }
    b.bind_output(&acc);
    let (sys, solver) = b.finish();
    let inputs: Vec<Vec<F61>> = (0..batch as i64)
        .map(|i| vec![F61::from_i64(2 + i), F61::from_i64(3 + 2 * i)])
        .collect();
    circuit_fixture(&sys, &solver, &inputs)
}

/// The F128 chain circuit's PCP, its witnesses and its claimed io, for
/// `batch` instances.
struct WideFixture {
    pcp: ZaatarPcp<F128, Radix2Domain<F128>>,
    witnesses: Vec<QapWitness<F128>>,
    ios: Vec<Vec<F128>>,
}

/// [`chain_fixture`]'s circuit over F128, `chain` steps deep.
fn wide_chain_fixture(chain: usize, batch: usize) -> WideFixture {
    let mut b = Builder::<F128>::new();
    let x = b.alloc_input();
    let y = b.alloc_input();
    let mut acc = b.mul(&x, &y);
    for _ in 0..chain {
        acc = b.mul(&acc, &x);
        let s = acc.add(&y);
        acc = b.mul(&s, &y);
    }
    b.bind_output(&acc);
    let (sys, solver) = b.finish();
    let t = ginger_to_quad(&sys);
    let pcp = ZaatarPcp::new(Qap::new(&t.system), PcpParams::light());
    let mut witnesses = Vec::new();
    let mut ios = Vec::new();
    for i in 0..batch as i64 {
        let inputs = [F128::from_i64(5 + i), F128::from_i64(7 + 3 * i)];
        let ext = t.extend_assignment(&solver.solve(&inputs).expect("chain inputs solve"));
        let vars = pcp.qap().var_map();
        ios.push(vars.inputs().iter().chain(vars.outputs()).map(|v| ext.get(*v)).collect());
        witnesses.push(pcp.qap().witness(&ext));
    }
    WideFixture { pcp, witnesses, ios }
}

/// Records every distinct frame a transport sends or receives, keyed by
/// direction, type and seq, so retransmissions fold into one entry.
struct Recorder<T> {
    inner: T,
    seen: Vec<(bool, u8, u32)>,
    bytes: Vec<u8>,
}

impl<T> Recorder<T> {
    fn new(inner: T) -> Self {
        Recorder { inner, seen: Vec::new(), bytes: Vec::new() }
    }

    fn record(&mut self, outbound: bool, frame: &Frame) {
        let key = (outbound, frame.msg_type, frame.seq);
        if !self.seen.contains(&key) {
            self.seen.push(key);
            self.bytes.extend(frame.encode());
        }
    }

    fn digest(&self) -> u32 {
        crc32(&self.bytes)
    }
}

impl<T: Transport> Transport for Recorder<T> {
    fn send(&mut self, frame: &Frame) -> Result<(), TransportError> {
        self.record(true, frame);
        self.inner.send(frame)
    }

    fn recv(&mut self, deadline: Instant) -> Result<Frame, TransportError> {
        let frame = self.inner.recv(deadline)?;
        self.record(false, &frame);
        Ok(frame)
    }

    fn stats(&self) -> TransportStats {
        self.inner.stats()
    }
}

fn proofs_at(fx: &CircuitFixture, policy: &ExecPolicy) -> Vec<ZaatarProof<F61>> {
    prove_batch_with_policy(&fx.pcp, &fx.witnesses, policy, MemBudget::unlimited())
        .expect("unlimited budget")
        .into_iter()
        .map(|p| p.expect("satisfying witness"))
        .collect()
}

fn push_message(bytes: &mut Vec<u8>, msg: &[u8]) {
    bytes.extend((msg.len() as u32).to_le_bytes());
    bytes.extend_from_slice(msg);
}

/// The SETUP session's setup message and instance responses, proved
/// and served at `chunk_len`.
fn setup_digest(fx: &CircuitFixture, chunk_len: usize) -> u32 {
    let policy = ExecPolicy::streamed(chunk_len);
    let proofs = proofs_at(fx, &policy);
    let mut prg = ChaChaPrg::from_u64_seed(SEED);
    let mut verifier = SessionVerifier::new(&fx.pcp, &mut prg);
    let mut prover = SessionProver::new(&fx.pcp);
    let setup = verifier.setup_message().unwrap();
    prover.receive_setup(&setup).unwrap();
    let mut ws = ProverWorkspace::new().with_policy(policy);
    let mut bytes = Vec::new();
    push_message(&mut bytes, &setup);
    for (proof, io) in proofs.iter().zip(&fx.ios) {
        let msg = prover.instance_message(proof, &mut ws).unwrap();
        assert!(verifier.verify_instance(&msg, io).unwrap());
        push_message(&mut bytes, &msg);
    }
    crc32(&bytes)
}

/// The HSETUP session's setup message and instance responses, proved
/// and served at `chunk_len`.
fn hetero_digest(a: &CircuitFixture, b: &CircuitFixture, chunk_len: usize) -> u32 {
    let policy = ExecPolicy::streamed(chunk_len);
    let (pa, pb) = (proofs_at(a, &policy), proofs_at(b, &policy));
    let (proofs, ios) = interleave([(&pa, &a.ios), (&pb, &b.ios)]);
    let pcps = [&a.pcp, &b.pcp];
    let prg = ChaChaPrg::from_u64_seed(SEED);
    let mut verifier = HeteroSessionVerifier::new(&pcps, &IDS, &prg);
    let mut prover = HeteroSessionProver::new(&pcps, &IDS);
    let setup = verifier.setup_message().unwrap();
    prover.receive_setup(&setup).unwrap();
    let mut ws = ProverWorkspace::new().with_policy(policy);
    let mut bytes = Vec::new();
    push_message(&mut bytes, &setup);
    for (i, (proof, io)) in proofs.iter().zip(&ios).enumerate() {
        let msg = prover.instance_message(i, proof, &mut ws).unwrap();
        assert!(verifier.verify_instance(i, &msg, io).unwrap());
        push_message(&mut bytes, &msg);
    }
    crc32(&bytes)
}

/// One circuit's proofs and claimed io, instance by instance.
type Instances<'a> = (&'a [ZaatarProof<F61>], &'a [Vec<F61>]);

/// Lays per-circuit proofs and claimed io out in `IDS` order, taking
/// each circuit's instances front to back.
fn interleave(per_circuit: [Instances<'_>; 2]) -> (Vec<ZaatarProof<F61>>, Vec<Vec<F61>>) {
    let mut next = [0usize; 2];
    let mut proofs = Vec::new();
    let mut ios = Vec::new();
    for &c in &IDS {
        let (ps, is) = per_circuit[c as usize];
        proofs.push(ps[next[c as usize]].clone());
        ios.push(is[next[c as usize]].clone());
        next[c as usize] += 1;
    }
    (proofs, ios)
}

/// The F128 SETUP session's setup message and instance responses,
/// proved and served at `chunk_len`.
fn wide_setup_digest(fx: &WideFixture, chunk_len: usize) -> u32 {
    let policy = ExecPolicy::streamed(chunk_len);
    let proofs: Vec<ZaatarProof<F128>> =
        prove_batch_with_policy(&fx.pcp, &fx.witnesses, &policy, MemBudget::unlimited())
            .expect("unlimited budget")
            .into_iter()
            .map(|p| p.expect("satisfying witness"))
            .collect();
    let mut prg = ChaChaPrg::from_u64_seed(SEED);
    let mut verifier = SessionVerifier::new(&fx.pcp, &mut prg);
    let mut prover = SessionProver::new(&fx.pcp);
    let setup = verifier.setup_message().unwrap();
    prover.receive_setup(&setup).unwrap();
    let mut ws = ProverWorkspace::new().with_policy(policy);
    let mut bytes = Vec::new();
    push_message(&mut bytes, &setup);
    for (proof, io) in proofs.iter().zip(&fx.ios) {
        let msg = prover.instance_message(proof, &mut ws).unwrap();
        assert!(verifier.verify_instance(&msg, io).unwrap());
        push_message(&mut bytes, &msg);
    }
    crc32(&bytes)
}

#[test]
fn proofs_match_pinned_digest_at_one_and_two_workers() {
    let fx = chain_fixture(12, 4);
    for workers in [1usize, 2] {
        let proofs = proofs_at(&fx, &ExecPolicy::with_workers(workers));
        let mut bytes = Vec::new();
        for p in &proofs {
            bytes.extend(encode_proof(p).unwrap());
        }
        assert_eq!(crc32(&bytes), PROOFS, "workers={workers}");
    }
}

#[test]
fn session_messages_match_pinned_digests_at_every_chunk_length() {
    let fx = chain_fixture(12, 4);
    let eq = mul_eq_fixture(&[[3, 3], [4, 9]]);
    let n = fx.pcp.qap().degree() + 1;
    assert_eq!(n, 65, "fixture geometry moved; the digests no longer apply");
    for chunk_len in [n, n.div_ceil(2), 7] {
        assert_eq!(setup_digest(&fx, chunk_len), SETUP_MESSAGES, "SETUP chunk_len={chunk_len}");
        assert_eq!(
            hetero_digest(&fx, &eq, chunk_len),
            HSETUP_MESSAGES,
            "HSETUP chunk_len={chunk_len}"
        );
    }
}

#[test]
fn f128_session_messages_match_pinned_digest_at_covering_and_ragged_chunks() {
    let fx = wide_chain_fixture(4, 2);
    let n = fx.pcp.qap().degree() + 1;
    assert_eq!(n, 33, "fixture geometry moved; the digest no longer applies");
    for chunk_len in [n, 5] {
        assert_eq!(
            wide_setup_digest(&fx, chunk_len),
            F128_SETUP_MESSAGES,
            "F128 SETUP chunk_len={chunk_len}"
        );
    }
}

#[test]
fn blocking_loop_frames_match_pinned_digests() {
    let fx = chain_fixture(12, 4);
    let eq = mul_eq_fixture(&[[3, 3], [4, 9]]);

    let (vt, mut pt) = loopback_transport_pair();
    let mut vt = Recorder::new(vt);
    std::thread::scope(|s| {
        s.spawn(|| {
            run_session_prover(&mut pt, &fx.pcp, &fx.proofs, Duration::from_secs(5)).unwrap()
        });
        let mut prg = ChaChaPrg::from_u64_seed(SEED);
        let report =
            run_session_verifier(&mut vt, &fx.pcp, &fx.ios, &RetryPolicy::fast(), &mut prg)
                .unwrap();
        assert!(report.all_accepted(), "{:?}", report.outcomes);
    });
    assert_eq!(vt.digest(), SETUP_FRAMES);

    let (proofs, ios) = interleave([(&fx.proofs, &fx.ios), (&eq.proofs, &eq.ios)]);
    let pcps = [&fx.pcp, &eq.pcp];
    let (vt, mut pt) = loopback_transport_pair();
    let mut vt = Recorder::new(vt);
    std::thread::scope(|s| {
        s.spawn(|| {
            run_hetero_session_prover(&mut pt, &pcps, &IDS, &proofs, Duration::from_secs(5))
                .unwrap()
        });
        let mut prg = ChaChaPrg::from_u64_seed(SEED);
        let report =
            run_hetero_session_verifier(&mut vt, &pcps, &IDS, &ios, &RetryPolicy::fast(), &mut prg)
                .unwrap();
        assert!(report.all_accepted(), "{:?}", report.outcomes);
    });
    assert_eq!(vt.digest(), HSETUP_FRAMES);
}

#[test]
fn server_frames_match_pinned_digests() {
    let fx = chain_fixture(12, 4);
    let eq = mul_eq_fixture(&[[3, 3], [4, 9]]);

    let (vt, pt) = loopback_transport_pair();
    let mut vt = Recorder::new(vt);
    let mut server = SessionServer::new(&fx.pcp, &fx.proofs, ServerConfig::default());
    server.admit(pt, "pin");
    std::thread::scope(|s| {
        let client = s.spawn(|| {
            let mut prg = ChaChaPrg::from_u64_seed(SEED);
            let report =
                run_session_verifier(&mut vt, &fx.pcp, &fx.ios, &RetryPolicy::fast(), &mut prg)
                    .unwrap();
            assert!(report.all_accepted(), "{:?}", report.outcomes);
        });
        server.run_until_drained(Instant::now() + Duration::from_secs(20));
        client.join().unwrap();
    });
    assert_eq!(vt.digest(), SETUP_FRAMES);

    let (proofs, ios) = interleave([(&fx.proofs, &fx.ios), (&eq.proofs, &eq.ios)]);
    let pcps = [&fx.pcp, &eq.pcp];
    let (vt, pt) = loopback_transport_pair();
    let mut vt = Recorder::new(vt);
    let mut server = SessionServer::new_hetero(&pcps, &IDS, &proofs, ServerConfig::default());
    server.admit(pt, "pin");
    std::thread::scope(|s| {
        let client = s.spawn(|| {
            let mut prg = ChaChaPrg::from_u64_seed(SEED);
            let report =
                run_hetero_session_verifier(&mut vt, &pcps, &IDS, &ios, &RetryPolicy::fast(), &mut prg)
                    .unwrap();
            assert!(report.all_accepted(), "{:?}", report.outcomes);
        });
        server.run_until_drained(Instant::now() + Duration::from_secs(20));
        client.join().unwrap();
    });
    assert_eq!(vt.digest(), HSETUP_FRAMES);
}
