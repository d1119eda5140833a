//! Malicious-prover soundness suite for the full argument system
//! (commitment + decommitment + PCP checks), exercised over seeded
//! batches in **both** answer paths: the serial per-query reference
//! (`decommit`) and the amortized batched kernel (`decommit_packed`
//! over the verifier's packed [`QueryMatrix`] pair).
//!
//! Four adversaries, mirroring the soundness analysis's attack surface:
//!
//! * **bad-quotient** — a non-satisfying witness whose quotient `h`
//!   silently drops the nonzero remainder (`prove_unchecked`); caught by
//!   the divisibility correction test for all but `deg/|F|` of the τ's.
//! * **non-linear oracle** — answers `f(⟨q,u⟩)` for a non-linear `f`
//!   instead of a linear function; caught by the linearity tests *and*
//!   the commitment consistency check.
//! * **equivocation** — commits to `u`, decommits with `u′ ≠ u`; caught
//!   by `Dec(e) == g^(π(t) − Σαᵢπ(qᵢ))` unless `⟨r, u′−u⟩ = 0`
//!   (probability `1/|F|` over the verifier's secret `r`).
//! * **post-commit witness flip** — re-solves with a different witness
//!   after the commitment round and answers from the new proof; caught
//!   like equivocation, plus the PCP checks on the flipped witness.
//!
//! Every attack rides in a batch next to an honest instance, asserting
//! that batch amortization neither leaks rejections into honest
//! instances nor lets a cheat hide behind an honest neighbour.

use zaatar::core::argument::Verifier;
use zaatar::core::commit::{decommit, decommit_packed, CommitmentKey, Decommitment};
use zaatar::core::pcp::{PcpParams, ZaatarProof};
use zaatar::core::qap::QapWitness;
use zaatar::core::testutil::{circuit_fixture_with, CircuitFixture as Fixture, TestPcp as Pcp};
use zaatar::core::workspace::ProverWorkspace;
use zaatar::cc::Builder;
use zaatar::crypto::ChaChaPrg;
use zaatar::field::{Field, F61};

fn f(x: i64) -> F61 {
    F61::from_i64(x)
}

/// y = a·b + min(a, b), over a batch of inputs.
fn fixture(inputs: &[[i64; 2]]) -> Fixture {
    let mut b = Builder::<F61>::new();
    let a = b.alloc_input();
    let bb = b.alloc_input();
    let prod = b.mul(&a, &bb);
    let mn = b.min(&a, &bb, 10);
    b.bind_output(&prod.add(&mn));
    let (sys, solver) = b.finish();
    let field_inputs: Vec<Vec<F61>> = inputs
        .iter()
        .map(|pair| vec![f(pair[0]), f(pair[1])])
        .collect();
    circuit_fixture_with(&sys, &solver, &field_inputs, PcpParams { rho: 3, rho_lin: 4 })
}

/// A per-answer warp applied to (z, h) decommitments, modelling a
/// non-linear oracle.
type AnswerWarp = fn(&mut Decommitment<F61>, &mut Decommitment<F61>);

/// One batch slot: what the prover commits to, what it answers from,
/// and an optional per-answer warp modelling a non-linear oracle.
struct Slot {
    committed: ZaatarProof<F61>,
    answering: ZaatarProof<F61>,
    warp: Option<AnswerWarp>,
    io: Vec<F61>,
}

impl Slot {
    fn honest(pcp: &Pcp, w: &QapWitness<F61>, io: &[F61]) -> Self {
        let proof = pcp.prove(w).expect("honest witness");
        Slot {
            committed: proof.clone(),
            answering: proof,
            warp: None,
            io: io.to_vec(),
        }
    }
}

/// Drives the full argument for a batch of (possibly adversarial)
/// slots; `batched` selects the amortized packed-matrix answer path
/// versus the serial per-query reference.
fn run_batch(fx: &Fixture, slots: &[Slot], seed: u64, batched: bool) -> Vec<bool> {
    let mut prg = ChaChaPrg::from_u64_seed(seed);
    let mut verifier = Verifier::setup(&fx.pcp, &mut prg);
    let (enc_z, enc_h) = {
        let (a, b) = verifier.commit_request();
        (a.to_vec(), b.to_vec())
    };
    let commitments: Vec<_> = slots
        .iter()
        .map(|s| {
            (
                CommitmentKey::<F61>::commit(&enc_z, &s.committed.z, &mut ProverWorkspace::new())
                    .unwrap(),
                CommitmentKey::<F61>::commit(&enc_h, &s.committed.h, &mut ProverWorkspace::new())
                    .unwrap(),
            )
        })
        .collect();
    let request = verifier.decommit_request();
    let decommits: Vec<_> = slots
        .iter()
        .map(|s| {
            let (mut dz, mut dh) = if batched {
                (
                    decommit_packed(&s.answering.z, request.z_matrix, request.t_z, 1),
                    decommit_packed(&s.answering.h, request.h_matrix, request.t_h, 1),
                )
            } else {
                (
                    decommit(&s.answering.z, &request.z_queries, request.t_z),
                    decommit(&s.answering.h, &request.h_queries, request.t_h),
                )
            };
            if let Some(warp) = s.warp {
                warp(&mut dz, &mut dh);
            }
            (dz, dh)
        })
        .collect();
    drop(request);
    commitments
        .iter()
        .zip(&decommits)
        .zip(slots)
        .map(|((c, (dz, dh)), s)| verifier.check_instance(c, dz, dh, &s.io))
        .collect()
}

/// Asserts the slot zoo's verdicts in both answer paths across seeds:
/// slot 0 is honest and must accept, every other slot must be rejected.
fn assert_rejected_with_honest_neighbour(fx: &Fixture, slots: &[Slot], label: &str) {
    for seed in [11u64, 29, 47] {
        for batched in [false, true] {
            let verdicts = run_batch(fx, slots, seed, batched);
            assert!(
                verdicts[0],
                "{label}: honest neighbour rejected (seed {seed}, batched {batched})"
            );
            for (i, ok) in verdicts.iter().enumerate().skip(1) {
                assert!(
                    !ok,
                    "{label}: adversary slot {i} accepted (seed {seed}, batched {batched})"
                );
            }
        }
    }
}

/// (a) Nonzero-remainder quotient: break the witness, ship the
/// truncated quotient anyway.
#[test]
fn bad_quotient_prover_rejected() {
    let fx = fixture(&[[3, 7], [10, 2]]);
    let mut bad_w = fx.witnesses[1].clone();
    bad_w.z[0] += F61::ONE;
    let proof = fx.pcp.prove_unchecked(&bad_w);
    let slots = vec![
        Slot::honest(&fx.pcp, &fx.witnesses[0], &fx.ios[0]),
        Slot {
            committed: proof.clone(),
            answering: proof,
            warp: None,
            io: fx.ios[1].clone(),
        },
    ];
    assert_rejected_with_honest_neighbour(&fx, &slots, "bad-quotient");
}

/// (b) Non-linear oracle: answers `a² + a` per query instead of a
/// linear function of the queries.
#[test]
fn non_linear_oracle_rejected() {
    fn square_warp(dz: &mut Decommitment<F61>, dh: &mut Decommitment<F61>) {
        for a in dz.answers.iter_mut().chain(dh.answers.iter_mut()) {
            *a = *a * *a + *a;
        }
        dz.t_answer = dz.t_answer * dz.t_answer + dz.t_answer;
        dh.t_answer = dh.t_answer * dh.t_answer + dh.t_answer;
    }
    let fx = fixture(&[[5, 6], [8, 1]]);
    let proof = fx.pcp.prove(&fx.witnesses[1]).unwrap();
    let slots = vec![
        Slot::honest(&fx.pcp, &fx.witnesses[0], &fx.ios[0]),
        Slot {
            committed: proof.clone(),
            answering: proof,
            warp: Some(square_warp),
            io: fx.ios[1].clone(),
        },
    ];
    assert_rejected_with_honest_neighbour(&fx, &slots, "non-linear");
}

/// (c) Equivocation: commit to `u`, answer every query from `u′ ≠ u`.
#[test]
fn commit_decommit_equivocation_rejected() {
    let fx = fixture(&[[2, 9], [4, 4]]);
    let honest = fx.pcp.prove(&fx.witnesses[1]).unwrap();
    let mut other = honest.clone();
    other.z[0] += F61::ONE;
    other.h[0] += F61::ONE;
    let slots = vec![
        Slot::honest(&fx.pcp, &fx.witnesses[0], &fx.ios[0]),
        Slot {
            committed: honest,
            answering: other,
            warp: None,
            io: fx.ios[1].clone(),
        },
    ];
    assert_rejected_with_honest_neighbour(&fx, &slots, "equivocation");
}

/// (d) Post-commit witness flip: commit to the honest proof, then
/// re-derive the proof from a flipped witness and answer from that.
#[test]
fn post_commit_witness_flip_rejected() {
    let fx = fixture(&[[7, 3], [6, 5]]);
    let honest = fx.pcp.prove(&fx.witnesses[1]).unwrap();
    let mut flipped_w = fx.witnesses[1].clone();
    flipped_w.z[0] += F61::ONE;
    let flipped = fx.pcp.prove_unchecked(&flipped_w);
    let slots = vec![
        Slot::honest(&fx.pcp, &fx.witnesses[0], &fx.ios[0]),
        Slot {
            committed: honest,
            answering: flipped,
            warp: None,
            io: fx.ios[1].clone(),
        },
    ];
    assert_rejected_with_honest_neighbour(&fx, &slots, "witness-flip");
}

/// All four adversaries in ONE batch behind an honest instance: the
/// batch-amortized query set must reject each independently.
#[test]
fn adversary_zoo_shares_one_batch() {
    let fx = fixture(&[[3, 7], [10, 2], [5, 6], [2, 9], [6, 5]]);

    let mut bad_w = fx.witnesses[1].clone();
    bad_w.z[0] += F61::ONE;
    let bad_quotient = fx.pcp.prove_unchecked(&bad_w);

    fn warp(dz: &mut Decommitment<F61>, dh: &mut Decommitment<F61>) {
        for a in dz.answers.iter_mut().chain(dh.answers.iter_mut()) {
            *a = *a * *a;
        }
        dz.t_answer = dz.t_answer * dz.t_answer;
        dh.t_answer = dh.t_answer * dh.t_answer;
    }
    let honest2 = fx.pcp.prove(&fx.witnesses[2]).unwrap();

    let honest3 = fx.pcp.prove(&fx.witnesses[3]).unwrap();
    let mut other3 = honest3.clone();
    other3.z[1] += F61::ONE;

    let honest4 = fx.pcp.prove(&fx.witnesses[4]).unwrap();
    let mut flipped_w = fx.witnesses[4].clone();
    flipped_w.z[1] += F61::ONE;
    let flipped4 = fx.pcp.prove_unchecked(&flipped_w);

    let slots = vec![
        Slot::honest(&fx.pcp, &fx.witnesses[0], &fx.ios[0]),
        Slot {
            committed: bad_quotient.clone(),
            answering: bad_quotient,
            warp: None,
            io: fx.ios[1].clone(),
        },
        Slot {
            committed: honest2.clone(),
            answering: honest2,
            warp: Some(warp),
            io: fx.ios[2].clone(),
        },
        Slot {
            committed: honest3,
            answering: other3,
            warp: None,
            io: fx.ios[3].clone(),
        },
        Slot {
            committed: honest4,
            answering: flipped4,
            warp: None,
            io: fx.ios[4].clone(),
        },
    ];
    assert_rejected_with_honest_neighbour(&fx, &slots, "zoo");

    // The serial and batched paths must agree slot-for-slot.
    for seed in [11u64, 29] {
        assert_eq!(
            run_batch(&fx, &slots, seed, false),
            run_batch(&fx, &slots, seed, true),
            "verdicts must not depend on the answer path (seed {seed})"
        );
    }
}

/// The honest end of the same pipeline: every slot honest, every slot
/// accepted, in both paths — completeness guard for the harness itself.
#[test]
fn honest_batch_accepts_in_both_paths() {
    let fx = fixture(&[[1, 2], [3, 4], [0, 0]]);
    let slots: Vec<Slot> = fx
        .witnesses
        .iter()
        .zip(&fx.ios)
        .map(|(w, io)| Slot::honest(&fx.pcp, w, io))
        .collect();
    for batched in [false, true] {
        assert_eq!(run_batch(&fx, &slots, 5, batched), vec![true; 3]);
    }
}
