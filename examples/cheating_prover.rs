//! Soundness demonstration: three flavours of cheating prover, all
//! caught by the verifier.
//!
//! 1. **Wrong output**: the prover executes honestly but claims a
//!    different `y` (the divisor polynomial no longer divides `P_w`).
//! 2. **Corrupted witness**: the prover's assignment violates a
//!    constraint; it ships the quotient anyway.
//! 3. **Commitment equivocation**: the prover commits to one proof but
//!    answers queries with another (caught by the consistency check of
//!    the linear commitment, §2.2).
//!
//! ```text
//! cargo run --example cheating_prover
//! ```

use zaatar::cc::lang::{compile, CompileOptions};
use zaatar::cc::ginger_to_quad;
use zaatar::core::argument::run_batched_argument;
use zaatar::core::commit::{decommit, CommitmentKey};
use zaatar::core::pcp::{PcpParams, ZaatarPcp};
use zaatar::core::qap::Qap;
use zaatar::core::workspace::ProverWorkspace;
use zaatar::crypto::ChaChaPrg;
use zaatar::field::{Field, F128};

fn main() {
    // Ψ: y = a·b + 1 (with a comparison to keep it non-trivial).
    let source = r"
        input a;
        input b;
        output y;
        var p = a * b + 1;
        if (p < 0) { y = 0 - p; } else { y = p; }
    ";
    let compiled = compile::<F128>(source, &CompileOptions::default()).unwrap();
    let quad = ginger_to_quad(&compiled.ginger);
    let qap = Qap::new(&quad.system);
    let pcp = ZaatarPcp::new(qap, PcpParams::default());

    let inputs: Vec<F128> = vec![F128::from_i64(6), F128::from_i64(7)];
    let asg = compiled.solver.solve(&inputs).unwrap();
    let ext = quad.extend_assignment(&asg);
    let witness = pcp.qap().witness(&ext);
    let io: Vec<F128> = pcp
        .qap()
        .var_map()
        .inputs()
        .iter()
        .chain(pcp.qap().var_map().outputs())
        .map(|v| ext.get(*v))
        .collect();

    // Honest baseline.
    let honest = pcp.prove(&witness).expect("satisfying witness");
    let ok = run_batched_argument(&pcp, std::slice::from_ref(&honest), std::slice::from_ref(&io), 1);
    println!("honest prover:            accepted = {}", ok.accepted[0]);
    assert!(ok.accepted[0]);

    // Attack 1: claim y = 43 instead of 43... i.e. lie by one.
    let mut lying_io = io.clone();
    let last = lying_io.len() - 1;
    lying_io[last] += F128::ONE;
    let r1 = run_batched_argument(&pcp, std::slice::from_ref(&honest), &[lying_io], 2);
    println!("wrong claimed output:     accepted = {}", r1.accepted[0]);
    assert!(!r1.accepted[0]);

    // Attack 2: corrupt the witness, ship the bogus quotient.
    let mut bad_witness = witness.clone();
    bad_witness.z[0] += F128::ONE;
    let forged = pcp.prove_unchecked(&bad_witness);
    let r2 = run_batched_argument(&pcp, &[forged], std::slice::from_ref(&io), 3);
    println!("corrupted witness:        accepted = {}", r2.accepted[0]);
    assert!(!r2.accepted[0]);

    // Attack 3: equivocate against the commitment — commit to the honest
    // z but answer queries from a different vector.
    let mut prg = ChaChaPrg::from_u64_seed(99);
    let key = CommitmentKey::<F128>::generate(honest.z.len(), &mut prg);
    let commitment =
        CommitmentKey::<F128>::commit(&key.enc_r, &honest.z, &mut ProverWorkspace::new())
            .expect("an unbudgeted workspace admits every lease");
    let queries: Vec<Vec<F128>> = (0..4).map(|_| prg.field_vec(honest.z.len())).collect();
    let qrefs: Vec<&[F128]> = queries.iter().map(|q| q.as_slice()).collect();
    let (t, alphas) = key.consistency_query(&qrefs, &mut prg);
    let mut other = honest.z.clone();
    other[0] += F128::ONE;
    let d = decommit(&other, &qrefs, &t);
    let consistent = key.verify(&commitment, &d.answers, d.t_answer, &alphas);
    println!("commitment equivocation:  accepted = {consistent}");
    assert!(!consistent);

    println!("\nAll three attacks rejected; soundness error < 9.6e-7 at the paper's parameters.");
}
