//! The paper configuration and the prover's pipeline from raw inputs:
//! compile, build the QAP and PCP, then `solve → extend_assignment →
//! qap.witness → prove_batch_with_policy` for a batch of instances.

use std::sync::Arc;
use std::time::{Duration, Instant};

use zaatar_apps::{build, AppArtifacts, Suite};
use zaatar_cc::numeric::decode_i64;
use zaatar_core::pcp::{PcpParams, ZaatarPcp, ZaatarProof};
use zaatar_core::qap::{Qap, QapWitness};
use zaatar_core::{
    prove_batch_with_policy, ExecPolicy, HostProfile, MemBudget, MicroParams, Scheduler,
    WorkloadShape,
};
use zaatar_field::{Field, F128};
use zaatar_poly::Radix2Domain;

use crate::trace::{SpanId, Tracer};

/// The paper's field; its commitment group is 1024-bit ElGamal.
pub type F = F128;
/// The PCP over the NTT-friendly domain.
pub type Pcp = ZaatarPcp<F, Radix2Domain<F>>;

/// A compiled computation with its QAP-based PCP at the paper's
/// parameters (`PcpParams::default()`: ρ = 8, ρ_lin = 20).
pub struct Circuit {
    /// Compiler output: constraints, witness solver, quadratic form.
    pub art: AppArtifacts<F>,
    /// The PCP the prover and verifier share.
    pub pcp: Arc<Pcp>,
    /// Time spent compiling (ZSL → constraints → quadratic form).
    pub compile: Duration,
}

impl Circuit {
    /// Compiles `app` and builds its PCP.
    pub fn build(app: Suite) -> Circuit {
        let start = Instant::now();
        let art = build::<F>(&app);
        let compile = start.elapsed();
        let pcp = Arc::new(ZaatarPcp::new(
            Qap::new(&art.quad.system),
            PcpParams::default(),
        ));
        Circuit { art, pcp, compile }
    }

    /// Number of inputs at the front of every io vector.
    pub fn num_inputs(&self) -> usize {
        self.pcp.qap().var_map().inputs().len()
    }

    /// The execution policy the scheduler derives for a batch of
    /// `batch` proofs of this circuit, from the detected host alone: an
    /// operator's worker override is not consulted, so the worker count
    /// never exceeds the available hardware threads.
    pub fn policy(&self, batch: usize) -> ExecPolicy {
        let scheduler = Scheduler::new(HostProfile::detect(), MicroParams::paper_128().into());
        let shape = WorkloadShape {
            domain_size: self.pcp.qap().degree(),
            batch,
            elem_bytes: std::mem::size_of::<F>(),
        };
        scheduler.policy(shape, MemBudget::unlimited())
    }
}

/// One instance: generated inputs and the native reference output.
#[derive(Clone, Debug)]
pub struct Instance {
    /// Inputs as field elements.
    pub inputs: Vec<F>,
    /// `Suite::reference` on the same inputs.
    pub reference: Vec<i64>,
}

/// Mixes a workload seed with a stream index (SplitMix64 finalizer), so
/// every instance and session draws from its own well-separated seed.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// `count` instances of `app` generated from `seed`.
pub fn instances(app: &Suite, seed: u64, count: usize) -> Vec<Instance> {
    (0..count as u64)
        .map(|i| {
            let inputs: Vec<F> = app.gen_inputs(mix(seed, i));
            let raw: Vec<i64> = inputs
                .iter()
                .map(|v| decode_i64(*v).expect("generated inputs are small integers"))
                .collect();
            Instance {
                reference: app.reference(&raw),
                inputs,
            }
        })
        .collect()
}

/// What one pass of the pipeline produced.
pub struct Proved {
    /// One proof per instance; `None` when the prover refused it.
    pub proofs: Vec<Option<ZaatarProof<F>>>,
    /// Each instance's claimed io (inputs then outputs, QAP order).
    pub ios: Vec<Vec<F>>,
    /// Instances whose claimed outputs differ from the reference.
    pub wrong_outputs: usize,
    /// Time in `solver.solve`, summed over instances.
    pub solve: Duration,
    /// Time in `extend_assignment` and `qap.witness`, summed.
    pub witness: Duration,
    /// Time in `prove_batch_with_policy`.
    pub prove: Duration,
}

/// Runs the prover's pipeline on `insts` under `policy`. With `tamper`,
/// that instance's last claimed output is changed before proving, which
/// a sound prover must refuse (`None`). With `trace`, each step is
/// recorded as a span under the given batch span.
pub fn prove_from_inputs(
    c: &Circuit,
    insts: &[Instance],
    policy: &ExecPolicy,
    tamper: Option<usize>,
    trace: Option<(&Tracer, u64, SpanId)>,
) -> Proved {
    let span = |name: &'static str, start: Instant, end: Instant| {
        if let Some((tracer, batch, parent)) = trace {
            tracer.record(name, batch, Some(parent), start, end);
        }
    };
    let n_in = c.num_inputs();
    let mut solve = Duration::ZERO;
    let mut witness = Duration::ZERO;
    let mut wrong_outputs = 0;
    let mut witnesses: Vec<QapWitness<F>> = Vec::with_capacity(insts.len());
    for (i, inst) in insts.iter().enumerate() {
        let start = Instant::now();
        let asg = c
            .art
            .compiled
            .solver
            .solve(&inst.inputs)
            .expect("generated inputs satisfy the program");
        let solved = Instant::now();
        let mut w = c.pcp.qap().witness(&c.art.quad.extend_assignment(&asg));
        let built = Instant::now();
        span("cc.solve", start, solved);
        span("cc.witness", solved, built);
        solve += solved - start;
        witness += built - solved;
        let outputs: Vec<Option<i64>> = w.io[n_in..].iter().map(|v| decode_i64(*v)).collect();
        let expected: Vec<Option<i64>> = inst.reference.iter().map(|&v| Some(v)).collect();
        if outputs != expected {
            wrong_outputs += 1;
        }
        if tamper == Some(i) {
            let last = w.io.last_mut().expect("every computation has an output");
            *last += F::ONE;
        }
        witnesses.push(w);
    }
    let start = Instant::now();
    let proofs = prove_batch_with_policy(&c.pcp, &witnesses, policy, MemBudget::unlimited())
        .expect("an unlimited budget never refuses a lease");
    let proved = Instant::now();
    span("runtime.prove_batch", start, proved);
    let prove = proved - start;
    Proved {
        proofs,
        ios: witnesses.into_iter().map(|w| w.io).collect(),
        wrong_outputs,
        solve,
        witness,
        prove,
    }
}
