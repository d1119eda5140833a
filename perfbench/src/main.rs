//! Runs one workload and prints its result.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Standard output ends with two lines: a detail record (`{"perfbench":
//! …}`, with the host fingerprint and every measured value, read by the
//! `compare` command) and the result object (`correct`, `attempted`,
//! `failed`, `metrics`). The exit code is 0 only when every correctness
//! check passed.

use std::path::PathBuf;

use perfbench::host::{nproc, Host};
use perfbench::trace::to_json;
use perfbench::workloads::{RunOpts, Workload};
use perfbench::Report;

fn usage() -> ! {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        names.join("|")
    );
    std::process::exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    for pair in args.chunks(2) {
        let [flag, value] = pair else { usage() };
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).unwrap_or_else(|| usage())),
            "--seed" => seed = Some(value.parse::<u64>().unwrap_or_else(|_| usage())),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .unwrap_or_else(|| usage()),
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                })
            }
            _ => usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        usage()
    };
    // The server's poll loop and the verifier each need a core of their
    // own; no run uses more threads than the host has.
    if nproc() < 2 {
        eprintln!(
            "perfbench needs at least 2 hardware threads, found {}",
            nproc()
        );
        std::process::exit(2);
    }
    let host = Host::probe();
    let opts = RunOpts {
        seed,
        seconds,
        trace,
    };
    let report = workload.run(workload.spec(), &opts);
    for problem in &report.problems {
        eprintln!("FAILED: {problem}");
    }
    if trace {
        write_spans(&report);
    }
    println!("{}", report.detail_line(&host));
    println!("{}", report.result_line());
    if !report.correct() {
        std::process::exit(1);
    }
}

/// Writes a traced run's spans next to the build output:
/// `$CARGO_TARGET_DIR/perfbench-traces/`, or `perfbench/target/…` from
/// the repository root.
fn write_spans(report: &Report) {
    let dir = PathBuf::from(
        std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "perfbench/target".to_string()),
    )
    .join("perfbench-traces");
    let path = dir.join(format!("{}-seed{}.json", report.workload, report.seed));
    let written =
        std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, to_json(&report.spans)));
    match written {
        Ok(()) => eprintln!("spans written to {}", path.display()),
        Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
    }
}
