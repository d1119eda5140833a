//! Each workload at a tiny size, end to end: the correctness gate holds
//! (the tampered-io canary is rejected in warm-up), and the untraced and
//! traced runs print every metric `BENCHMARK.json` names.

use std::sync::Mutex;

use perfbench::stats::valid_metric_name;
use perfbench::workloads::{RunOpts, Spec, Workload};
use perfbench::{Report, END_TO_END, PER_LAYER};
use zaatar_apps::apsp::Apsp;
use zaatar_apps::lcs::Lcs;
use zaatar_apps::Suite;
use zaatar_obs::json::{parse, Value};

fn tiny(w: Workload) -> Spec {
    match w {
        Workload::LcsBatch16 => Spec {
            app: Suite::Lcs(Lcs { m: 2 }),
            beta: 3,
        },
        Workload::LcsBatch1 => Spec {
            app: Suite::Lcs(Lcs { m: 2 }),
            beta: 1,
        },
        Workload::ApspProve16 => Spec {
            app: Suite::Apsp(Apsp { m: 2 }),
            beta: 3,
        },
    }
}

/// Held by every workload run: each run resets and snapshots the
/// process-wide zaatar-obs registry, so two runs at once (the tests run
/// on parallel threads) would wipe each other's timers.
static OBS_REGISTRY: Mutex<()> = Mutex::new(());

/// Runs `w` at its tiny size, one run at a time.
fn run(w: Workload, trace: bool) -> Report {
    let _registry = OBS_REGISTRY
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    let opts = RunOpts {
        seed: 7,
        seconds: 0.01,
        trace,
    };
    w.run(tiny(w), &opts)
}

/// The result line parsed back, checked against the contract's shape.
fn result_metrics(line: &str, expected: &[(&str, &str)]) -> Vec<(String, f64)> {
    let json = parse(line).expect("the result line is JSON");
    let obj = json.as_object().expect("the result line is an object");
    let keys: Vec<&str> = obj.keys().map(String::as_str).collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    let metrics = obj["metrics"].as_object().expect("metrics is an object");
    assert_eq!(metrics.len(), expected.len());
    expected
        .iter()
        .map(|(name, unit)| {
            let m = metrics[*name]
                .as_object()
                .expect("each metric is an object");
            assert_eq!(m["unit"].as_str(), Some(*unit), "{name}");
            (
                name.to_string(),
                m["value"].as_f64().expect("numeric value"),
            )
        })
        .collect()
}

#[test]
fn every_workload_passes_its_gate_untraced() {
    for w in Workload::ALL {
        let report = run(w, false);
        assert!(report.correct(), "{}: {:?}", w.name(), report.problems);
        assert!(report.attempted >= 1);
        assert_eq!(report.failed, 0);
        for (name, value) in result_metrics(&report.result_line(), &END_TO_END) {
            assert!(value > 0.0, "{}: {name} = {value}", w.name());
        }
    }
}

#[test]
fn traced_runs_report_every_layer() {
    for w in Workload::ALL {
        let report = run(w, true);
        assert!(report.correct(), "{}: {:?}", w.name(), report.problems);
        let values: std::collections::BTreeMap<String, f64> =
            result_metrics(&report.result_line(), &PER_LAYER)
                .into_iter()
                .collect();
        let coverage = values["trace.coverage"];
        assert!(
            coverage > 0.0 && coverage <= 1.0,
            "{}: coverage {coverage}",
            w.name()
        );
        assert!(
            values["pcp.prove_ms"] > 0.0 && values["poly.ntt_calls"] > 0.0,
            "{}",
            w.name()
        );
        assert!(values["sched.workers"] >= 1.0);
        if w == Workload::ApspProve16 {
            assert_eq!(
                values["crypto.commit_ms"], 0.0,
                "no crypto when only proving"
            );
        } else {
            for layer in [
                "crypto.keygen_ms",
                "crypto.commit_ms",
                "pcp.answer_ms",
                "server.setup_ms",
            ] {
                assert!(values[layer] > 0.0, "{}: {layer}", w.name());
            }
            assert_eq!(values["transport.retransmits"], 0.0);
            assert_eq!(values["server.sessions_failed"], 0.0);
        }
    }
}

#[test]
fn benchmark_json_matches_the_metric_tables() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = parse(&std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/"))
        .expect("BENCHMARK.json is JSON");
    let obj = json.as_object().expect("an object");
    let listed = |key: &str| -> Vec<(String, String)> {
        obj[key]
            .as_array()
            .expect("a list")
            .iter()
            .map(|m| {
                let m = m.as_object().expect("metric object");
                let s = |k: &str| m[k].as_str().expect("string field").to_string();
                (s("name"), s("unit"))
            })
            .collect()
    };
    let table = |t: &[(&str, &str)]| -> Vec<(String, String)> {
        t.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(listed("end_to_end"), table(&END_TO_END));
    assert_eq!(listed("per_layer"), table(&PER_LAYER));
    for (name, _) in END_TO_END.iter().chain(&PER_LAYER) {
        assert!(valid_metric_name(name), "{name}");
    }
    let workloads: Vec<&str> = obj["workloads"]
        .as_array()
        .expect("a list")
        .iter()
        .map(|w| {
            w.as_object()
                .and_then(|o| o["name"].as_str())
                .expect("workload name")
        })
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);
    assert!(matches!(obj.get("run_seconds"), Some(Value::Num(_))));
}
