//! Compares two sets of benchmark results.
//!
//! ```text
//! compare <base.out> <new.out> [BENCHMARK.json]
//! ```
//!
//! Each file holds the standard output of any number of untraced runs;
//! the detail records (`{"perfbench": …}` lines) are read and the rest
//! ignored. For every workload and end-to-end metric it prints both
//! medians and quartiles and a verdict: `better` when the new runs win
//! at least nine tenths of the seed-paired runs and the medians differ
//! by more than the base's quartile distance; `worse` when the new
//! median is worse by more than the metric's bound; `unresolved` when
//! either set spreads wider than the bound; `unchanged` otherwise.
//! The per-layer metrics in [`RECORDED`] have no bound and get no
//! verdict: their medians and quartiles are printed for reference.
//! Results from different machines (CPU model or core count) are
//! refused, and so are sets whose median calibration scores differ by
//! more than [`SCORE_TOLERANCE`].

use std::collections::BTreeMap;
use std::process::exit;

use perfbench::host::{Host, SCORE_TOLERANCE};
use perfbench::stats::{median, quartiles, spread, verdict, Verdict};
use perfbench::RECORDED;
use zaatar_obs::json::{parse, Value};

/// One run's detail record.
struct Record {
    workload: String,
    seed: u64,
    host: Host,
    correct: bool,
    values: BTreeMap<String, f64>,
}

/// A metric to compare: name, unit, higher-is-better, bound (none for
/// the per-layer metrics, which get no verdict).
type MetricDef = (String, String, bool, Option<f64>);

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if !(2..=3).contains(&args.len()) {
        eprintln!("usage: compare <base.out> <new.out> [BENCHMARK.json]");
        exit(2);
    }
    let bench_path = args.get(2).map_or("BENCHMARK.json", String::as_str);
    let metrics = metric_defs(bench_path).unwrap_or_else(|e| fail(&format!("{bench_path}: {e}")));
    let base = read_records(&args[0]).unwrap_or_else(|e| fail(&format!("{}: {e}", args[0])));
    let new = read_records(&args[1]).unwrap_or_else(|e| fail(&format!("{}: {e}", args[1])));
    let reference = &base
        .first()
        .or(new.first())
        .unwrap_or_else(|| fail("no records"))
        .host;
    for r in base.iter().chain(&new) {
        if let Some(why) = reference.other_machine(&r.host) {
            fail(&format!(
                "refusing to compare results from different machines: {why}"
            ));
        }
    }
    let score = |set: &[Record]| median(&set.iter().map(|r| r.host.score_ms()).collect::<Vec<_>>());
    if !base.is_empty() && !new.is_empty() {
        let (sb, sn) = (score(&base), score(&new));
        println!(
            "host: {} x{}, calibration score {sb:.2} ms (base) vs {sn:.2} ms (new)",
            reference.cpu_model, reference.nproc
        );
        if (sb - sn).abs() > SCORE_TOLERANCE * sb.min(sn) {
            fail(&format!(
                "refusing to compare: the host ran at a different speed (calibration {sb:.2} vs {sn:.2} ms)"
            ));
        }
    }
    for r in base.iter().chain(&new).filter(|r| !r.correct) {
        eprintln!(
            "note: {} seed {} failed its correctness checks and is left out",
            r.workload, r.seed
        );
    }

    let workloads: Vec<String> = {
        let mut w: Vec<String> = base
            .iter()
            .chain(&new)
            .map(|r| r.workload.clone())
            .collect();
        w.sort();
        w.dedup();
        w
    };
    let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
    println!(
        "{:<14} {:<30} {:>24} {:>24} {:>8} {:>13} {:>6}  verdict",
        "workload",
        "metric",
        "base median [q1, q3]",
        "new median [q1, q3]",
        "change",
        "spread b/n",
        "bound"
    );
    for w in &workloads {
        let (b, n) = (runs(&base, w), runs(&new, w));
        if b.is_empty() || n.is_empty() {
            println!(
                "{w:<14} (no runs in {} set)",
                if b.is_empty() { "base" } else { "new" }
            );
            continue;
        }
        for (name, unit, higher, bound) in &metrics {
            let values = |set: &[&Record]| -> Vec<f64> {
                set.iter()
                    .filter_map(|r| r.values.get(name).copied())
                    .collect()
            };
            let (bv, nv) = (values(&b), values(&n));
            if bv.is_empty() || nv.is_empty() {
                continue;
            }
            let label = match bound {
                Some(bound) => {
                    let v = verdict(&bv, &nv, *higher, *bound);
                    *counts.entry(v.label()).or_default() += 1;
                    v.label()
                }
                None => "-",
            };
            let show = |v: &[f64]| {
                let [q1, _, q3] = quartiles(v);
                format!("{} [{}, {}]", sig(median(v)), sig(q1), sig(q3))
            };
            let change = (median(&nv) / median(&bv) - 1.0) * 100.0;
            println!(
                "{w:<14} {:<30} {:>24} {:>24} {:>+7.1}% {:>6.3}/{:<6.3} {:>6}  {label}",
                format!("{name} ({unit})"),
                show(&bv),
                show(&nv),
                change,
                spread(&bv),
                spread(&nv),
                bound.map_or("-".to_string(), |b| b.to_string()),
            );
        }
    }
    let count = |v: Verdict| counts.get(v.label()).copied().unwrap_or(0);
    println!(
        "\n{} better, {} worse, {} unchanged, {} unresolved; runs per set: {} base, {} new",
        count(Verdict::Better),
        count(Verdict::Worse),
        count(Verdict::Unchanged),
        count(Verdict::Unresolved),
        base.len(),
        new.len()
    );
    let agree = count(Verdict::Better) + count(Verdict::Worse) + count(Verdict::Unresolved) == 0;
    println!(
        "{}",
        if agree {
            "the two sets agree within the bounds"
        } else if count(Verdict::Better) + count(Verdict::Worse) == 0 {
            "no metric is better or worse, but some spread wider than their bounds"
        } else {
            "the two sets differ"
        }
    );
}

/// The correct runs of workload `w`, ordered by seed so that the two
/// sets pair up run for run.
fn runs<'a>(set: &'a [Record], w: &str) -> Vec<&'a Record> {
    let mut v: Vec<&Record> = set
        .iter()
        .filter(|r| r.workload == w && r.correct)
        .collect();
    v.sort_by_key(|r| r.seed);
    v
}

fn fail(msg: &str) -> ! {
    eprintln!("compare: {msg}");
    exit(1)
}

/// Four significant digits.
fn sig(v: f64) -> String {
    let digits = (3 - v.abs().max(1e-12).log10().floor() as i32).clamp(0, 9) as usize;
    format!("{v:.digits$}")
}

/// The end-to-end metrics of `BENCHMARK.json` with their bounds, then
/// the unbounded per-layer values only the detail records carry.
fn metric_defs(path: &str) -> Result<Vec<MetricDef>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let json = parse(&text).map_err(|e| format!("{e:?}"))?;
    let e2e = json
        .as_object()
        .and_then(|o| o.get("end_to_end"))
        .and_then(Value::as_array)
        .ok_or("no end_to_end list")?;
    let mut defs = Vec::new();
    for m in e2e {
        let field = |k: &str| {
            m.as_object()
                .and_then(|o| o.get(k))
                .ok_or(format!("metric without {k}"))
        };
        let name = field("name")?
            .as_str()
            .ok_or("name is not a string")?
            .to_string();
        let unit = field("unit")?
            .as_str()
            .ok_or("unit is not a string")?
            .to_string();
        let higher = field("better")?.as_str() == Some("higher");
        let bound = field("bound")?.as_f64().ok_or("bound is not a number")?;
        defs.push((name, unit, higher, Some(bound)));
    }
    for (name, unit, higher) in RECORDED {
        defs.push((name.to_string(), unit.to_string(), higher, None));
    }
    Ok(defs)
}

fn read_records(path: &str) -> Result<Vec<Record>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let mut records = Vec::new();
    for line in text.lines().filter(|l| l.starts_with("{\"perfbench\"")) {
        let json = parse(line).map_err(|e| format!("{e:?}"))?;
        let rec = json
            .as_object()
            .and_then(|o| o.get("perfbench"))
            .and_then(Value::as_object)
            .ok_or("malformed detail record")?;
        if rec.get("trace").and_then(Value::as_bool) == Some(true) {
            continue;
        }
        let get = |k: &str| rec.get(k).ok_or(format!("detail record without {k}"));
        let host = get("host")?.as_object().ok_or("host is not an object")?;
        let hf = |k: &str| {
            host.get(k)
                .and_then(Value::as_f64)
                .ok_or(format!("host without {k}"))
        };
        records.push(Record {
            workload: get("workload")?
                .as_str()
                .ok_or("workload is not a string")?
                .to_string(),
            seed: get("seed")?.as_u64().ok_or("seed is not an integer")?,
            correct: get("correct")?
                .as_bool()
                .ok_or("correct is not a boolean")?,
            host: Host {
                cpu_model: host
                    .get("cpu")
                    .and_then(Value::as_str)
                    .unwrap_or("")
                    .to_string(),
                nproc: hf("nproc")? as usize,
                f128_mul_ns: hf("f128_mul_ns")?,
                modexp_us: hf("modexp_us")?,
            },
            values: get("values")?
                .as_object()
                .ok_or("values is not an object")?
                .iter()
                .filter_map(|(k, v)| v.as_f64().map(|x| (k.clone(), x)))
                .collect(),
        });
    }
    Ok(records)
}
