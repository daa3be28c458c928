//! `perfbench steady`: runs two sets of ten runs of every workload (a
//! fresh seed per run, at `run_seconds` from `BENCHMARK.json`) and prints,
//! per metric and workload, each set's median and quartiles, scaled and
//! raw, and whether the two sets agree within the bounds in
//! `BENCHMARK.json`:
//!
//! - the spread `(q3 − q1) / median` of each set stays within the bound;
//! - the two sets' medians differ by no more than the bound, in either
//!   direction;
//! - the share of failed ops is exactly the same in every run.
//!
//! Run it from the repository root, where `BENCHMARK.json` lives.

use std::collections::BTreeMap;
use std::process::Command;

use lvf2::obs::json::{self, Value};

use crate::refs::{median, quartiles};

/// Sets of runs compared.
const SETS: u64 = 2;

/// Runs per set.
const RUNS: u64 = 10;

/// One run's parsed output.
struct Sample {
    scaled: BTreeMap<String, f64>,
    raw: BTreeMap<String, f64>,
    failed_share: (u64, u64),
}

fn parse_obj_line(line: &str) -> Result<BTreeMap<String, f64>, String> {
    let v = json::parse(line)?;
    Ok(v.as_obj()
        .ok_or("expected an object")?
        .iter()
        .filter_map(|(k, v)| v.as_f64().map(|x| (k.clone(), x)))
        .collect())
}

fn one_run(workload: &str, seed: u64, seconds: u64) -> Result<Sample, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", "0"])
        .output()
        .map_err(|e| e.to_string())?;
    let text = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "{workload} seed {seed} exited {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let last = text.lines().last().ok_or("no output")?;
    let result = json::parse(last)?;
    if result.get("correct") != Some(&Value::Bool(true)) {
        return Err(format!(
            "{workload} seed {seed}: correct is not true:\n{text}"
        ));
    }
    let num = |k: &str| result.get(k).and_then(Value::as_f64).unwrap_or(-1.0) as u64;
    let scaled = result
        .get("metrics")
        .and_then(Value::as_obj)
        .ok_or("no metrics")?
        .iter()
        .filter_map(|(k, v)| {
            v.get("value")
                .and_then(Value::as_f64)
                .map(|x| (k.clone(), x))
        })
        .collect();
    let raw = text
        .lines()
        .find_map(|l| l.strip_prefix("raw "))
        .map(parse_obj_line)
        .transpose()?
        .unwrap_or_default();
    Ok(Sample {
        scaled,
        raw,
        failed_share: (num("failed"), num("attempted")),
    })
}

/// The end-to-end metrics' bounds and `run_seconds` from `BENCHMARK.json`.
fn bounds() -> Result<(BTreeMap<String, f64>, u64), String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    let doc = json::parse(&text)?;
    let mut out = BTreeMap::new();
    if let Some(Value::Arr(items)) = doc.get("end_to_end") {
        for m in items {
            let name = m.get("name").and_then(Value::as_str).unwrap_or_default();
            let bound = m.get("bound").and_then(Value::as_f64).unwrap_or(0.0);
            out.insert(name.to_string(), bound);
        }
    }
    let seconds = doc
        .get("run_seconds")
        .and_then(Value::as_f64)
        .ok_or("BENCHMARK.json has no run_seconds")? as u64;
    Ok((out, seconds))
}

/// `x` to six significant digits (set-up times run from microseconds to
/// seconds).
fn sig(x: f64) -> String {
    if !x.is_finite() || x == 0.0 {
        return format!("{x}");
    }
    let decimals = (5 - x.abs().log10().floor() as i32).max(0) as usize;
    format!("{x:.decimals$}")
}

fn summary(values: &[f64]) -> (f64, f64, f64, f64) {
    let med = median(values);
    let q = if values.len() >= 2 {
        quartiles(values)
    } else {
        [med; 3]
    };
    (med, q[0], q[2], (q[2] - q[0]) / med.abs())
}

/// Runs the steadiness check.
pub fn run() -> Result<(), String> {
    let (bounds, seconds) = bounds()?;
    let mut all_ok = true;
    for workload in crate::WORKLOADS {
        let mut per_set: Vec<Vec<Sample>> = Vec::new();
        for set in 0..SETS {
            let mut samples = Vec::new();
            for r in 0..RUNS {
                let seed = 1 + 1000 * set + r;
                let s = one_run(workload, seed, seconds)?;
                eprintln!("{workload} set {set} seed {seed}: {:?}", s.scaled);
                samples.push(s);
            }
            per_set.push(samples);
        }
        println!("== {workload}: {SETS} sets x {RUNS} runs, --seconds {seconds}");
        println!(
            "{:<12} {:>4} {:>14} {:>14} {:>14} {:>8} {:>14} {:>14} {:>14}",
            "metric", "set", "median", "q1", "q3", "spread", "raw median", "raw q1", "raw q3"
        );
        for (name, &bound) in &bounds {
            let mut medians = Vec::new();
            let mut verdict = String::new();
            for (set, samples) in per_set.iter().enumerate() {
                let v: Vec<f64> = samples
                    .iter()
                    .filter_map(|s| s.scaled.get(name).copied())
                    .collect();
                let raw: Vec<f64> = samples
                    .iter()
                    .filter_map(|s| s.raw.get(name).copied())
                    .collect();
                if v.is_empty() {
                    continue;
                }
                let (med, q1, q3, spread) = summary(&v);
                let (raw_med, raw_q1, raw_q3, _) = if raw.is_empty() {
                    (f64::NAN, f64::NAN, f64::NAN, f64::NAN)
                } else {
                    summary(&raw)
                };
                if spread > bound {
                    verdict.push_str(&format!(" set{set}-spread>{bound:.3}"));
                }
                println!(
                    "{name:<12} {set:>4} {:>14} {:>14} {:>14} {spread:>8.4} {:>14} {:>14} {:>14}",
                    sig(med),
                    sig(q1),
                    sig(q3),
                    sig(raw_med),
                    sig(raw_q1),
                    sig(raw_q3)
                );
                medians.push(med);
            }
            if let [m0, m1] = medians[..] {
                let change = (m1 - m0) / m0.abs();
                if change.abs() > bound {
                    verdict.push_str(&format!(" medians-differ-by-{change:+.3}"));
                }
                println!("{name:<12} drift {change:+.4} (bound {bound:.3})");
            } else {
                verdict.push_str(" missing-in-a-set");
            }
            all_ok &= verdict.is_empty();
            println!(
                "{name:<12} verdict {}",
                if verdict.is_empty() {
                    "agree".into()
                } else {
                    verdict
                }
            );
        }
        let shares: Vec<(u64, u64)> = per_set.iter().flatten().map(|s| s.failed_share).collect();
        let same = shares
            .iter()
            .all(|&(f, a)| f * shares[0].1 == shares[0].0 * a);
        all_ok &= same;
        println!(
            "failed/attempted {:?} -> {}",
            shares,
            if same { "same share" } else { "SHARES DIFFER" }
        );
    }
    println!("STEADY: {}", if all_ok { "yes" } else { "no" });
    Ok(())
}
