//! End-to-end benchmark of the LVF² pipeline.
//!
//! ```text
//! perfbench --workload <charlib|ssta_lvf2|ssta_pocv|serve_mix> --seed N \
//!           --seconds S --trace <0|1>
//! perfbench steady
//! ```
//!
//! A run prints the host fingerprint, the raw (unscaled) figures and the
//! failed ops by check, then, as its last line, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. See README.md.

mod charlib;
mod host;
mod refs;
mod serve;
mod ssta;
mod steady;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use host::{Meter, Span};
use trace::Layers;

/// Ops every run needs so that ten lie beyond its 90th percentile.
pub const MIN_OPS: usize = 100;

/// The workloads, in the order `steady` runs them.
pub const WORKLOADS: [&str; 4] = ["charlib", "ssta_lvf2", "ssta_pocv", "serve_mix"];

/// End-to-end metrics (name, unit), reported with `--trace 0`.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("work_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("binning_err", "prob"),
    ("yield3s_err", "prob"),
];

/// Per-layer metrics (name, unit), reported with `--trace 1`. A layer a
/// workload does not call reads 0 there.
pub const PER_LAYER: [(&str, &str); 38] = [
    ("mc.ms", "ms"),
    ("mc.share", "frac"),
    ("mc.samples", "count"),
    ("fit.ms", "ms"),
    ("fit.share", "frac"),
    ("fit.fits", "count"),
    ("fit.em_iters", "count"),
    ("fit.capped_frac", "frac"),
    ("fit.ll_floor_fails", "count"),
    ("liberty.write_ms", "ms"),
    ("liberty.write_share", "frac"),
    ("liberty.parse_ms", "ms"),
    ("liberty.parse_share", "frac"),
    ("liberty.bytes", "bytes"),
    ("ssta.build_ms", "ms"),
    ("ssta.build_share", "frac"),
    ("ssta.max_ms", "ms"),
    ("ssta.max_share", "frac"),
    ("ssta.max_calls", "count"),
    ("ssta.max_dominated_frac", "frac"),
    ("ssta.sum_ms", "ms"),
    ("ssta.sum_share", "frac"),
    ("ssta.sum_calls", "count"),
    ("binning.ms", "ms"),
    ("binning.share", "frac"),
    ("serve.job_ms", "ms"),
    ("serve.job_share", "frac"),
    ("serve.wait_ms", "ms"),
    ("serve.wait_share", "frac"),
    ("serve.rtt_warm_ms", "ms"),
    ("serve.rtt_cold_ms", "ms"),
    ("serve.cpu_ms_per_op", "ms"),
    ("serve.cache_hit_frac", "frac"),
    ("serve.store_bytes", "bytes"),
    ("unattributed_ms", "ms"),
    ("unattributed.share", "frac"),
    ("trace.total_ms", "ms"),
    ("trace.overhead_frac", "frac"),
];

/// One run's configuration.
pub struct Cfg {
    /// Input seed: netlists, held-out draws, daemon op order.
    pub seed: u64,
    /// Minimum length of the timed phase, in seconds (whole rounds). The
    /// op minimum usually binds first: one round of every workload already
    /// takes longer than `run_seconds` in `BENCHMARK.json`.
    pub seconds: f64,
    /// Whether to run the traced (per-layer) mode.
    pub trace: bool,
    /// Scratch directory inside the checkout (daemon stores).
    pub workdir: PathBuf,
}

/// What a workload run hands back.
#[derive(Default)]
pub struct Run {
    /// Per set-up repetition, the spans of its steps.
    pub setups: Vec<Vec<Span>>,
    /// One span per attempted op.
    pub ops: Vec<Span>,
    /// Timed-phase work that is not an op (charlib's library assembly).
    pub extra: Vec<Span>,
    /// Units of work done in the timed phase.
    pub work: f64,
    /// Peak RSS at the end of the timed phase.
    pub peak_rss_mb: f64,
    /// Failed ops per failing check.
    pub failed: BTreeMap<&'static str, u64>,
    /// Whole-run checks that did not hold (any makes the run incorrect).
    pub broken: Vec<String>,
    /// Per-model (or per-netlist) binning errors of the ops that passed.
    pub bin_errs: Vec<f64>,
    /// Per-model (or per-netlist) 3σ-yield errors of the ops that passed.
    pub y3_errs: Vec<f64>,
    /// The traced run's layers.
    pub layers: Option<Layers>,
}

impl Run {
    /// Records a whole-run check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.broken.push(what());
        }
    }
}

fn arg<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn json_num(v: f64) -> String {
    assert!(v.is_finite(), "metric value {v} is not finite");
    format!("{v}")
}

fn metrics_json(metrics: &[(&str, &str, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, u, v)| format!("\"{n}\":{{\"value\":{},\"unit\":\"{u}\"}}", json_num(*v)))
        .collect();
    format!("{{{}}}", body.join(","))
}

fn run_workload(args: &[String]) -> Result<(), String> {
    let workload = arg(args, "--workload").ok_or("missing --workload")?;
    let seed: u64 = arg(args, "--seed")
        .ok_or("missing --seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = arg(args, "--seconds")
        .unwrap_or("3")
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    let trace = match arg(args, "--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    let workdir = PathBuf::from(".perfbench-work");
    let cfg = Cfg {
        seed,
        seconds,
        trace,
        workdir,
    };
    let meter = Meter::new();
    let host = host::fingerprint(&meter);
    let body: Vec<String> = host
        .iter()
        .map(|(k, v)| format!("\"{k}\":\"{}\"", v.replace('"', "'")))
        .collect();
    println!("host {{{}}}", body.join(","));

    let run = match workload {
        "charlib" => charlib::run(&cfg, &meter),
        "ssta_lvf2" => ssta::run(&cfg, &meter, ssta::Family::Lvf2),
        "ssta_pocv" => ssta::run(&cfg, &meter, ssta::Family::Pocv),
        "serve_mix" => serve::run(&cfg, &meter),
        other => return Err(format!("unknown workload `{other}`")),
    }?;
    let _ = std::fs::remove_dir(&cfg.workdir);

    let attempted = run.ops.len() as u64;
    let failed: u64 = run.failed.values().sum();
    let op_ms: Vec<f64> = run.ops.iter().map(|s| s.scaled() * 1e3).collect();
    let raw_ms: Vec<f64> = run.ops.iter().map(|s| s.wall * 1e3).collect();
    let timed_s: f64 = run.ops.iter().chain(&run.extra).map(Span::scaled).sum();
    let raw_s: f64 = run.ops.iter().chain(&run.extra).map(|s| s.wall).sum();
    let setup = refs::median(
        &run.setups
            .iter()
            .map(|steps| host::scaled_total(steps))
            .collect::<Vec<_>>(),
    );
    let setup_raw = refs::median(
        &run.setups
            .iter()
            .map(|steps| steps.iter().map(|s| s.wall).sum())
            .collect::<Vec<_>>(),
    );
    let mean = |v: &[f64]| {
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    let e2e = [
        setup,
        run.work / timed_s,
        refs::percentile(&op_ms, 0.5)?,
        refs::percentile(&op_ms, 0.9)?,
        run.peak_rss_mb,
        mean(&run.bin_errs),
        mean(&run.y3_errs),
    ];
    let raw = [
        ("setup_s", setup_raw),
        ("work_per_s", run.work / raw_s),
        ("op_p50_ms", refs::percentile(&raw_ms, 0.5)?),
        ("op_p90_ms", refs::percentile(&raw_ms, 0.9)?),
    ];
    println!(
        "raw {{{}}}",
        raw.iter()
            .map(|(n, v)| format!("\"{n}\":{}", json_num(*v)))
            .collect::<Vec<_>>()
            .join(",")
    );
    println!(
        "failed_checks {{{}}}",
        run.failed
            .iter()
            .map(|(k, v)| format!("\"{k}\":{v}"))
            .collect::<Vec<_>>()
            .join(",")
    );
    for b in &run.broken {
        println!("broken {b}");
    }
    let metrics: Vec<(&str, &str, f64)> = if trace {
        let layers = run.layers.as_ref().ok_or("traced run produced no layers")?;
        let m = layers.metrics();
        PER_LAYER
            .iter()
            .map(|&(n, u)| (n, u, m.get(n).copied().unwrap_or(0.0)))
            .collect()
    } else {
        END_TO_END
            .iter()
            .zip(e2e)
            .map(|(&(n, u), v)| (n, u, v))
            .collect()
    };
    println!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{}}}",
        run.broken.is_empty(),
        metrics_json(&metrics)
    );
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = if args == ["steady"] {
        steady::run()
    } else {
        run_workload(&args)
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
