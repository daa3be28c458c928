//! `serve_mix`: an in-process `lvf2-serve` daemon on loopback TCP (one
//! worker, serial execution, fresh store) driven by one client connection
//! in a closed loop.
//!
//! A round submits one `characterize` job (arc 0, 3×3 grid, 2000 samples)
//! per op: every cell type five times in a seeded order, so each cell's
//! first op is cold (MC + EM + store append) and the other four are warm
//! (answered by the cache) — 20% cold, 80% warm, whatever the seed.

use std::cell::Cell;
use std::path::Path;
use std::time::Instant;

use lvf2::cells::{CellType, TimingArcSpec};
use lvf2::flow::{characterize_arc_models, library_from_models};
use lvf2::liberty::write_library;
use lvf2::obs::json::{self, Value};
use lvf2::parallel::Parallelism;
use lvf2_serve::{Client, Response, Server, ServerConfig};

use crate::charlib::{em_floor_failures, flow_options, held_out, BIN_ERR_LIMIT};
use crate::host::{scaled_total, Meter};
use crate::refs::{self, Rng};
use crate::trace::Layers;
use crate::{Cfg, Run};

/// Submissions of each cell type per round (one cold, the rest warm).
const REPEATS: usize = 5;

/// The round's op order: every cell `REPEATS` times, shuffled by `seed`.
fn op_order(seed: u64) -> Vec<CellType> {
    let mut order: Vec<CellType> = CellType::ALL
        .iter()
        .flat_map(|&c| std::iter::repeat_n(c, REPEATS))
        .collect();
    let mut rng = Rng::new(refs::derive(seed, &[3]));
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i + 1));
    }
    order
}

fn job(cell: CellType) -> Value {
    json::parse(&format!(
        r#"{{"type":"characterize","cells":["{}"],"options":{{"samples":2000,"grid":"3x3"}}}}"#,
        cell.name()
    ))
    .expect("job literal parses")
}

fn stat(resp: &Response, name: &str) -> f64 {
    resp.stats
        .get(name)
        .and_then(Value::as_f64)
        .unwrap_or(f64::NAN)
}

/// A running daemon with a fresh store and one connected client.
struct Daemon {
    server: Server,
    client: Client,
    dir: std::path::PathBuf,
}

impl Daemon {
    fn start(workdir: &Path, n: usize) -> Result<Daemon, String> {
        let dir = workdir.join(format!("store-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let server = Server::spawn(
            ServerConfig::default()
                .with_addr("127.0.0.1:0")
                .with_workers(1)
                .with_parallelism(Parallelism::serial())
                .with_store_dir(dir.to_str().ok_or("non-UTF-8 store path")?),
        )
        .map_err(|e| format!("daemon: {e}"))?;
        let client =
            Client::connect(&server.addr().to_string()).map_err(|e| format!("connect: {e}"))?;
        Ok(Daemon {
            server,
            client,
            dir,
        })
    }

    fn store_bytes(&self) -> u64 {
        std::fs::read_dir(&self.dir)
            .map(|it| {
                it.filter_map(Result::ok)
                    .filter_map(|e| e.metadata().ok())
                    .map(|m| m.len())
                    .sum()
            })
            .unwrap_or(0)
    }

    fn stop(mut self) -> Result<(), String> {
        self.client
            .shutdown()
            .map_err(|e| format!("shutdown: {e}"))?;
        self.server.join();
        std::fs::remove_dir_all(&self.dir).map_err(|e| format!("{}: {e}", self.dir.display()))
    }
}

/// One op's response, kept for verification.
struct Answer {
    cell: CellType,
    cold: bool,
    library: String,
    hits: f64,
    misses: f64,
}

/// Runs the workload.
pub fn run(cfg: &Cfg, meter: &Meter) -> Result<Run, String> {
    let mut run = Run::default();
    let order = op_order(cfg.seed);
    let daemons = Cell::new(0usize);
    let start_daemon = || {
        daemons.set(daemons.get() + 1);
        Daemon::start(&cfg.workdir, daemons.get())
    };
    // Set-up: start a daemon and connect; it serves the first round.
    let (daemon, span) = meter.time(start_daemon);
    run.setups.push(vec![span]);
    let mut daemon = Some(daemon?);

    // A daemon start takes a fraction of a millisecond, mostly in the OS,
    // whose speed shifts by up to 2x for seconds at a time apart from the
    // reference kernel's. So the timed phase repeats the set-up after every
    // op, outside the op (a spare daemon, started and stopped), and
    // `setup_s` is the median over the whole run, not over one moment.
    let round = |d: &mut Daemon, run: &mut Run, mut layers: Option<&mut Layers>| {
        let mut seen = Vec::new();
        let mut answers = Vec::with_capacity(order.len());
        for &cell in &order {
            let cold = !seen.contains(&cell);
            seen.push(cell);
            let (resp, span) = meter.time(|| d.client.call(job(cell)));
            run.ops.push(span);
            run.work += 1.0;
            if layers.is_none() {
                let (spare, span) = meter.time(start_daemon);
                run.setups.push(vec![span]);
                spare?.stop()?;
            }
            let resp = resp.map_err(|e| format!("{cell}: {e}"))?;
            if let Some(l) = layers.as_deref_mut() {
                let rtt = span.scaled();
                let job_s = stat(&resp, "wall_us") * 1e-6 * span.factor();
                l.charge("serve.job_ms", job_s);
                l.charge("serve.wait_ms", rtt - job_s);
                l.count("serve.cpu_s", span.cpu * span.factor());
                l.count(
                    if cold {
                        "serve.rtt_cold_s"
                    } else {
                        "serve.rtt_warm_s"
                    },
                    rtt,
                );
                l.count(
                    if cold {
                        "serve.cold_ops"
                    } else {
                        "serve.warm_ops"
                    },
                    1.0,
                );
            }
            answers.push(Answer {
                cell,
                cold,
                library: resp
                    .result
                    .get("library")
                    .and_then(Value::as_str)
                    .ok_or("characterize returned no library")?
                    .to_string(),
                hits: stat(&resp, "cache_hits"),
                misses: stat(&resp, "cache_misses"),
            });
        }
        Ok::<_, String>(answers)
    };

    // Timed phase: whole rounds, each against a fresh daemon and store.
    let start = Instant::now();
    let mut answers = Vec::new();
    let mut rounds = 0usize;
    while rounds == 0
        || start.elapsed().as_secs_f64() < cfg.seconds
        || run.ops.len() < crate::MIN_OPS
    {
        let mut d = match daemon.take() {
            Some(d) => d,
            None => start_daemon()?,
        };
        answers.extend(round(&mut d, &mut run, None)?);
        d.stop()?;
        rounds += 1;
    }
    run.peak_rss_mb = crate::host::peak_rss_mb();

    if cfg.trace {
        let mut layers = Layers::default();
        let untraced = scaled_total(&run.ops);
        let timed_ops = run.ops.len();
        let (mut setup_spans, mut op_spans) = (Vec::new(), Vec::new());
        for _ in 0..rounds {
            let (d, span) = meter.time(start_daemon);
            setup_spans.push(span);
            let mut d = d?;
            let mut scratch = Run::default();
            round(&mut d, &mut scratch, Some(&mut layers))?;
            op_spans.extend(scratch.ops);
            let m = d.client.metrics().map_err(|e| format!("metrics: {e}"))?;
            let cache = m.result.get("cache");
            let field = |k| {
                cache
                    .and_then(|c| c.get(k))
                    .and_then(Value::as_f64)
                    .unwrap_or(0.0)
            };
            layers.count("serve.hits", field("hits"));
            layers.count("serve.lookups", field("hits") + field("misses"));
            layers.set("serve.store_bytes", d.store_bytes() as f64);
            d.stop()?;
        }
        layers.total_s = setup_spans
            .iter()
            .chain(&op_spans)
            .map(|s| s.scaled())
            .sum();
        let v = |name: &str| layers.value(name);
        let warm = v("serve.rtt_warm_s") * 1e3 / v("serve.warm_ops");
        let cold = v("serve.rtt_cold_s") * 1e3 / v("serve.cold_ops");
        let cpu = v("serve.cpu_s") * 1e3 / timed_ops as f64;
        let hit_frac = v("serve.hits") / v("serve.lookups");
        let overhead = scaled_total(&op_spans) / untraced - 1.0;
        layers.set("serve.rtt_warm_ms", warm);
        layers.set("serve.rtt_cold_ms", cold);
        layers.set("serve.cpu_ms_per_op", cpu);
        layers.set("serve.cache_hit_frac", hit_frac);
        layers.set("trace.overhead_frac", overhead);
        run.layers = Some(layers);
    }

    // Verification: the in-process flow's bytes, cache semantics, the EM
    // floor and the held-out reference per cell.
    let opts = flow_options(1);
    // Per cell: the in-process library text and the models' failing
    // check, if any.
    let mut reference: Vec<(CellType, String, Option<&'static str>)> = Vec::new();
    for &cell in &CellType::ALL {
        let m = characterize_arc_models(&TimingArcSpec::of(cell, 0), &opts)
            .map_err(|e| e.to_string())?;
        let text = write_library(&library_from_models(std::slice::from_ref(&m), &opts.grid));
        let mut fault = (em_floor_failures(&m, &opts) > 0).then_some("em_floor");
        if fault.is_none() {
            let acc = held_out(&m, &opts, cfg.seed);
            if acc.iter().any(|&(b, _)| b > BIN_ERR_LIMIT) {
                fault = Some("held_out_mc");
            } else {
                for (b, y) in acc {
                    run.bin_errs.push(b);
                    run.y3_errs.push(y);
                }
            }
        }
        reference.push((cell, text, fault));
    }
    for a in &answers {
        let (_, text, fault) = reference
            .iter()
            .find(|r| r.0 == a.cell)
            .expect("every cell has a reference");
        let cache_ok = if a.cold {
            a.misses > 0.0 && a.hits == 0.0
        } else {
            a.misses == 0.0 && a.hits > 0.0
        };
        let check = if a.library != *text {
            Some("daemon_bytes")
        } else if !cache_ok {
            Some("cache_semantics")
        } else {
            *fault
        };
        if let Some(c) = check {
            *run.failed.entry(c).or_insert(0) += 1;
        }
    }
    Ok(run)
}
