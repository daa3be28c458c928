//! `charlib`: in-process characterization of arcs 0–3 of all 25 cell types
//! (100 arcs, 3×3 grid, 2000 MC samples per condition), then library
//! assembly, Liberty write and parse-back. One op is one arc.
//!
//! Also home of the characterization helpers the other workloads share:
//! the decomposed (traced) arc characterization, the EM log-likelihood
//! floor, the held-out Monte-Carlo accuracy and the Liberty round trip.

use std::time::Instant;

use lvf2::cells::{
    characterize_arc_par_in, condition_arc, ArcCharacterization, CellType, SlewLoadGrid,
    TimingArcSpec,
};
use lvf2::fit::fit_lvf2_batch;
use lvf2::flow::{characterize_arc_models, library_from_models, ArcModelGrids, FlowOptions};
use lvf2::liberty::{parse_library, write_library, BaseKind, Library, TimingModelGrid};
use lvf2::mc::McEngine;
use lvf2::parallel::Parallelism;
use lvf2::stats::{Distribution, Lvf2};
use lvf2::Lvf2Error;

use crate::host::{scaled_total, Meter, Span};
use crate::refs::{self, RefDist, Sn};
use crate::trace::Layers;
use crate::{Cfg, Run, MIN_OPS};

/// Log-likelihood slack (nats) below the Gaussian floor that still passes.
pub const LL_SLACK: f64 = 1.0;

/// Held-out reference samples per condition, as a multiple of the fit's.
pub const HELD_OUT_FACTOR: usize = 10;

/// A fitted model whose σ-bin probabilities miss the held-out reference by
/// more than this (mean absolute error over the eight bins) is broken.
/// Healthy 2000-sample fits of this library stay below ~0.055, so the
/// limit sits far from any seed-to-seed jitter of the reference.
pub const BIN_ERR_LIMIT: f64 = 0.15;

/// Arcs per cell type in the job list.
const ARCS_PER_CELL: usize = 4;

/// The flow configuration every characterization in the benchmark uses:
/// the 3×3 grid at the flow's default 2000 samples, on `threads` threads.
pub fn flow_options(threads: usize) -> FlowOptions {
    FlowOptions::builder()
        .samples(2000)
        .grid(SlewLoadGrid::small_3x3())
        .parallelism(Parallelism::serial().with_threads(threads))
        .build()
        .expect("benchmark flow options are valid")
}

/// The fixed job list: arcs 0–3 of every cell type, in `CellType::ALL`
/// order (op id = 4 · cell index + arc index).
pub fn jobs() -> Vec<TimingArcSpec> {
    CellType::ALL
        .iter()
        .flat_map(|&c| (0..ARCS_PER_CELL).map(move |k| TimingArcSpec::of(c, k)))
        .collect()
}

/// The program's LVF² model as a reference distribution.
pub fn to_ref(m: &Lvf2) -> RefDist {
    let sn = |s: &lvf2::stats::SkewNormal| Sn {
        xi: s.xi(),
        omega: s.omega(),
        alpha: s.alpha(),
    };
    RefDist::Lvf2 {
        lambda: m.lambda(),
        a: sn(m.first()),
        b: sn(m.second()),
    }
}

/// `characterize_arc_models`, decomposed into its public layer calls
/// (`cells` Monte Carlo, then one batched `fit` run) with each layer timed.
/// Must reproduce the flow's result bit for bit.
pub fn characterize_traced(
    spec: &TimingArcSpec,
    opts: &FlowOptions,
    layers: &mut Layers,
    factor: f64,
) -> Result<ArcModelGrids, Lvf2Error> {
    let (rows, cols) = (opts.grid.slews().len(), opts.grid.loads().len());
    let ch = layers.time("mc.ms", factor, || {
        characterize_arc_par_in(
            &opts.variation,
            spec,
            &opts.grid,
            opts.samples,
            &opts.parallelism,
        )
    });
    layers.count("mc.samples", (rows * cols * opts.samples) as f64);
    let mut entries: Vec<&[f64]> = Vec::with_capacity(2 * rows * cols);
    for pick in 0..2 {
        for i in 0..rows {
            for j in 0..cols {
                let c = ch.at(i, j);
                entries.push(if pick == 0 { &c.delays } else { &c.transitions });
            }
        }
    }
    let fitted = layers.time("fit.ms", factor, || {
        fit_lvf2_batch(&entries, &opts.fit, &opts.parallelism)
    })?;
    layers.count("fit.fits", fitted.len() as f64);
    for f in &fitted {
        layers.count("fit.em_iters", f.report.iterations as f64);
        if !f.report.converged && f.report.iterations >= opts.fit.max_iterations {
            layers.count("fit.capped", 1.0);
        }
    }
    let entry_fits = fitted.len();
    let nonconverged_fits = fitted.iter().filter(|f| !f.report.converged).count();
    let mut models = fitted.into_iter().map(|f| f.model);
    let mut grid = |base: BaseKind, pick: usize| TimingModelGrid {
        base,
        index_1: opts.grid.slews().to_vec(),
        index_2: opts.grid.loads().to_vec(),
        nominal: (0..rows)
            .map(|i| {
                (0..cols)
                    .map(|j| {
                        let c = ch.at(i, j);
                        lvf2::stats::sample_mean(if pick == 0 { &c.delays } else { &c.transitions })
                    })
                    .collect()
            })
            .collect(),
        models: (0..rows)
            .map(|_| {
                (0..cols)
                    .map(|_| models.next().expect("one fit per entry"))
                    .collect()
            })
            .collect(),
    };
    let delay = grid(BaseKind::CellRise, 0);
    let transition = grid(BaseKind::RiseTransition, 1);
    Ok(ArcModelGrids {
        spec: *spec,
        delay,
        transition,
        entry_fits,
        nonconverged_fits,
    })
}

/// Both fitted grids of an arc with their training samples, in the flow's
/// entry order `(pick, i, j)`.
fn entries<'a>(
    m: &'a ArcModelGrids,
    ch: &'a ArcCharacterization,
) -> impl Iterator<Item = (&'a Lvf2, &'a [f64])> + 'a {
    (0..2).flat_map(move |pick| {
        (0..ch.rows).flat_map(move |i| {
            (0..ch.cols).map(move |j| {
                let c = ch.at(i, j);
                if pick == 0 {
                    (&m.delay.models[i][j], c.delays.as_slice())
                } else {
                    (&m.transition.models[i][j], c.transitions.as_slice())
                }
            })
        })
    })
}

/// The EM floor: fits whose log-likelihood on their own training samples
/// (regenerated with the flow's seeds) falls below the moment-matched
/// Gaussian's by more than [`LL_SLACK`]. Returns the count of such fits.
pub fn em_floor_failures(m: &ArcModelGrids, opts: &FlowOptions) -> usize {
    let ch = characterize_arc_par_in(
        &opts.variation,
        &m.spec,
        &opts.grid,
        opts.samples,
        &Parallelism::serial(),
    );
    let mut fails = 0;
    for (k, (model, xs)) in entries(m, &ch).enumerate() {
        let (ll, floor) = (
            to_ref(model).log_likelihood(xs),
            refs::gaussian_floor_ll(xs),
        );
        if ll < floor - LL_SLACK {
            let (table, i, j) = (["cell_rise", "rise_transition"][k / 9], k % 9 / 3, k % 3);
            eprintln!(
                "em_floor: {} {table} ({i},{j}): log-likelihood {ll:.1} < Gaussian {floor:.1}",
                m.spec
            );
            fails += 1;
        }
    }
    fails
}

/// Held-out Monte Carlo: per fitted model, `(binning error, 3σ-yield
/// error)` against a fresh draw of [`HELD_OUT_FACTOR`]× the samples, seeded
/// from the workload seed rather than from the flow's condition seed.
pub fn held_out(m: &ArcModelGrids, opts: &FlowOptions, seed: u64) -> Vec<(f64, f64)> {
    let base = m.spec.synthesize();
    let mut out = Vec::with_capacity(2 * opts.grid.len());
    let mut delays = Vec::new();
    let mut transitions = Vec::new();
    for (i, j, slew, load) in opts.grid.iter() {
        let engine = McEngine::new(
            opts.variation,
            HELD_OUT_FACTOR * opts.samples,
            refs::derive(seed, &[m.spec.mc_seed(), i as u64, j as u64]),
        )
        .with_parallelism(Parallelism::serial());
        let r = engine.simulate(&condition_arc(&base, i, j), slew, load);
        delays.push(refs::accuracy(|x| m.delay.models[i][j].cdf(x), &r.delays));
        transitions.push(refs::accuracy(
            |x| m.transition.models[i][j].cdf(x),
            &r.transitions,
        ));
    }
    out.extend(delays);
    out.extend(transitions);
    out
}

/// The Liberty round trip: the parsed library must carry every table the
/// writer was given, value for value (the writer prints shortest
/// round-trip decimals), and decode to the fitted models.
pub fn round_trip(models: &[ArcModelGrids], lib: &Library, parsed: &Library) -> Result<(), String> {
    if parsed.cells.len() != lib.cells.len() {
        return Err(format!(
            "liberty round trip: {} cells written, {} parsed",
            lib.cells.len(),
            parsed.cells.len()
        ));
    }
    for ((m, a), b) in models.iter().zip(&lib.cells).zip(&parsed.cells) {
        let (ta, tb) = (&a.pins[0].timings[0], &b.pins[0].timings[0]);
        if a.name != b.name || ta.tables != tb.tables {
            return Err(format!("liberty round trip: cell {} changed", a.name));
        }
        for (grid, base) in [
            (&m.delay, BaseKind::CellRise),
            (&m.transition, BaseKind::RiseTransition),
        ] {
            let back = TimingModelGrid::from_timing(tb, base).map_err(|e| e.to_string())?;
            for (orig, got) in grid
                .models
                .iter()
                .flatten()
                .zip(back.models.iter().flatten())
            {
                let sd = orig.std_dev();
                let same = |x: f64, y: f64| (x - y).abs() <= 1e-9 * sd.max(x.abs());
                let ok = same(orig.mean(), got.mean())
                    && same(orig.std_dev(), got.std_dev())
                    && (orig.lambda() - got.lambda()).abs() <= 1e-12
                    && same(orig.first().mean(), got.first().mean())
                    && same(orig.second().mean(), got.second().mean());
                if !ok {
                    return Err(format!(
                        "liberty round trip: a {} model of {} decodes differently",
                        base.stem(),
                        a.name
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Runs the workload.
pub fn run(cfg: &Cfg, meter: &Meter) -> Result<Run, String> {
    let mut run = Run::default();
    let setup = || {
        let jobs = jobs();
        for spec in &jobs {
            std::hint::black_box(spec.synthesize());
        }
        (jobs, flow_options(1))
    };
    let ((jobs, opts), span) = meter.time(setup);
    run.setups.push(vec![span]);

    // Timed phase: whole rounds of the 100 arcs, then the library. The
    // set-up takes microseconds, a single moment of the host's speed; it is
    // repeated after every op, outside the op, so that `setup_s` is the
    // median over the whole run.
    let start = Instant::now();
    let mut first: Option<(Vec<ArcModelGrids>, Library, String)> = None;
    let mut rounds = 0usize;
    while rounds == 0 || start.elapsed().as_secs_f64() < cfg.seconds || run.ops.len() < MIN_OPS {
        let mut models = Vec::with_capacity(jobs.len());
        for spec in &jobs {
            let (m, span) = meter.time(|| characterize_arc_models(spec, &opts));
            run.ops.push(span);
            let (again, span) = meter.time(setup);
            run.setups.push(vec![span]);
            std::hint::black_box(again);
            models.push(m.map_err(|e| format!("{spec}: {e}"))?);
        }
        let ((lib, text, parsed), span) = meter.time(|| {
            let lib = library_from_models(&models, &opts.grid);
            let text = write_library(&lib);
            let parsed = parse_library(&text);
            (lib, text, parsed)
        });
        run.extra.push(span);
        let parsed = parsed.map_err(|e| format!("parse_library: {e}"))?;
        run.work += jobs.len() as f64;
        match &first {
            None => {
                let rt = round_trip(&models, &lib, &parsed);
                run.check(rt.is_ok(), || rt.unwrap_err());
                first = Some((models, lib, text));
            }
            Some((m0, _, t0)) => {
                run.check(*m0 == models && *t0 == text, || {
                    format!("round {rounds} differs from round 0")
                });
            }
        }
        rounds += 1;
    }
    run.peak_rss_mb = crate::host::peak_rss_mb();
    let (models, _, _) = first.expect("at least one round");

    if cfg.trace {
        let mut layers = Layers::default();
        let mut traced_spans = Vec::new();
        let untraced = scaled_total(&run.ops) + scaled_total(&run.extra);
        for _ in 0..rounds {
            let mut back = Vec::with_capacity(jobs.len());
            for spec in &jobs {
                let (m, span) = meter.time_f(|f| characterize_traced(spec, &opts, &mut layers, f));
                traced_spans.push(span);
                back.push(m.map_err(|e| e.to_string())?);
            }
            let (bytes, span) = meter.time_f(|f| {
                let text = layers.time("liberty.write_ms", f, || {
                    write_library(&library_from_models(&back, &opts.grid))
                });
                let parsed = layers.time("liberty.parse_ms", f, || parse_library(&text));
                std::hint::black_box(parsed.map(|p| p.cells.len()).ok());
                text.len()
            });
            traced_spans.push(span);
            layers.set("liberty.bytes", bytes as f64);
            run.check(back == models, || {
                "traced decomposition differs from characterize_arc_models".into()
            });
        }
        layers.total_s = traced_spans.iter().map(Span::scaled).sum();
        layers.set(
            "trace.overhead_frac",
            scaled_total(&traced_spans) / untraced - 1.0,
        );
        run.layers = Some(layers);
    }

    // Verification: the EM floor and the held-out reference per arc.
    let mut floor_fails = 0usize;
    let mut failed_ops = 0u64;
    for m in &models {
        let fails = em_floor_failures(m, &opts);
        floor_fails += fails;
        if fails > 0 {
            failed_ops += 1;
            continue;
        }
        let acc = held_out(m, &opts, cfg.seed);
        if acc.iter().any(|&(b, _)| b > BIN_ERR_LIMIT) {
            *run.failed.entry("held_out_mc").or_insert(0) += rounds as u64;
            continue;
        }
        for (b, y) in acc {
            run.bin_errs.push(b);
            run.y3_errs.push(y);
        }
    }
    if failed_ops > 0 {
        run.failed.insert("em_floor", failed_ops * rounds as u64);
    }
    if let Some(l) = run.layers.as_mut() {
        l.set("fit.ll_floor_fails", floor_fails as f64);
    }

    // The parallel layer: one arc at two threads, bit-identical.
    let two = characterize_arc_models(&jobs[0], &flow_options(2)).map_err(|e| e.to_string())?;
    run.check(two == models[0], || {
        "2-thread characterization differs from serial".into()
    });
    Ok(run)
}
