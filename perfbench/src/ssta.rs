//! `ssta_lvf2` and `ssta_pocv`: block-based SSTA over seeded `NetlistGen`
//! netlists whose gate-pin delays come from a characterized Liberty
//! library, then binning of the circuit delay.
//!
//! Set-up characterizes arc 0 of every cell type the generator uses, writes
//! the library and parses it back. `ssta_lvf2` reads each pin delay as the
//! LVF² `cell_rise` model; `ssta_pocv` reads the POCV view of the same
//! tables (Gaussian: nominal + `ocv_mean_shift`, `ocv_std_dev`). One op
//! builds the timing graph, propagates serially, takes the max over the
//! primary outputs and bins it.

use std::time::Instant;

use lvf2::binning::BinSet;
use lvf2::cells::{CellType, TimingArcSpec};
use lvf2::flow::{characterize_arc_models, library_from_models, ArcModelGrids};
use lvf2::liberty::ast::{StatKind, TableKind};
use lvf2::liberty::{parse_library, write_library, BaseKind, Library, TimingModelGrid};
use lvf2::parallel::Parallelism;
use lvf2::ssta::{CsrGraph, NetlistGen, ReductionStrategy, TimingDist, TimingGraph, Topology};
use lvf2::stats::{Distribution, Lvf2, Normal, SkewNormal};

use crate::charlib::{characterize_traced, em_floor_failures, flow_options, round_trip, to_ref};
use crate::host::{scaled_total, Meter, Span};
use crate::refs::{self, RefCircuit, RefDist};
use crate::trace::Layers;
use crate::{Cfg, Run, MIN_OPS};

/// Which view of the library the pin delays take.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// LVF² mixtures (`cell_rise` with the seven LVF² tables).
    Lvf2,
    /// Gaussians from the POCV tables.
    Pocv,
}

/// Workload shape: netlist size, netlists per round, minimum ops per run
/// (the short POCV ops need more of them for a steady p90), reference
/// samples per netlist.
struct Shape {
    width: usize,
    depth: usize,
    netlists: usize,
    min_ops: usize,
    ref_samples: usize,
    tag: u64,
}

impl Family {
    fn shape(self) -> Shape {
        match self {
            // 4 PIs + 4 ranks of 4 gates: 20 nodes.
            Family::Lvf2 => Shape {
                width: 4,
                depth: 4,
                netlists: 25,
                min_ops: MIN_OPS,
                ref_samples: 120_000,
                tag: 1,
            },
            // 40 PIs + 14 ranks of 40 gates: 600 nodes. Ranks of 40 reach
            // the graph engine's parallel path (levels of 32 or more).
            Family::Pocv => Shape {
                width: 40,
                depth: 14,
                netlists: 10,
                min_ops: 2 * MIN_OPS,
                ref_samples: 16_000,
                tag: 2,
            },
        }
    }
}

/// An SSTA op's circuit delay is broken when its σ-bin probabilities miss
/// the Monte-Carlo reference by more than this on average. Block-based
/// SSTA treats reconvergent arrivals as independent, which costs ~0.025 on
/// the 20-node and ~0.06 on the 600-node netlists here; the limit catches
/// gross faults, and `binning_err` reports the accuracy itself.
const BIN_ERR_LIMIT: f64 = 0.25;

/// An SSTA op's circuit delay is broken when its mean misses the
/// Monte-Carlo reference's by more than this many reference σ (the
/// independence approximation costs up to ~0.3σ on the 20-node netlists).
const MEAN_ERR_LIMIT: f64 = 2.0;

/// Tail-bound width (in component scales) of the dominance test: beyond
/// ξ ± 7ω a skew-normal component holds less than 2(1 − Φ(7)) ≈ 3e-12.
const DOMINANCE_K: f64 = 7.0;

/// The cell types `NetlistGen` draws from (every arity-1..4 cell except
/// MUX and adders).
fn generator_cells() -> Vec<CellType> {
    CellType::ALL
        .iter()
        .copied()
        .filter(|c| {
            !matches!(
                c,
                CellType::Mux2
                    | CellType::Mux3
                    | CellType::Mux4
                    | CellType::FullAdder
                    | CellType::HalfAdder
            )
        })
        .collect()
}

/// Per cell type, the 3×3 grid of pin-delay distributions read back from
/// the parsed library.
struct DelayTable {
    cells: Vec<CellType>,
    grids: Vec<Vec<TimingDist>>,
}

impl DelayTable {
    fn get(&self, cell: CellType, point: usize) -> &TimingDist {
        let k = self
            .cells
            .iter()
            .position(|&c| c == cell)
            .expect("generator cell is in the library");
        &self.grids[k][point]
    }
}

fn read_delays(parsed: &Library, cells: &[CellType], family: Family) -> Result<DelayTable, String> {
    let mut grids = Vec::with_capacity(cells.len());
    for (cell, lib_cell) in cells.iter().zip(&parsed.cells) {
        if !lib_cell.name.starts_with(&format!("{}_", cell.name())) {
            return Err(format!("library cell {} out of order", lib_cell.name));
        }
        let timing = &lib_cell.pins[0].timings[0];
        let mut points = Vec::with_capacity(9);
        match family {
            Family::Lvf2 => {
                let g = TimingModelGrid::from_timing(timing, BaseKind::CellRise)
                    .map_err(|e| e.to_string())?;
                for row in &g.models {
                    points.extend(row.iter().map(|m| TimingDist::Lvf2(*m)));
                }
            }
            Family::Pocv => {
                let table = |stat| {
                    timing
                        .table(TableKind {
                            base: BaseKind::CellRise,
                            stat,
                        })
                        .ok_or_else(|| format!("{}: no {stat:?} table", lib_cell.name))
                };
                let (nom, shift, sd) = (
                    table(StatKind::Nominal)?,
                    table(StatKind::MeanShift(None))?,
                    table(StatKind::StdDev(None))?,
                );
                for i in 0..nom.values.len() {
                    for j in 0..nom.values[i].len() {
                        let mean = nom.values[i][j] + shift.values[i][j];
                        let n = Normal::new(mean, sd.values[i][j]).map_err(|e| e.to_string())?;
                        points.push(TimingDist::Normal(n));
                    }
                }
            }
        }
        grids.push(points);
    }
    Ok(DelayTable {
        cells: cells.to_vec(),
        grids,
    })
}

/// The in-family, numerically zero delay from the virtual source to each
/// primary input.
fn source_delay(family: Family) -> TimingDist {
    match family {
        Family::Lvf2 => TimingDist::Lvf2(Lvf2::from_lvf(
            SkewNormal::new(1e-9, 1e-12, 0.0).expect("valid SN"),
        )),
        Family::Pocv => TimingDist::Normal(Normal::new(1e-9, 1e-12).expect("valid normal")),
    }
}

/// One seeded input netlist: its topology and, per gate pin, the grid point
/// whose characterized delay the pin takes.
struct Net {
    topo: Topology,
    points: Vec<Vec<usize>>,
}

/// Seed base of the input netlists. The netlists are the same in every
/// run, so their cost and accuracy do not move with `--seed`; the seed
/// drives the op order and the Monte-Carlo reference draws.
const NETLIST_SEED: u64 = 0x4E45_544C;

fn netlists(family: Family) -> Vec<Net> {
    let s = family.shape();
    (0..s.netlists)
        .map(|k| {
            net(
                s.width,
                s.depth,
                refs::derive(NETLIST_SEED, &[s.tag, k as u64]),
            )
        })
        .collect()
}

/// A wide two-rank netlist for the 2-thread bit-identity check when the
/// workload's own levels are narrower than the graph engine's parallel
/// threshold (32 nodes), so the check reaches the parallel path.
fn thread_check_net(family: Family) -> Option<Net> {
    let s = family.shape();
    (s.width < 32).then(|| net(32, 2, refs::derive(NETLIST_SEED, &[s.tag, u64::MAX])))
}

/// A `NetlistGen` netlist and its per-pin grid points, all from `nseed`.
fn net(width: usize, depth: usize, nseed: u64) -> Net {
    let topo = NetlistGen {
        depth,
        width,
        max_fanin: 3,
        reconvergence: 0.15,
        seed: nseed,
    }
    .generate();
    let points = topo
        .gates
        .iter()
        .enumerate()
        .map(|(g, gate)| {
            (0..gate.fanin.len())
                .map(|p| (refs::derive(nseed, &[g as u64, p as u64]) % 9) as usize)
                .collect()
        })
        .collect();
    Net { topo, points }
}

/// Builds the timing graph of `net` (node 0 is the virtual source; topology
/// node k is graph node k + 1) and compiles it to CSR.
fn build(net: &Net, delays: &DelayTable, source: &TimingDist) -> Result<CsrGraph, String> {
    let t = &net.topo;
    let mut g = TimingGraph::new(t.node_count() + 1);
    for pi in 0..t.n_inputs {
        g.add_edge(0, pi + 1, source.clone())
            .map_err(|e| e.to_string())?;
    }
    for (gi, gate) in t.gates.iter().enumerate() {
        let out = t.n_inputs + gi + 1;
        for (&src, &pt) in gate.fanin.iter().zip(&net.points[gi]) {
            g.add_edge(src as usize + 1, out, delays.get(gate.cell, pt).clone())
                .map_err(|e| e.to_string())?;
        }
    }
    CsrGraph::try_from(g).map_err(|e| e.to_string())
}

/// The same circuit for the benchmark's Monte-Carlo reference.
fn ref_circuit(net: &Net, delays: &DelayTable, source: &TimingDist) -> RefCircuit {
    let conv = |d: &TimingDist| match d {
        TimingDist::Lvf2(m) => to_ref(m),
        TimingDist::Normal(n) => RefDist::Normal {
            mu: n.mu(),
            sd: n.sigma(),
        },
        other => unreachable!("no {} delays in this benchmark", other.family()),
    };
    let t = &net.topo;
    RefCircuit {
        source: vec![conv(source); t.n_inputs],
        gates: t
            .gates
            .iter()
            .zip(&net.points)
            .map(|(gate, pts)| {
                gate.fanin
                    .iter()
                    .zip(pts)
                    .map(|(&src, &pt)| (src, conv(delays.get(gate.cell, pt))))
                    .collect()
            })
            .collect(),
        outputs: t.outputs.clone(),
    }
}

/// The circuit delay: the max over the primary outputs' arrivals.
fn circuit_delay(
    arrivals: &[Option<TimingDist>],
    topo: &Topology,
    mut max: impl FnMut(&TimingDist, &TimingDist) -> Result<TimingDist, String>,
) -> Result<TimingDist, String> {
    let mut acc: Option<TimingDist> = None;
    for &o in &topo.outputs {
        let a = arrivals[o as usize + 1]
            .as_ref()
            .ok_or("an output has no arrival")?;
        acc = Some(match acc {
            None => a.clone(),
            Some(x) => max(&x, a)?,
        });
    }
    acc.ok_or_else(|| "netlist has no outputs".into())
}

/// Bins the circuit delay with the paper's σ-bins and reads its 3σ yield.
fn bin(d: &TimingDist) -> (Vec<f64>, f64) {
    let (mean, sd) = (d.mean(), d.std_dev());
    let probs = BinSet::sigma_bins(mean, sd).probabilities(|x| d.cdf(x));
    (probs, d.cdf(mean + 3.0 * sd))
}

/// Result of one op kept for verification.
struct OpOut {
    arrivals: Vec<Option<TimingDist>>,
    circuit: TimingDist,
    bins: (Vec<f64>, f64),
}

fn op(net: &Net, delays: &DelayTable, source: &TimingDist) -> Result<OpOut, String> {
    let csr = build(net, delays, source)?;
    let prop = csr
        .propagate(0, &Parallelism::serial())
        .map_err(|e| e.to_string())?;
    let circuit = circuit_delay(&prop.arrivals, &net.topo, |a, b| {
        a.max_with(b, ReductionStrategy::default())
            .map_err(|e| e.to_string())
    })?;
    let bins = bin(&circuit);
    Ok(OpOut {
        arrivals: prop.arrivals,
        circuit,
        bins,
    })
}

/// Tail-bound support `[lo, hi]` of a delay: outside it every component
/// holds less than ~3e-12 of its mass.
fn support(d: &TimingDist) -> (f64, f64) {
    let k = DOMINANCE_K;
    match d {
        TimingDist::Normal(n) => (n.mu() - k * n.sigma(), n.mu() + k * n.sigma()),
        TimingDist::Lvf2(m) => {
            let mut comps = vec![m.first()];
            if m.lambda() > 0.0 {
                comps.push(m.second());
            }
            comps
                .iter()
                .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), s| {
                    (
                        lo.min(s.xi() - k * s.omega()),
                        hi.max(s.xi() + k * s.omega()),
                    )
                })
        }
        other => (other.mean(), other.mean()),
    }
}

fn dominated(a: &TimingDist, b: &TimingDist) -> bool {
    let ((alo, ahi), (blo, bhi)) = (support(a), support(b));
    ahi < blo || bhi < alo
}

/// Replays `CsrGraph::propagate`'s pull order through the public operators,
/// timing every sum and max. Must reproduce its arrivals bit for bit.
fn replay(csr: &CsrGraph, layers: &mut Layers, f: f64) -> Result<Vec<Option<TimingDist>>, String> {
    let strategy = ReductionStrategy::default();
    let n = csr.node_count();
    let mut arrivals: Vec<Option<TimingDist>> = vec![None; n];
    let mut reached = vec![false; n];
    reached[0] = true;
    for l in 0..csr.level_count() {
        let mut level_out = Vec::with_capacity(csr.level(l).len());
        for &node in csr.level(l) {
            let mut acc: Option<TimingDist> = None;
            for &e in csr.fanin(node as usize) {
                let (from, _) = csr.edge(e as usize);
                if !reached[from] {
                    continue;
                }
                let through = match &arrivals[from] {
                    Some(a) => {
                        layers.count("ssta.sum_calls", 1.0);
                        layers.time("ssta.sum_ms", f, || {
                            a.sum_with(csr.delay(e as usize), strategy)
                        })
                    }
                    None => Ok(csr.delay(e as usize).clone()),
                }
                .map_err(|e| e.to_string())?;
                acc = Some(match acc {
                    None => through,
                    Some(x) => max_traced(&x, &through, layers, f)?,
                });
            }
            level_out.push((node as usize, acc));
        }
        for (node, a) in level_out {
            reached[node] |= a.is_some();
            arrivals[node] = a;
        }
    }
    Ok(arrivals)
}

fn max_traced(
    a: &TimingDist,
    b: &TimingDist,
    layers: &mut Layers,
    f: f64,
) -> Result<TimingDist, String> {
    layers.count("ssta.max_calls", 1.0);
    if dominated(a, b) {
        layers.count("ssta.max_dominated", 1.0);
    }
    layers
        .time("ssta.max_ms", f, || {
            a.max_with(b, ReductionStrategy::default())
        })
        .map_err(|e| e.to_string())
}

struct Setup {
    models: Vec<ArcModelGrids>,
    delays: DelayTable,
}

/// Monte-Carlo samples per condition of the SSTA workloads' library: half
/// the flow default, so that the three set-up repetitions a run makes stay
/// a minority of its time.
const LIBRARY_SAMPLES: usize = 1000;

/// The flow options of the SSTA workloads' library.
fn library_options() -> lvf2::flow::FlowOptions {
    let mut opts = flow_options(1);
    opts.samples = LIBRARY_SAMPLES;
    opts
}

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Characterizes the library (one timed step per arc), writes it, parses
/// it back and reads the pin delays (one more step).
fn setup(
    meter: &Meter,
    steps: &mut Vec<Span>,
    cells: &[CellType],
    family: Family,
) -> Result<Setup, String> {
    let opts = library_options();
    let mut models = Vec::with_capacity(cells.len());
    for &c in cells {
        let (m, span) = meter.time(|| characterize_arc_models(&TimingArcSpec::of(c, 0), &opts));
        steps.push(span);
        models.push(m.map_err(|e| e.to_string())?);
    }
    let (out, span) = meter.time(|| -> Result<_, String> {
        let lib = library_from_models(&models, &opts.grid);
        let parsed = parse_library(&write_library(&lib)).map_err(|e| e.to_string())?;
        let delays = read_delays(&parsed, cells, family)?;
        Ok((lib, parsed, delays))
    });
    steps.push(span);
    let (lib, parsed, delays) = out?;
    round_trip(&models, &lib, &parsed)?;
    Ok(Setup { models, delays })
}

/// Runs the workload.
pub fn run(cfg: &Cfg, meter: &Meter, family: Family) -> Result<Run, String> {
    let mut run = Run::default();
    let cells = generator_cells();
    let nets = netlists(family);
    let mut order: Vec<usize> = (0..nets.len()).collect();
    let mut rng = refs::Rng::new(refs::derive(cfg.seed, &[family.shape().tag]));
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i + 1));
    }
    let source = source_delay(family);
    let mut lib = None;
    for _ in 0..SETUP_REPS {
        let mut steps = Vec::new();
        lib = Some(setup(meter, &mut steps, &cells, family)?);
        run.setups.push(steps);
    }
    let lib = lib.expect("at least one set-up");

    // Timed phase: whole rounds over the netlists.
    let start = Instant::now();
    let mut first: Vec<Option<OpOut>> = (0..nets.len()).map(|_| None).collect();
    let mut rounds = 0usize;
    let min_ops = family.shape().min_ops;
    while rounds == 0 || start.elapsed().as_secs_f64() < cfg.seconds || run.ops.len() < min_ops {
        for &k in &order {
            let net = &nets[k];
            let (out, span) = meter.time(|| op(net, &lib.delays, &source));
            run.ops.push(span);
            run.work += net.topo.node_count() as f64;
            let out = out?;
            match &first[k] {
                None => first[k] = Some(out),
                Some(f) => {
                    let same = out.circuit == f.circuit && out.bins == f.bins;
                    run.check(same, || {
                        format!("netlist {k}: round {rounds} differs from round 0")
                    });
                }
            }
        }
        rounds += 1;
    }
    let first: Vec<OpOut> = first
        .into_iter()
        .map(|o| o.expect("every netlist ran"))
        .collect();
    run.peak_rss_mb = crate::host::peak_rss_mb();

    if cfg.trace {
        let mut layers = Layers::default();
        let untraced = scaled_total(&run.ops);
        // One decomposed set-up: Monte Carlo, EM, Liberty write and parse.
        let opts = library_options();
        let mut setup_spans = Vec::new();
        let mut models = Vec::with_capacity(cells.len());
        for &c in &cells {
            let (m, span) = meter
                .time_f(|f| characterize_traced(&TimingArcSpec::of(c, 0), &opts, &mut layers, f));
            setup_spans.push(span);
            models.push(m.map_err(|e| e.to_string())?);
        }
        let (_, span) = meter.time_f(|f| {
            let text = layers.time("liberty.write_ms", f, || {
                write_library(&library_from_models(&models, &opts.grid))
            });
            layers.set("liberty.bytes", text.len() as f64);
            let parsed = layers.time("liberty.parse_ms", f, || parse_library(&text));
            std::hint::black_box(parsed.map(|p| p.cells.len()).ok());
        });
        setup_spans.push(span);
        run.check(models == lib.models, || {
            "traced set-up differs from characterize_arc_models".into()
        });
        let floor_fails: usize = models.iter().map(|m| em_floor_failures(m, &opts)).sum();
        layers.set("fit.ll_floor_fails", floor_fails as f64);
        let mut op_spans = Vec::new();
        for _ in 0..rounds {
            for &k in &order {
                let net = &nets[k];
                let (out, span) = meter.time_f(|f| -> Result<_, String> {
                    let csr =
                        layers.time("ssta.build_ms", f, || build(net, &lib.delays, &source))?;
                    let arrivals = replay(&csr, &mut layers, f)?;
                    let circuit = circuit_delay(&arrivals, &net.topo, |a, b| {
                        max_traced(a, b, &mut layers, f)
                    })?;
                    let bins = layers.time("binning.ms", f, || bin(&circuit));
                    Ok((arrivals, circuit, bins))
                });
                op_spans.push(span);
                let (arrivals, circuit, bins) = out?;
                let same = arrivals == first[k].arrivals
                    && circuit == first[k].circuit
                    && bins == first[k].bins;
                run.check(same, || {
                    format!("netlist {k}: replayed propagation differs from propagate")
                });
            }
        }
        layers.total_s = setup_spans.iter().chain(&op_spans).map(Span::scaled).sum();
        layers.set(
            "trace.overhead_frac",
            scaled_total(&op_spans) / untraced - 1.0,
        );
        let calls = layers.value("ssta.max_calls");
        layers.set(
            "ssta.max_dominated_frac",
            layers.value("ssta.max_dominated") / calls,
        );
        run.layers = Some(layers);
    }

    // Verification: Monte-Carlo reference per netlist, thread identity.
    let shape = family.shape();
    for (k, (net, out)) in nets.iter().zip(&first).enumerate() {
        let xs = ref_circuit(net, &lib.delays, &source).sample_delays(
            shape.ref_samples,
            refs::derive(cfg.seed, &[shape.tag, 1 << 32 | k as u64]),
        );
        let (ref_mean, ref_sd) = refs::mean_sd(&xs);
        let (b, y) = refs::accuracy(|x| out.circuit.cdf(x), &xs);
        if (out.circuit.mean() - ref_mean).abs() > MEAN_ERR_LIMIT * ref_sd || b > BIN_ERR_LIMIT {
            *run.failed.entry("ssta_reference").or_insert(0) += rounds as u64;
            eprintln!(
                "netlist {k}: mean {} vs MC {ref_mean} (σ {ref_sd}), bin err {b}",
                out.circuit.mean()
            );
            continue;
        }
        run.bin_errs.push(b);
        run.y3_errs.push(y);
    }
    let wide = thread_check_net(family);
    let csr = build(wide.as_ref().unwrap_or(&nets[0]), &lib.delays, &source)?;
    let serial = csr
        .propagate(0, &Parallelism::serial())
        .map_err(|e| e.to_string())?;
    let two = csr
        .propagate(0, &Parallelism::serial().with_threads(2))
        .map_err(|e| e.to_string())?;
    run.check(two.arrivals == serial.arrivals, || {
        "2-thread propagation differs from serial".into()
    });
    Ok(run)
}
