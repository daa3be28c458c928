//! Per-layer attribution for the traced run.
//!
//! The traced run calls the program's public functions one layer at a time
//! (Monte Carlo, EM, Liberty, SSTA operators, binning, the daemon) and
//! times each call from the benchmark's own code; nothing inside the
//! program changes. Layer times are wall time multiplied by the op's
//! host-speed factor (`K_REF / K_now`), so they add up against the scaled
//! op totals.

use std::collections::BTreeMap;
use std::time::Instant;

/// Accumulated per-layer times (scaled seconds) and counters.
#[derive(Debug, Default)]
pub struct Layers {
    times: BTreeMap<&'static str, f64>,
    values: BTreeMap<&'static str, f64>,
    /// Total traced time (scaled seconds) the layers are attributed against.
    pub total_s: f64,
}

impl Layers {
    /// Runs `f`, charging its wall time × `factor` to `layer`.
    pub fn time<R>(&mut self, layer: &'static str, factor: f64, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let r = f();
        self.charge(layer, t0.elapsed().as_secs_f64() * factor);
        r
    }

    /// Adds `seconds` (already scaled) to `layer`.
    pub fn charge(&mut self, layer: &'static str, seconds: f64) {
        *self.times.entry(layer).or_insert(0.0) += seconds;
    }

    /// Adds `by` to counter `name`.
    pub fn count(&mut self, name: &'static str, by: f64) {
        *self.values.entry(name).or_insert(0.0) += by;
    }

    /// Sets metric `name` outright.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// A counter's current value (0 when never touched).
    pub fn value(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// The per-layer metrics: each layer in ms and as a share of the
    /// traced total, the unattributed remainder, and every counter.
    pub fn metrics(&self) -> BTreeMap<String, f64> {
        let total_ms = self.total_s * 1e3;
        let share = |ms: f64| if total_ms > 0.0 { ms / total_ms } else { 0.0 };
        let mut out = BTreeMap::new();
        let mut attributed = 0.0;
        for (layer, s) in &self.times {
            let ms = s * 1e3;
            attributed += ms;
            let share_name = match layer.strip_suffix(".ms") {
                Some(stem) => format!("{stem}.share"),
                None => format!("{}_share", layer.trim_end_matches("_ms")),
            };
            out.insert(layer.to_string(), ms);
            out.insert(share_name, share(ms));
        }
        out.insert("unattributed_ms".into(), total_ms - attributed);
        out.insert("unattributed.share".into(), share(total_ms - attributed));
        out.insert("trace.total_ms".into(), total_ms);
        for (k, v) in &self.values {
            out.insert(k.to_string(), *v);
        }
        let fits = self.value("fit.fits");
        if fits > 0.0 {
            out.insert("fit.capped_frac".into(), self.value("fit.capped") / fits);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layers_and_remainder_add_up_to_the_total() {
        let mut l = Layers::default();
        l.charge("fit.ms", 0.6);
        l.charge("liberty.write_ms", 0.1);
        l.count("fit.fits", 18.0);
        l.total_s = 1.0;
        let m = l.metrics();
        assert!((m["fit.ms"] - 600.0).abs() < 1e-9);
        assert!((m["fit.share"] - 0.6).abs() < 1e-12);
        assert!((m["liberty.write_share"] - 0.1).abs() < 1e-12);
        assert!((m["unattributed_ms"] - 300.0).abs() < 1e-9);
        assert_eq!(m["fit.fits"], 18.0);
    }
}
