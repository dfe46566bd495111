//! `perf compare <a-dir> <b-dir>`: for every workload and end-to-end metric,
//! both sides' median and quartiles over their runs, the change with its
//! base, the metric's bound, and a verdict. `a` is the base (the parent).

use crate::meta::{EndToEnd, END_TO_END, WORKLOADS};
use crate::stats::{median, quartiles};
use std::path::Path;
use vegen_trace::json::Json;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Unchanged,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Spread of a set of runs: quartile distance as a share of the median.
fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values).abs().max(f64::MIN_POSITIVE)
}

/// Judge `b` against the base `a` for one metric.
///
/// * every run of `b` reads better than every run of `a`: better;
/// * otherwise, either side's spread wider than the bound: unresolved —
///   the runs cannot tell a change of that size from noise;
/// * otherwise, median worse by more than the bound: regressed;
/// * otherwise, median better by more than the base's own spread: better.
pub fn verdict(a: &[f64], b: &[f64], metric: &EndToEnd) -> Verdict {
    let sign = if metric.better == "lower" { 1.0 } else { -1.0 };
    let worst_b = b.iter().map(|v| v * sign).fold(f64::MIN, f64::max);
    let best_a = a.iter().map(|v| v * sign).fold(f64::MAX, f64::min);
    if worst_b < best_a {
        return Verdict::Better;
    }
    let base = median(a).abs().max(f64::MIN_POSITIVE);
    let worse_by = (median(b) - median(a)) * sign / base;
    if spread(a).max(spread(b)) > metric.bound {
        Verdict::Unresolved
    } else if worse_by > metric.bound {
        Verdict::Regressed
    } else if -worse_by > spread(a) && worse_by < 0.0 {
        Verdict::Better
    } else {
        Verdict::Unchanged
    }
}

/// Per-run values of one metric, and the failed-op share, of one side.
struct Side {
    runs: Vec<Json>,
}

impl Side {
    fn load(dir: &Path, workload: &str) -> Result<Side, String> {
        let path = dir.join(format!("runs-{workload}.json"));
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let runs = doc.get("runs").and_then(Json::as_arr).unwrap_or(&[]).to_vec();
        if runs.is_empty() {
            return Err(format!("{}: no runs", path.display()));
        }
        Ok(Side { runs })
    }

    fn values(&self, metric: &str) -> Vec<f64> {
        self.runs
            .iter()
            .filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.as_f64())
            .collect()
    }

    fn failed_frac(&self) -> f64 {
        let sum =
            |key: &str| -> f64 { self.runs.iter().filter_map(|r| r.get(key)?.as_f64()).sum() };
        sum("failed") / sum("attempted").max(1.0)
    }
}

pub fn main(args: &[String]) -> Result<bool, String> {
    let [a_dir, b_dir] = args else {
        return Err(
            "usage: perf compare <a-dir> <b-dir>   (directories written by `perf all`)".into()
        );
    };
    let mut ok = true;
    println!(
        "{:<14} {:<16} {:>12} {:>25} {:>12} {:>25} {:>9} {:>6}  verdict",
        "workload", "metric", "a median", "[q1, q3]", "b median", "[q1, q3]", "b vs a", "bound"
    );
    for w in WORKLOADS {
        let a = Side::load(Path::new(a_dir), w.name)?;
        let b = Side::load(Path::new(b_dir), w.name)?;
        for m in END_TO_END {
            let (va, vb) = (a.values(m.name), b.values(m.name));
            if va.is_empty() || vb.is_empty() {
                return Err(format!("{}: metric {} missing from a run", w.name, m.name));
            }
            let v = verdict(&va, &vb, m);
            ok &= v != Verdict::Regressed;
            // A gain needs ten pairs; fewer runs can only rule a regression out.
            let thin = v == Verdict::Better && va.len().min(vb.len()) < 10;
            let (qa, qb) = (quartiles(&va), quartiles(&vb));
            let change = (median(&vb) - median(&va)) / median(&va).abs().max(f64::MIN_POSITIVE);
            println!(
                "{:<14} {:<16} {:>12.4} {:>25} {:>12.4} {:>25} {:>+8.2}% {:>5.1}%  {}",
                w.name,
                m.name,
                median(&va),
                format!("[{:.4}, {:.4}]", qa.0, qa.1),
                median(&vb),
                format!("[{:.4}, {:.4}]", qb.0, qb.1),
                change * 100.0,
                m.bound * 100.0,
                if thin { "better (under 10 runs a side: not a claim)" } else { v.name() }
            );
        }
        let (fa, fb) = (a.failed_frac(), b.failed_frac());
        let rose = fb > fa;
        ok &= !rose;
        println!(
            "{:<14} {:<16} {:>12.6} {:>25} {:>12.6} {:>25} {:>9} {:>6}  {}",
            w.name,
            "failed_frac",
            fa,
            "",
            fb,
            "",
            "",
            "0",
            if rose { "regressed" } else { "unchanged" }
        );
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(better: &'static str, bound: f64) -> EndToEnd {
        EndToEnd { name: "m", unit: "s", better, bound, what: "" }
    }

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let lower = metric("lower", 0.05);
        let base = [1.00, 1.01, 0.99, 1.00];
        assert_eq!(verdict(&base, &[1.00, 1.01, 0.99, 1.00], &lower), Verdict::Unchanged);
        assert_eq!(verdict(&base, &[1.10, 1.11, 1.09, 1.10], &lower), Verdict::Regressed);
        // Every run of b beats every run of a.
        assert_eq!(verdict(&base, &[0.90, 0.91, 0.89, 0.90], &lower), Verdict::Better);
        // Noise wider than the bound, runs overlapping: cannot tell.
        assert_eq!(
            verdict(&[1.0, 1.3, 0.8, 1.1], &[1.2, 0.9, 1.4, 1.0], &lower),
            Verdict::Unresolved
        );
        // Direction flips for higher-is-better metrics.
        let higher = metric("higher", 0.05);
        assert_eq!(verdict(&base, &[1.10, 1.11, 1.09, 1.10], &higher), Verdict::Better);
        assert_eq!(verdict(&base, &[0.90, 0.91, 0.89, 0.90], &higher), Verdict::Regressed);
        // Exact metrics: one run a side, any worsening beyond the bound.
        let exact = metric("lower", 0.02);
        assert_eq!(verdict(&[616.0], &[616.0], &exact), Verdict::Unchanged);
        assert_eq!(verdict(&[616.0], &[700.0], &exact), Verdict::Regressed);
    }
}
