//! Suite mode: every workload in its own process (so `rss_peak_mb` is per
//! workload), one table; and `--check-repeat`, the tool behind the
//! repeatability criterion and later issues' noise bands.

use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};

use crate::report::{Better, MetricDef, END_TO_END, PER_LAYER};
use crate::stats::{iqr_share, median};
use crate::workloads::SPECS;
use crate::Args;

/// Per-layer counters that must repeat exactly between two runs of the same
/// seed on the same build.
const EXACT: &[&str] = &[
    "workloads.ops_hash",
    "core.hierarchy.height",
    "core.hierarchy.root_cut_len",
    "core.labelling.label_entries",
    "core.labelling.label_bytes",
    "core.pareto.searches_per_update",
    "core.pareto.pops_per_update",
    "core.pareto.label_writes_per_update",
];

/// `(workload, metric) → value` of one pass over the suite.
type Values = BTreeMap<(String, String), f64>;

/// Run one workload in a child process and collect its `metric` rows.
fn run_child(name: &str, seed: u64, args: &Args, into: &mut Values) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", name, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &args.seconds.to_string(),
            "--trace",
            &u8::from(args.trace).to_string(),
        ])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start {name}: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    for line in text.lines() {
        let cols: Vec<&str> = line.split('\t').collect();
        if let ["metric", metric, value, ..] = cols[..] {
            let v: f64 =
                value.parse().map_err(|e| format!("{name}: bad value for {metric}: {e}"))?;
            into.insert((name.to_string(), metric.to_string()), v);
        } else if cols[0] == "note" {
            eprintln!("  {name}: {}", cols[1..].join("  "));
        }
    }
    if !out.status.success() {
        return Err(format!("{name} (seed {seed}) failed: {}", out.status));
    }
    Ok(())
}

fn run_suite(seed: u64, args: &Args) -> Result<Values, String> {
    let mut values = Values::new();
    for name in SPECS.iter().map(|w| w.name) {
        eprintln!(
            "running {name} (seed {seed}, {} s, trace {})",
            args.seconds,
            u8::from(args.trace)
        );
        run_child(name, seed, args, &mut values)?;
    }
    Ok(values)
}

fn table(args: &Args) -> &'static [MetricDef] {
    if args.trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

fn print_table(values: &Values, defs: &[MetricDef]) {
    print!("{:<40} {:>6}", "metric", "unit");
    SPECS.iter().for_each(|w| print!(" {:>16}", w.name));
    println!();
    for m in defs {
        print!("{:<40} {:>6}", m.name, m.unit);
        for w in &SPECS {
            match values.get(&(w.name.to_string(), m.name.to_string())) {
                Some(v) => print!(" {:>16}", short(*v)),
                None => print!(" {:>16}", "-"),
            }
        }
        println!();
    }
}

/// Four significant digits for the table; the result JSON carries them all.
fn short(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 0.001 && v.abs() < 1e7 {
        let digits = (3 - v.abs().log10().floor() as i32).clamp(0, 6) as usize;
        format!("{v:.digits$}")
    } else {
        format!("{v:.3e}")
    }
}

/// By how much `b` is worse than `a`, as a share of `a`.
fn worsening(m: &MetricDef, a: f64, b: f64) -> f64 {
    let delta = match m.better {
        Better::Lower => b - a,
        Better::Higher => a - b,
    };
    delta / a.abs().max(f64::MIN_POSITIVE)
}

fn check_repeat(args: &Args) -> Result<bool, String> {
    let defs = table(args);
    let mut sets: [Vec<Values>; 2] = [Vec::new(), Vec::new()];
    for (i, set) in sets.iter_mut().enumerate() {
        for r in 0..args.runs {
            eprintln!("set {} run {}/{}", i + 1, r + 1, args.runs);
            set.push(run_suite(args.seed + r as u64, args)?);
        }
    }
    let mut ok = true;
    println!(
        "{:<16} {:<36} {:>12} {:>12} {:>8} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "median 1", "median 2", "drift", "spread1", "spread2", "bound"
    );
    for w in SPECS.iter().map(|w| w.name) {
        for m in defs {
            let key = (w.to_string(), m.name.to_string());
            let of = |set: &Vec<Values>| -> Vec<f64> {
                set.iter().filter_map(|v| v.get(&key).copied()).collect()
            };
            let (a, b) = (of(&sets[0]), of(&sets[1]));
            let (ma, mb) = (median(&a), median(&b));
            let drift = worsening(m, ma, mb).max(worsening(m, mb, ma));
            let spread = |v: &[f64]| if v.len() >= 2 { iqr_share(v) } else { 0.0 };
            let (sa, sb) = (spread(&a), spread(&b));
            let verdict = match m.bound {
                Some(bound) => {
                    // The spread of set-up time is not gated; its drift is.
                    let wide = m.name != "setup_s" && sa.max(sb) > bound;
                    if drift > bound || wide {
                        ok = false;
                        "OUT OF BOUND"
                    } else if drift > bound / 3.0
                        || (m.name != "setup_s" && sa.max(sb) > bound / 3.0)
                    {
                        "ok (above a third of the bound)"
                    } else {
                        "ok"
                    }
                }
                None if EXACT.contains(&m.name) && a != b => {
                    ok = false;
                    "NOT EXACT"
                }
                None => "",
            };
            println!(
                "{:<16} {:<36} {:>12} {:>12} {:>8.4} {:>8.4} {:>8.4} {:>6}  {verdict}",
                w,
                m.name,
                short(ma),
                short(mb),
                drift,
                sa,
                sb,
                m.bound.map_or("-".to_string(), |b| b.to_string()),
            );
        }
    }
    Ok(ok)
}

pub fn main(args: &Args) -> ExitCode {
    let result = if args.check_repeat {
        check_repeat(args)
    } else {
        run_suite(args.seed, args).map(|values| {
            print_table(&values, table(args));
            true
        })
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("stl-benchmark: repeatability check failed");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("stl-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_follows_the_metric_direction() {
        let lower = END_TO_END.iter().find(|m| m.name == "dist_ns_p50").unwrap();
        let higher = END_TO_END.iter().find(|m| m.name == "ok_share").unwrap();
        assert!((worsening(lower, 100.0, 110.0) - 0.1).abs() < 1e-12);
        assert!(worsening(lower, 100.0, 90.0) < 0.0);
        assert!((worsening(higher, 100.0, 90.0) - 0.1).abs() < 1e-12);
        assert!(worsening(higher, 100.0, 110.0) < 0.0);
    }

    #[test]
    fn short_keeps_four_significant_digits() {
        assert_eq!(short(1234.5678), "1235");
        assert_eq!(short(12.345678), "12.35");
        assert_eq!(short(0.012345678), "0.01235");
        assert_eq!(short(0.0), "0");
        assert_eq!(short(1.5e9), "1.500e9");
    }

    #[test]
    fn exact_counters_are_registered_per_layer_metrics() {
        for name in EXACT {
            assert!(PER_LAYER.iter().any(|m| m.name == *name), "{name} is not registered");
        }
    }
}
