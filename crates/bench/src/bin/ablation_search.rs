//! Ablation B — Label Search vs Pareto Search search-space statistics.
//!
//! Theorem 6.6's bounds suggest Pareto Search could be *worse*; §6 notes the
//! factors "tend to be over-estimates" in practice. This bench prints the
//! actual work counters (queue pops, label writes, searches) per update so
//! the duplicate-traversal elimination is visible directly.
//!
//! ```sh
//! cargo run -p stl_bench --release --bin ablation_search
//! ```

use stl_bench::{batch_shape, parse_scale, Runner};
use stl_workloads::build_dataset;
use stl_workloads::updates::{increase_batch, restore_batch, sample_batches};

fn main() {
    let (scale, _) = parse_scale();
    let (nbatches, per_batch) = batch_shape(scale);
    println!("Ablation B: search-space counters per update (scale {scale:?})");
    println!(
        "{:<6} {:<6} {:>6} | {:>10} {:>10} {:>10} {:>10}",
        "set", "dir", "algo", "searches", "pops", "writes", "repairs"
    );
    for name in ["NY", "CAL", "CTR"] {
        let g0 = build_dataset(name, scale);
        let batches = sample_batches(&g0, nbatches, per_batch, 77 + name.len() as u64);
        for algo in ["STL-L", "STL-P"] {
            let mut runner = Runner::new(algo, &g0);
            let mut inc = stl_core::UpdateStats::default();
            let mut dec = stl_core::UpdateStats::default();
            for b in &batches {
                inc += runner.apply_with_stats(&increase_batch(b, 2)).expect("stl runner");
                dec += runner.apply_with_stats(&restore_batch(b)).expect("stl runner");
            }
            let total = (nbatches * per_batch) as f64;
            for (dir, s) in [("dec", dec), ("inc", inc)] {
                println!(
                    "{:<6} {:<6} {:>6} | {:>10.1} {:>10.1} {:>10.1} {:>10.1}",
                    name,
                    dir,
                    algo,
                    s.searches as f64 / total,
                    s.pops as f64 / total,
                    s.label_writes as f64 / total,
                    s.repair_pops as f64 / total
                );
            }
        }
    }
}
