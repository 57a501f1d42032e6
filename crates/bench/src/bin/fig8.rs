//! Figure 8 — update time vs weight-change factor (batch *t* scales its
//! edges to `(t+1)·φ`, then restores), for STL-P± and IncH2H±.
//!
//! One line per (dataset, factor): the paper plots these as ten subplots;
//! we print the series that regenerate them.
//!
//! ```sh
//! cargo run -p stl_bench --release --bin fig8 -- --scale default
//! ```

use stl_bench::{batch_shape, ms, parse_scale, Runner};
use stl_workloads::updates::{increase_batch, restore_batch, sample_batches};
use stl_workloads::{build_dataset, DATASETS};

fn main() {
    let (scale, _) = parse_scale();
    let (_, per_batch) = batch_shape(scale);
    println!(
        "Figure 8: per-update time [ms] vs weight-change factor (batches of {per_batch}; scale {scale:?})"
    );
    println!(
        "{:<6} {:>7} | {:>9} {:>9} | {:>9} {:>9}",
        "set", "factor", "STL-P+", "STL-P-", "IncH2H+", "IncH2H-"
    );
    for spec in DATASETS {
        let g0 = build_dataset(spec.name, scale);
        // 9 batches, one per factor (the paper: batch t gets (t+1)×).
        let batches = sample_batches(&g0, 9, per_batch, 4242 + spec.seed);
        let mut stl_p = Runner::new("STL-P", &g0);
        let mut inch2h = Runner::new("IncH2H", &g0);
        for (t, batch) in batches.iter().enumerate() {
            let factor = (t + 2) as u32; // 2x .. 10x
            let inc = increase_batch(batch, factor);
            let dec = restore_batch(batch);
            let p_inc = stl_p.apply(&inc, true);
            let p_dec = stl_p.apply(&dec, false);
            let h_inc = inch2h.apply(&inc, true);
            let h_dec = inch2h.apply(&dec, false);
            let per = |d: std::time::Duration| ms(d) / batch.len() as f64;
            println!(
                "{:<6} {:>7} | {:>9.3} {:>9.3} | {:>9.3} {:>9.3}",
                spec.name,
                factor,
                per(p_inc),
                per(p_dec),
                per(h_inc),
                per(h_dec)
            );
        }
    }
}
