//! Table 3 — average per-update maintenance time (ms), weight decrease and
//! increase, for STL-P, STL-L, IncH2H and DTDHL.
//!
//! Protocol (§7): per dataset, sample batches of edges; each batch is first
//! increased to 2×φ (increase columns), then restored to φ (decrease
//! columns). Averages are per update over all batches.
//!
//! ```sh
//! cargo run -p stl_bench --release --bin table3 -- --scale default
//! ```

use std::time::Duration;

use stl_bench::{batch_shape, ms, parse_scale, Runner};
use stl_workloads::updates::{increase_batch, restore_batch, sample_batches};
use stl_workloads::{build_dataset, DATASETS};

const METHODS: [&str; 4] = ["STL-P", "STL-L", "IncH2H", "DTDHL"];

fn main() {
    let (scale, _) = parse_scale();
    let (nbatches, per_batch) = batch_shape(scale);
    println!(
        "Table 3: update time per update [ms] ({nbatches} batches x {per_batch} updates, x2 then restore; scale {scale:?})"
    );
    println!(
        "{:<6} | {:>9} {:>9} {:>9} {:>9} | {:>9} {:>9} {:>9} {:>9}",
        "", "STL-P-", "STL-L-", "IncH2H-", "DTDHL-", "STL-P+", "STL-L+", "IncH2H+", "DTDHL+"
    );
    for spec in DATASETS {
        let g0 = build_dataset(spec.name, scale);
        let batches = sample_batches(&g0, nbatches, per_batch, 1000 + spec.seed);
        let total_updates = (nbatches * per_batch) as f64;
        let mut dec = [Duration::ZERO; 4];
        let mut inc = [Duration::ZERO; 4];
        for (mi, method) in METHODS.iter().enumerate() {
            let mut runner = Runner::new(method, &g0);
            for batch in &batches {
                inc[mi] += runner.apply(&increase_batch(batch, 2), true);
                dec[mi] += runner.apply(&restore_batch(batch), false);
            }
        }
        let per = |d: Duration| ms(d) / total_updates;
        println!(
            "{:<6} | {:>9.3} {:>9.3} {:>9.3} {:>9.3} | {:>9.3} {:>9.3} {:>9.3} {:>9.3}",
            spec.name,
            per(dec[0]),
            per(dec[1]),
            per(dec[2]),
            per(dec[3]),
            per(inc[0]),
            per(inc[1]),
            per(inc[2]),
            per(inc[3]),
        );
    }
}
