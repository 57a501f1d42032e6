//! Figure 10 — batched update time (STL-P increase then decrease) vs full
//! index reconstruction, for groups of updates of growing size, on the
//! three largest datasets.
//!
//! ```sh
//! cargo run -p stl_bench --release --bin fig10 -- --scale default
//! ```

use stl_bench::{large_three, parse_scale, time, Runner};
use stl_core::{Stl, StlConfig};
use stl_workloads::updates::{increase_batch, restore_batch, sample_batches};
use stl_workloads::{build_dataset, Scale};

fn main() {
    let (scale, _) = parse_scale();
    // Paper: groups {5,10,…,80}×10² on multi-million-vertex graphs; scale
    // group sizes with the dataset budget.
    let group_sizes: Vec<usize> = match scale {
        Scale::Tiny => vec![10, 20, 40, 80],
        Scale::Small => vec![50, 100, 200, 400, 800],
        _ => vec![500, 1000, 2000, 4000, 6000, 8000],
    };
    println!("Figure 10: grouped STL-P update time vs reconstruction [s] (scale {scale:?})");
    println!(
        "{:<6} {:>8} | {:>10} {:>10} {:>14}",
        "set", "updates", "STL+ [s]", "STL- [s]", "reconstruct[s]"
    );
    for name in large_three() {
        let g0 = build_dataset(name, scale);
        let (_, t_build) = time(|| Stl::build(&g0, &StlConfig::default()));
        for &size in &group_sizes {
            let max = g0.num_edges();
            let size = size.min(max / 2);
            let batch = &sample_batches(&g0, 1, size, 31337)[0];
            let mut runner = Runner::new("STL-P", &g0);
            let t_inc = runner.apply(&increase_batch(batch, 2), true);
            let t_dec = runner.apply(&restore_batch(batch), false);
            println!(
                "{:<6} {:>8} | {:>10.3} {:>10.3} {:>14.3}",
                name,
                size,
                t_inc.as_secs_f64(),
                t_dec.as_secs_f64(),
                t_build.as_secs_f64()
            );
        }
    }
}
