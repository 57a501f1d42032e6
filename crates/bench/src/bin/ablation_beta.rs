//! Ablation A — balance parameter β sweep (β = 0.2 is the paper's choice;
//! this bench shows what the knob trades off).
//!
//! For β ∈ {0.1 … 0.5}: tree height, label entries, construction time,
//! mean query time, mean per-update time (STL-P, mixed batch).
//!
//! ```sh
//! cargo run -p stl-bench --release --bin ablation_beta
//! ```

use stl_bench::{fmt_count, ms, parse_scale, time, us};
use stl_core::{Maintenance, Stl, StlConfig, UpdateEngine};
use stl_workloads::build_dataset;
use stl_workloads::queries::random_pairs;
use stl_workloads::updates::{increase_batch, restore_batch, sample_batches};

fn main() {
    let (scale, _) = parse_scale();
    let g0 = build_dataset("CAL", scale);
    println!(
        "Ablation A: balance parameter sweep on CAL ({} vertices, scale {scale:?})",
        g0.num_vertices()
    );
    println!(
        "{:>5} {:>7} {:>10} {:>10} {:>11} {:>12}",
        "beta", "height", "entries", "build[s]", "query[us]", "update[ms]"
    );
    let pairs = random_pairs(g0.num_vertices(), 50_000, 11);
    let batches = sample_batches(&g0, 3, 50, 12);
    for beta in [0.1, 0.2, 0.3, 0.4, 0.5] {
        let cfg = StlConfig::with_beta(beta);
        let (stl, t_build) = time(|| Stl::build(&g0, &cfg));
        let (sum, t_q) = time(|| {
            let mut acc = 0u64;
            for &(s, t) in &pairs {
                acc = acc.wrapping_add(stl.query(s, t) as u64);
            }
            acc
        });
        std::hint::black_box(sum);
        // Update cost: increase ×2 then restore over private graph copy.
        let mut g = g0.clone();
        let mut stl_dyn = stl.clone();
        let mut eng = UpdateEngine::new(g.num_vertices());
        let mut updates = 0usize;
        let (_, t_u) = time(|| {
            for b in &batches {
                stl_dyn.apply_batch(
                    &mut g,
                    &increase_batch(b, 2),
                    Maintenance::ParetoSearch,
                    &mut eng,
                );
                stl_dyn.apply_batch(&mut g, &restore_batch(b), Maintenance::ParetoSearch, &mut eng);
                updates += 2 * b.len();
            }
        });
        println!(
            "{:>5.1} {:>7} {:>10} {:>10.2} {:>11.3} {:>12.3}",
            beta,
            stl.hierarchy().height(),
            fmt_count(stl.labels().num_entries()),
            t_build.as_secs_f64(),
            us(t_q) / pairs.len() as f64,
            ms(t_u) / updates as f64
        );
    }
}
