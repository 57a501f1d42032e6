//! Figure 9 — query time vs query distance (stratified sets Q1…Q10) for
//! STL, HC2L and IncH2H on the three largest datasets.
//!
//! ```sh
//! cargo run -p stl_bench --release --bin fig9 -- --scale default
//! ```

use stl_bench::{large_three, parse_scale, time, us};
use stl_core::{Stl, StlConfig};
use stl_h2h::H2hIndex;
use stl_hc2l::Hc2l;
use stl_workloads::queries::stratified_sets;
use stl_workloads::{build_dataset, Scale};

fn main() {
    let (scale, _) = parse_scale();
    let per_set = match scale {
        Scale::Tiny => 500,
        Scale::Small => 2_000,
        Scale::Default => 10_000,
        Scale::Large => 10_000,
    };
    println!("Figure 9: query time [us] per stratified set Q1..Q10 (lmin=1000; scale {scale:?})");
    println!("{:<6} {:>4} {:>9} {:>9} {:>9} {:>7}", "set", "Q", "STL", "HC2L", "IncH2H", "pairs");
    for name in large_three() {
        let g = build_dataset(name, scale);
        let stl = Stl::build(&g, &StlConfig::default());
        let hc2l = Hc2l::build(&g, &StlConfig::default());
        let h2h = H2hIndex::build(&g);
        let sets = stratified_sets(&g, |s, t| stl.query(s, t), 1_000, 10, per_set, 808);
        for (qi, set) in sets.iter().enumerate() {
            if set.is_empty() {
                continue;
            }
            let run = |f: &dyn Fn(u32, u32) -> u32| {
                let (sum, d) = time(|| {
                    let mut acc = 0u64;
                    for &(s, t) in set {
                        acc = acc.wrapping_add(f(s, t) as u64);
                    }
                    acc
                });
                std::hint::black_box(sum);
                us(d) / set.len() as f64
            };
            println!(
                "{:<6} {:>4} {:>9.3} {:>9.3} {:>9.3} {:>7}",
                name,
                qi + 1,
                run(&|s, t| stl.query(s, t)),
                run(&|s, t| hc2l.query(s, t)),
                run(&|s, t| h2h.query(s, t)),
                set.len()
            );
        }
    }
}
