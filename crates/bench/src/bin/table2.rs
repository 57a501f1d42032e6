//! Table 2 — dataset summary: name, region, |V|, |E|, memory.
//!
//! ```sh
//! cargo run -p stl_bench --release --bin table2 -- --scale default
//! ```

use stl_bench::{fmt_bytes, parse_scale};
use stl_workloads::{build_dataset, DATASETS};

fn main() {
    let (scale, _) = parse_scale();
    println!("Table 2: Summary of datasets (synthetic analogues, scale {scale:?})");
    println!("{:<6} {:<16} {:>10} {:>12} {:>10}", "Name", "Region", "|V|", "|E|", "Memory");
    for spec in DATASETS {
        let g = build_dataset(spec.name, scale);
        println!(
            "{:<6} {:<16} {:>10} {:>12} {:>10}",
            spec.name,
            spec.region,
            g.num_vertices(),
            g.num_edges(),
            fmt_bytes(g.memory_bytes())
        );
    }
}
