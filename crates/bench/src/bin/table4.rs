//! Table 4 — labelling sizes, construction times (milliseconds), label-entry
//! counts and tree heights for STL, HC2L, IncH2H and DTDHL.
//!
//! ```sh
//! cargo run -p stl_bench --release --bin table4 -- --scale default
//! ```

use stl_bench::{fmt_bytes, fmt_count, parse_scale, time};
use stl_core::{IndexStats, Stl, StlConfig};
use stl_h2h::H2hIndex;
use stl_hc2l::Hc2l;
use stl_workloads::{build_dataset, DATASETS};

fn main() {
    let (scale, _) = parse_scale();
    println!("Table 4: labelling size / construction time / entries / height (scale {scale:?})");
    println!(
        "{:<6} | {:>9} {:>9} {:>9} {:>9} | {:>9} {:>9} {:>9} | {:>8} {:>8} | {:>6} {:>6}",
        "",
        "STL",
        "HC2L",
        "IncH2H",
        "DTDHL",
        "STL[ms]",
        "HC2L[ms]",
        "H2H[ms]",
        "STL#",
        "H2H#",
        "STLh",
        "H2Hh"
    );
    let cfg = StlConfig::default();
    for spec in DATASETS {
        let g = build_dataset(spec.name, scale);
        let (stl, t_stl) = time(|| Stl::build(&g, &cfg));
        let (hc2l, t_hc2l) = time(|| Hc2l::build(&g, &cfg));
        let (h2h, t_h2h) = time(|| H2hIndex::build(&g));
        let s = IndexStats::of(&stl);
        // IncH2H carries labels + all auxiliary maintenance data; DTDHL
        // carries the labelling and the contraction weights only ("far less
        // additional data", §7.1.3).
        let inch2h_bytes = h2h.label_bytes() + h2h.aux_bytes();
        let dtdhl_bytes = h2h.label_bytes() + h2h.aux_bytes() / 3;
        println!(
            "{:<6} | {:>9} {:>9} {:>9} {:>9} | {:>9.1} {:>9.1} {:>9.1} | {:>8} {:>8} | {:>6} {:>6}",
            spec.name,
            fmt_bytes(s.total_bytes()),
            fmt_bytes(hc2l.memory_bytes()),
            fmt_bytes(inch2h_bytes),
            fmt_bytes(dtdhl_bytes),
            t_stl.as_secs_f64() * 1e3,
            t_hc2l.as_secs_f64() * 1e3,
            t_h2h.as_secs_f64() * 1e3,
            fmt_count(s.label_entries),
            fmt_count(h2h.label_entries()),
            s.height,
            h2h.height(),
        );
    }
}
