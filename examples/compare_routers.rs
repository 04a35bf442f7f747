//! Compare the three router variants (CUGR baseline, FastGR_L, FastGR_H)
//! on one congested suite benchmark — a one-design slice of Tables VII–IX.
//!
//! ```text
//! cargo run --release --example compare_routers [benchmark-name]
//! ```

use fastgr::core::{Router, RouterConfig};
use fastgr::design::BenchmarkSpec;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "s18t5m".to_owned());
    let spec = BenchmarkSpec::find(&name)
        .ok_or_else(|| format!("unknown benchmark {name:?}; see `fastgr::design::suite()`"))?;
    let design = spec.generate();
    println!("{design} (analogue of ICCAD2019 {})\n", spec.paper_analogue);

    let variants = [
        ("CUGR (baseline)", RouterConfig::cugr()),
        ("FastGR_L", RouterConfig::fastgr_l()),
        ("FastGR_H", RouterConfig::fastgr_h()),
    ];

    let mut baseline_total = None;
    for (label, config) in variants {
        let outcome = Router::new(config).run(&design)?;
        let total = outcome.timings.total_seconds();
        let speedup = baseline_total
            .map(|b: f64| format!("{:.2}x", b / total))
            .unwrap_or_else(|| "1.00x".to_owned());
        baseline_total.get_or_insert(total);
        println!("{label}");
        println!("  quality:  {}", outcome.metrics);
        println!("  timings:  {}", outcome.timings);
        println!("  speedup:  {speedup} over the baseline (reported seconds)");
        println!("  ripped:   {:?}", outcome.trace.nets_ripped());
        println!();
    }
    Ok(())
}
