//! A mobile location service: the paper's motivating application (§1).
//!
//! Nodes in a walking-speed MANET publish their (encoded) location via
//! the advertise quorum; other nodes find them via cheap UNIQUE-PATH
//! lookups. The example demonstrates the maintenance machinery working
//! under mobility: random-walk salvation keeps the walks alive, and
//! reply-path reduction + local repair keep the replies flowing.
//!
//! Run with: `cargo run --release --example location_service`

use pqs::core::runner::{run_scenario, ScenarioConfig};
use pqs::core::workload::WorkloadConfig;
use pqs::net::MobilityModel;

fn scenario(speed: f64, repair: bool) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::paper(100);
    cfg.net.mobility = MobilityModel::fast(speed);
    cfg.workload = WorkloadConfig::small(15, 80);
    cfg.service.reply_repair = repair;
    cfg
}

fn main() {
    println!("location service under mobility (100 nodes, d_avg = 10)");
    println!("advertise: RANDOM(2√n)   lookup: UNIQUE-PATH(1.15√n)");
    println!();
    println!(
        "{:>10} {:>8} {:>10} {:>14} {:>12} {:>10}",
        "max speed", "repair", "hit ratio", "intersection", "reply drops", "salvages"
    );

    for &speed in &[2.0, 10.0, 20.0] {
        for &repair in &[false, true] {
            let cfg = scenario(speed, repair);
            let m = run_scenario(&cfg, 7);
            println!(
                "{:>8} m/s {:>8} {:>10.3} {:>14.3} {:>12} {:>10}",
                speed,
                if repair { "local+g" } else { "off" },
                m.hit_ratio(),
                m.intersection_ratio(),
                m.reply_drops,
                m.counters.salvations,
            );
        }
    }

    println!();
    println!("reading the table (the Fig. 13/14 phenomenon):");
    println!(" - the *intersection* column barely moves with speed: RW salvation");
    println!("   re-aims each walk step when the MAC reports a broken link;");
    println!(" - without repair, fast mobility silently drops *replies* on the");
    println!("   stale reverse path, so the hit ratio falls below intersection;");
    println!(" - TTL-3 local repair (plus a global fallback) closes the gap.");
}
