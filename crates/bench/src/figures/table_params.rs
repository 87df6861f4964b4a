//! Fig. 2 — the simulation parameters, printed from the live defaults so
//! the configuration cannot silently drift from the documentation.

use pqs_bench::Bench;
use pqs_net::{MobilityModel, NetConfig, PathLoss, ReceptionModel};

pub fn run(_b: &mut Bench) {
    let cfg = NetConfig::paper(800);
    println!("=== Fig. 2: simulation parameters (effective defaults) ===\n");
    println!("--- PHY ---");
    let pl = match cfg.phy.path_loss {
        PathLoss::TwoRayGround { crossover_m } => {
            format!("Two-ray ground reflection (crossover {crossover_m} m)")
        }
        PathLoss::FreeSpace => "Free space".into(),
    };
    println!("Signal propagation model      {pl}");
    let rx = match cfg.phy.reception {
        ReceptionModel::Physical { beta } => {
            format!("Cumulative noise, SINR >= {beta} (capture effect)")
        }
        ReceptionModel::Protocol { range_m, delta } => {
            format!("Protocol model, range {range_m} m, delta {delta}")
        }
    };
    println!("Signal interference model     {rx}");
    println!("Transmit power                {} dBm", cfg.phy.tx_power_dbm);
    println!(
        "Receive threshold             {} dBm",
        cfg.phy.rx_threshold_dbm
    );
    println!(
        "Carrier-sense threshold       {} dBm",
        cfg.phy.cs_threshold_dbm
    );
    println!("Background noise              {} dBm", cfg.phy.noise_dbm);
    println!("Ideal reception range         {} m", cfg.phy.ideal_range_m);
    println!(
        "Carrier sensing range         {:.0} m (paper quotes 299 m)",
        cfg.phy.cs_range_m()
    );
    println!("\n--- MAC ---");
    println!("Slot time                     {}", cfg.mac.slot);
    println!("DIFS                          {}", cfg.mac.difs);
    println!(
        "Unicast / broadcast rate      {} / {} Mb/s",
        cfg.mac.unicast_rate_bps / 1_000_000,
        cfg.mac.broadcast_rate_bps / 1_000_000
    );
    println!("Retry limit                   {}", cfg.mac.retry_limit);
    println!("Broadcast jitter              {}", cfg.mac.broadcast_jitter);
    println!("PLCP preamble                 {}", cfg.mac.plcp);
    println!("\n--- Scenario ---");
    println!(
        "Message size                  {} B + {} B headers",
        cfg.payload_bytes, cfg.mac.header_bytes
    );
    println!("Node counts                   50, 100, 200, 400, 800");
    println!(
        "Density (one-hop neighbours)  default {}, varying 7/10/15/20/25",
        cfg.avg_degree
    );
    let mob = match MobilityModel::default() {
        MobilityModel::RandomWaypoint {
            min_speed,
            max_speed,
            pause,
        } => format!("Random waypoint {min_speed}-{max_speed} m/s, pause {pause}"),
        MobilityModel::Static => "static".into(),
    };
    println!("Mobility                      {mob}");
    println!("Routing protocol              AODV (destination-only replies)");
    println!("Heartbeat cycle               {}", cfg.heartbeat_period);
    println!("Advertisements / lookups      100 / 1000 (25 lookers)");
    println!(
        "Area side at n=800, d=10      {:.0} m  (a^2 = pi r^2 n / d)",
        cfg.area_side_m()
    );
}
