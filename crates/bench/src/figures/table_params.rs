//! Fig. 2 — the simulation parameters, rendered from the `pqs_net::config`
//! constants and the config and workload defaults, so that a change to
//! any of them moves this figure's export.

use pqs_bench::Bench;
use pqs_core::workload::WorkloadConfig;
use pqs_net::config::{
    ACK_BYTES, ACK_TIMEOUT_SLACK, BROADCAST_JITTER, BROADCAST_RATE_BPS, CROSSOVER_M, CW_MAX,
    CW_MIN, DIFS, HEADER_BYTES, HEARTBEAT_EXPIRY_CYCLES, HEARTBEAT_PERIOD, HELLO_BYTES,
    IDEAL_RANGE_M, INTERFERENCE_RANGE_M, NOISE_DBM, PAYLOAD_BYTES, PLCP, RETRY_LIMIT,
    RX_THRESHOLD_DBM, SIFS, SLOT, TX_POWER_DBM, UNICAST_RATE_BPS,
};
use pqs_net::{MobilityModel, NetConfig, ReceptionModel};
use pqs_sim::SimDuration;

pub fn run(b: &mut Bench) {
    let cfg = NetConfig::paper(800);
    let dbm = |x: f64| format!("{x} dBm");
    let m = |x: f64| format!("{x:.0} m");
    let us = |d: SimDuration| format!("{} us", d.as_micros());
    let secs = |d: SimDuration| format!("{} s", d.as_secs_f64());
    let mbps = |bps: u64| bps / 1_000_000;

    let reception = match cfg.phy.reception {
        ReceptionModel::Physical { beta } => format!("cumulative noise, SINR >= {beta}, capture"),
        ReceptionModel::Protocol { range_m, delta } => {
            format!("protocol model, range {range_m} m, delta {delta}")
        }
    };
    section(
        b,
        "Fig. 2: PHY",
        [
            ("Propagation", format!("two-ray ground, crossover {}", m(CROSSOVER_M))),
            ("Reception", reception),
            ("Transmit power", dbm(TX_POWER_DBM)),
            ("Receive threshold", dbm(RX_THRESHOLD_DBM)),
            ("Carrier-sense threshold", dbm(cfg.phy.cs_threshold_dbm)),
            ("Background noise", dbm(NOISE_DBM)),
            ("Ideal reception range", m(IDEAL_RANGE_M)),
            ("Carrier sensing range", m(cfg.phy.cs_range_m()) + " (paper: 299 m)"),
            ("Interference range", m(INTERFERENCE_RANGE_M)),
        ],
    );

    let rates = (mbps(UNICAST_RATE_BPS), mbps(BROADCAST_RATE_BPS));
    section(
        b,
        "Fig. 2: MAC (802.11b DSSS, long preamble)",
        [
            ("Slot time", us(SLOT)),
            ("DIFS", us(DIFS)),
            ("SIFS", us(SIFS)),
            ("Contention window", format!("{CW_MIN}-{CW_MAX} slots")),
            ("Unicast / broadcast rate", format!("{} / {} Mb/s", rates.0, rates.1)),
            ("Retry limit", RETRY_LIMIT.to_string()),
            ("Broadcast jitter", us(BROADCAST_JITTER)),
            ("PLCP preamble", us(PLCP)),
            ("ACK frame", format!("{ACK_BYTES} B")),
            ("ACK timeout slack", us(ACK_TIMEOUT_SLACK)),
        ],
    );

    let mobility = match MobilityModel::default() {
        MobilityModel::RandomWaypoint {
            min_speed,
            max_speed,
            pause,
        } => format!("random waypoint {min_speed}-{max_speed} m/s, pause {}", secs(pause)),
        MobilityModel::Static => "static".into(),
    };
    let heartbeat = format!(
        "{}, expiry after {HEARTBEAT_EXPIRY_CYCLES} cycles",
        secs(HEARTBEAT_PERIOD)
    );
    let w = WorkloadConfig::default();
    let accesses = format!("{} / {} ({} lookers)", w.advertisements, w.lookups, w.lookers);
    section(
        b,
        "Fig. 2: scenario",
        [
            ("Message size", format!("{PAYLOAD_BYTES} B + {HEADER_BYTES} B headers")),
            ("Hello size", format!("{HELLO_BYTES} B")),
            ("Node counts", "50, 100, 200, 400, 800".into()),
            ("Density (neighbours)", format!("{}, swept 7/10/15/20/25", cfg.avg_degree)),
            ("Mobility", mobility),
            ("Routing protocol", "AODV, destination-only replies".into()),
            ("Heartbeat cycle", heartbeat),
            ("Advertisements / lookups", accesses),
            ("Area side, n = 800", m(cfg.area_side_m()) + " (a^2 = pi r^2 n / d)"),
        ],
    );
}

/// One table of `(parameter, value)` rows.
fn section<const N: usize>(b: &mut Bench, title: &str, rows: [(&str, String); N]) {
    b.header(title, &["parameter", "value"]);
    for (name, value) in rows {
        b.row(&[name.to_string(), value]);
    }
}
