//! Environment knobs for the serve binaries, following the workspace
//! convention: parsed and validated once, at the top of `main`; unset
//! means default, and a malformed value is an error the binary reports
//! and exits 2 on — before any socket is bound — instead of silently
//! running a default configuration.

use std::path::PathBuf;

/// The five `PQS_SERVE_*` variables. [`Knobs::from_env`] is the only
/// place they are read; each binary uses the fields it needs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Knobs {
    /// `PQS_SERVE_NODES`: cluster size (default 5, minimum 2).
    pub nodes: usize,
    /// `PQS_SERVE_SEED`: master seed for quorum sampling (`pqs_serve`)
    /// and the workload (`serve_load`) (default 1).
    pub seed: u64,
    /// `PQS_SERVE_RUN_SECS`: if set, `pqs_serve` auto-drains after this
    /// many seconds instead of waiting for an external `DrainReq`.
    pub run_secs: Option<u64>,
    /// `PQS_SERVE_PORTS_FILE`: if set, `pqs_serve` also writes its bound
    /// addresses to this path.
    pub ports_file: Option<PathBuf>,
    /// `PQS_SERVE_METRICS`: if set, `pqs_serve` also writes its final
    /// per-node counters to this path as JSON.
    pub metrics: Option<PathBuf>,
}

impl Knobs {
    /// Reads and validates every `PQS_SERVE_*` variable. The caller
    /// reports the message and exits 2.
    pub fn from_env() -> Result<Knobs, String> {
        Knobs::parse(|name| std::env::var(name).ok())
    }

    /// [`Knobs::from_env`] over a lookup function (`None` = unset).
    fn parse(var: impl Fn(&str) -> Option<String>) -> Result<Knobs, String> {
        let count = |name: &str| var(name).map(|raw| parse_count(name, &raw)).transpose();
        let nodes = count("PQS_SERVE_NODES")?.unwrap_or(5);
        if nodes < 2 {
            return Err(format!(
                "PQS_SERVE_NODES={nodes}: a cluster needs at least 2 nodes"
            ));
        }
        Ok(Knobs {
            nodes: nodes as usize,
            seed: match var("PQS_SERVE_SEED") {
                None => 1,
                Some(raw) => raw
                    .trim()
                    .parse()
                    .map_err(|e| format!("PQS_SERVE_SEED={raw}: not a seed ({e})"))?,
            },
            run_secs: count("PQS_SERVE_RUN_SECS")?,
            ports_file: var("PQS_SERVE_PORTS_FILE").map(PathBuf::from),
            metrics: var("PQS_SERVE_METRICS").map(PathBuf::from),
        })
    }
}

/// Parses a positive integer knob value.
fn parse_count(name: &str, raw: &str) -> Result<u64, String> {
    match raw.trim().parse::<u64>() {
        Ok(0) => Err(format!("{name}={raw}: must be at least 1")),
        Ok(n) => Ok(n),
        Err(e) => Err(format!("{name}={raw}: not a count ({e})")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn knobs(set: &[(&str, &str)]) -> Result<Knobs, String> {
        Knobs::parse(|name| {
            let hit = set.iter().find(|(k, _)| *k == name);
            hit.map(|(_, v)| v.to_string())
        })
    }

    #[test]
    fn unset_means_default() {
        let k = knobs(&[]).expect("defaults are valid");
        assert_eq!((k.nodes, k.seed), (5, 1));
        assert_eq!((k.run_secs, k.ports_file, k.metrics), (None, None, None));
    }

    #[test]
    fn counts_parse_strictly() {
        let nodes = |raw| knobs(&[("PQS_SERVE_NODES", raw)]).map(|k| k.nodes);
        assert_eq!(nodes("12"), Ok(12));
        assert_eq!(nodes(" 7 "), Ok(7));
        for bad in ["0", "-3", "12k", ""] {
            assert!(nodes(bad).is_err(), "{bad:?}");
        }
        assert!(knobs(&[("PQS_SERVE_RUN_SECS", "soon")]).is_err());
        assert_eq!(
            knobs(&[("PQS_SERVE_RUN_SECS", "3")]).map(|k| k.run_secs),
            Ok(Some(3))
        );
        assert!(knobs(&[("PQS_SERVE_NODES", "1")]).is_err(), "below 2");
    }

    #[test]
    fn seeds_parse_strictly() {
        assert_eq!(knobs(&[("PQS_SERVE_SEED", "0")]).map(|k| k.seed), Ok(0));
        assert!(knobs(&[("PQS_SERVE_SEED", "abc")]).is_err());
        // One bad variable fails the whole environment, whichever
        // binary reads it.
        assert!(knobs(&[("PQS_SERVE_NODES", "9"), ("PQS_SERVE_RUN_SECS", "lots")]).is_err());
    }
}
