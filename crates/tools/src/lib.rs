//! # mercury-tools — the Mercury suite as command-line programs
//!
//! The paper deploys Mercury as cooperating processes (Figure 2): the
//! solver on its own machine, a `monitord` per emulated server, the
//! sensor library linked into applications, and `fiddle` run by the
//! experimenter. This crate packages those as binaries:
//!
//! | binary | role |
//! |--------|------|
//! | `mercury-solverd` | loads a model (built-in preset or a `.mdl` file) and serves the UDP protocol |
//! | `mercury-monitord` | samples Linux `/proc` (or a synthetic load) and streams utilization updates |
//! | `mercury-fiddle` | sends one fiddle command, or replays a script, against a running solver |
//! | `mercury-sensor` | the Figure 3 client: open, read (optionally repeatedly), close |
//! | `mercury-stats` | scrapes a running solver's telemetry registry and pretty-prints (or dumps) the Prometheus exposition |
//! | `mercury-trace` | fetches a solver's span buffer and converts dumps/incident bundles to Chrome trace-event JSON |
//! | `mercury-top` | live terminal console over the solver's sampled history: cluster heatmap, hottest machines with sparklines, activity rates |
//!
//! A three-terminal session:
//!
//! ```text
//! $ mercury-solverd --bind 0.0.0.0:8367 --model assets/server.mdl --machine server
//! $ mercury-monitord --solver solvermachine:8367 --machine server --cpu cpu --disk disk_platters sda
//! $ mercury-sensor --solver solvermachine:8367 --node disk_shell --watch 1
//! $ mercury-fiddle --solver solvermachine:8367 server temperature inlet 30
//! ```
//!
//! The small argument-parsing helpers live here so all four binaries
//! share one vocabulary and error style.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::net::{SocketAddr, ToSocketAddrs};

/// A parsed `--key value` style argument list.
#[derive(Debug, Clone, Default)]
pub struct Args {
    flags: Vec<(String, Option<String>)>,
    positional: Vec<String>,
}

/// Flags that never take a value (everything else is `--key value`).
const BOOLEAN_FLAGS: &[&str] = &["list", "verbose", "help", "raw", "trace", "jsonl", "once"];

impl Args {
    /// Parses the process arguments: `--key value` pairs, a fixed set of
    /// boolean flags (`list`, `verbose`, `help`), and positional words.
    pub fn parse(raw: impl Iterator<Item = String>) -> Args {
        let mut args = Args::default();
        let mut raw = raw.peekable();
        while let Some(word) = raw.next() {
            if let Some(key) = word.strip_prefix("--") {
                let value = if BOOLEAN_FLAGS.contains(&key) {
                    None
                } else {
                    match raw.peek() {
                        Some(next) if !next.starts_with("--") => raw.next(),
                        _ => None,
                    }
                };
                args.flags.push((key.to_string(), value));
            } else {
                args.positional.push(word);
            }
        }
        args
    }

    /// The value of `--key`, if present with a value.
    pub fn value(&self, key: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| v.as_deref())
    }

    /// Whether `--key` was given at all.
    pub fn has(&self, key: &str) -> bool {
        self.flags.iter().any(|(k, _)| k == key)
    }

    /// Positional words, in order.
    pub fn positional(&self) -> &[String] {
        &self.positional
    }

    /// The value of `--key`, or an error message naming it.
    pub fn require(&self, key: &str) -> Result<&str, String> {
        self.value(key)
            .ok_or_else(|| format!("missing required --{key} <value>"))
    }
}

/// Resolves a `host:port` string to a socket address.
///
/// # Errors
///
/// Returns a human-readable message when resolution fails.
pub fn resolve(addr: &str) -> Result<SocketAddr, String> {
    addr.to_socket_addrs()
        .map_err(|e| format!("cannot resolve `{addr}`: {e}"))?
        .next()
        .ok_or_else(|| format!("`{addr}` resolved to no addresses"))
}

/// Loads a machine model: either a built-in preset name
/// (`table1`/`validation` or `freon`) or a path to a `.mdl` file (in
/// which case `machine` selects which machine the file defines).
///
/// # Errors
///
/// Returns a message for unknown presets, unreadable files, parse
/// failures, or a missing machine name.
pub fn load_machine(
    model: &str,
    machine: Option<&str>,
) -> Result<mercury::model::MachineModel, String> {
    match model {
        "table1" | "validation" => Ok(mercury::presets::validation_machine()),
        "freon" => Ok(mercury::presets::freon_machine()),
        path => {
            let source = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read model file `{path}`: {e}"))?;
            let library = mercury_graphdl::parse(&source).map_err(|e| format!("{path}: {e}"))?;
            match machine {
                Some(name) => library
                    .machine(name)
                    .cloned()
                    .ok_or_else(|| format!("`{path}` defines no machine `{name}`")),
                None if library.machines().len() == 1 => Ok(library.machines()[0].clone()),
                None => Err(format!(
                    "`{path}` defines {} machines; pick one with --machine",
                    library.machines().len()
                )),
            }
        }
    }
}

/// Loads a cluster model from a `.mdl` file, or the built-in Figure 1c
/// room (`room:<n>` / `freon-room:<n>`).
///
/// # Errors
///
/// As [`load_machine`].
pub fn load_cluster(
    model: &str,
    cluster: Option<&str>,
) -> Result<mercury::model::ClusterModel, String> {
    if let Some(n) = model.strip_prefix("room:") {
        let n: usize = n
            .parse()
            .map_err(|_| format!("bad machine count in `{model}`"))?;
        return Ok(mercury::presets::validation_cluster(n));
    }
    if let Some(n) = model.strip_prefix("freon-room:") {
        let n: usize = n
            .parse()
            .map_err(|_| format!("bad machine count in `{model}`"))?;
        return Ok(mercury::presets::freon_cluster(n));
    }
    let source = std::fs::read_to_string(model)
        .map_err(|e| format!("cannot read model file `{model}`: {e}"))?;
    let library = mercury_graphdl::parse(&source).map_err(|e| format!("{model}: {e}"))?;
    match cluster {
        Some(name) => library
            .cluster(name)
            .cloned()
            .ok_or_else(|| format!("`{model}` defines no cluster `{name}`")),
        None if library.clusters().len() == 1 => Ok(library.clusters()[0].1.clone()),
        None => Err(format!(
            "`{model}` defines {} clusters; pick one with --cluster",
            library.clusters().len()
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(words: &[&str]) -> Args {
        Args::parse(words.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_flags_values_and_positionals() {
        let a = args(&[
            "--bind",
            "0.0.0.0:8367",
            "--verbose",
            "server",
            "temperature",
            "inlet",
            "30",
        ]);
        assert_eq!(a.value("bind"), Some("0.0.0.0:8367"));
        assert!(a.has("verbose"));
        assert_eq!(a.value("verbose"), None);
        assert!(!a.has("quiet"));
        assert_eq!(a.positional(), &["server", "temperature", "inlet", "30"]);
        assert!(a.require("bind").is_ok());
        assert!(a.require("missing").is_err());
    }

    #[test]
    fn later_flags_win() {
        let a = args(&["--port", "1", "--port", "2"]);
        assert_eq!(a.value("port"), Some("2"));
    }

    #[test]
    fn resolve_handles_good_and_bad_addresses() {
        assert!(resolve("127.0.0.1:8367").is_ok());
        assert!(resolve("definitely not an address").is_err());
    }

    #[test]
    fn load_machine_presets_and_errors() {
        assert_eq!(load_machine("table1", None).unwrap().name(), "server");
        assert_eq!(load_machine("freon", None).unwrap().name(), "server");
        assert!(load_machine("/no/such/file.mdl", None).is_err());
    }

    #[test]
    fn load_machine_from_file() {
        let dir = std::env::temp_dir().join(format!("mercury-tools-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tiny.mdl");
        std::fs::write(
            &path,
            "machine tiny { cpu [type=component, mass=0.1, c=896, pmin=7, pmax=31];\n\
             inlet [type=inlet]; a [type=air]; exhaust [type=exhaust];\n\
             cpu -- a [k=0.75]; inlet -> a [fraction=1]; a -> exhaust [fraction=1]; }",
        )
        .unwrap();
        let model = load_machine(path.to_str().unwrap(), None).unwrap();
        assert_eq!(model.name(), "tiny");
        let model = load_machine(path.to_str().unwrap(), Some("tiny")).unwrap();
        assert_eq!(model.name(), "tiny");
        assert!(load_machine(path.to_str().unwrap(), Some("ghost")).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_cluster_presets() {
        assert_eq!(load_cluster("room:4", None).unwrap().machines().len(), 4);
        assert_eq!(
            load_cluster("freon-room:2", None).unwrap().machines().len(),
            2
        );
        assert!(load_cluster("room:x", None).is_err());
        assert!(load_cluster("/no/such.mdl", None).is_err());
    }
}
