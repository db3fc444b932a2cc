//! Build attribution for scrape surfaces.
//!
//! One `mercury_build_info` gauge — constant value 1, with the build's
//! identity in its labels — lets a dashboard or a post-incident reader
//! tell exactly which binary produced a scrape or an incident bundle:
//! crate version, git commit (when the build environment provides one),
//! and the SIMD backend the solver selected on this host.

use crate::solver::SimdBackend;
use telemetry::Registry;

/// Crate version baked in at compile time.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

/// Git commit hash, when `MERCURY_GIT_HASH` was set at compile time
/// (CI exports it); `"unknown"` for plain local builds.
pub const GIT_HASH: &str = match option_env!("MERCURY_GIT_HASH") {
    Some(hash) => hash,
    None => "unknown",
};

/// Version, git hash, and runtime-selected SIMD backend as label pairs —
/// the same triple the flight recorder stamps into incident bundles.
#[must_use]
pub fn build_labels() -> [(&'static str, &'static str); 3] {
    [
        ("version", VERSION),
        ("git", GIT_HASH),
        ("simd", SimdBackend::detect().name()),
    ]
}

/// Registers the `mercury_build_info` gauge (constant 1) on `registry`.
/// Idempotent: re-registering replaces the handle, never duplicates the
/// family.
pub fn register_build_info(registry: &Registry) {
    let labels = build_labels();
    let gauge = registry.gauge_with_labels(
        "mercury_build_info",
        "Constant 1; labels identify the build (version, git, simd backend)",
        &labels,
    );
    gauge.set(1.0);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_info_renders_with_identity_labels() {
        let registry = Registry::new();
        register_build_info(&registry);
        register_build_info(&registry); // idempotent
        let text = registry.render_prometheus();
        let lines: Vec<&str> = text
            .lines()
            .filter(|l| l.starts_with("mercury_build_info"))
            .collect();
        assert_eq!(lines.len(), 1, "one sample, not duplicates:\n{text}");
        assert!(lines[0].contains(&format!("version=\"{VERSION}\"")));
        assert!(lines[0].contains("git=\""));
        assert!(lines[0].contains("simd=\""));
        assert!(lines[0].trim_end().ends_with('1'));
    }
}
