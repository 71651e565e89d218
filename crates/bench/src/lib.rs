//! # wn-bench — the experiment harness
//!
//! Two entry points:
//!
//! * the **`experiments` binary** (`cargo run --release -p wn-bench --bin
//!   experiments -- all`) regenerates every table and figure of the
//!   paper's evaluation, printing the same rows/series the paper reports
//!   and writing CSVs under `results/`;
//! * the **Criterion benches** (`cargo bench`) time each experiment
//!   regeneration (`benches/figures.rs`), sweep the design space the
//!   paper calls out (`benches/ablations.rs`), measure raw substrate
//!   throughput (`benches/simulator.rs`), and guard the disabled-sink
//!   telemetry overhead (`benches/telemetry.rs`).
//!
//! The [`manifest`] module carries run provenance: the
//! `results/manifest.json` written after every `experiments` invocation
//! and the `BENCH_*.json` perf-trajectory records.

use std::env;
use std::ffi::OsString;
use std::fs;
use std::path::{Path, PathBuf};

pub mod manifest;

/// Where experiment artifacts (CSV series, PGM images) are written:
/// `$WN_RESULTS_DIR` when set, otherwise `results/` under the workspace
/// root — **not** the current directory, which depends on how cargo was
/// invoked and used to scatter artifacts.
pub fn results_dir() -> PathBuf {
    results_dir_from(env::var_os("WN_RESULTS_DIR"))
}

/// [`results_dir`] as a pure function of the `WN_RESULTS_DIR` value.
fn results_dir_from(over: Option<OsString>) -> PathBuf {
    over.map_or_else(|| workspace_root().join("results"), PathBuf::from)
}

/// The workspace root: the nearest ancestor of this crate's manifest
/// whose `Cargo.toml` declares `[workspace]`.
pub fn workspace_root() -> PathBuf {
    let manifest_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    manifest_dir
        .ancestors()
        .find(|dir| {
            fs::read_to_string(dir.join("Cargo.toml"))
                .is_ok_and(|toml| toml.contains("[workspace]"))
        })
        .unwrap_or(manifest_dir)
        .to_path_buf()
}

/// Writes an artifact into the results directory, creating it on demand.
///
/// # Errors
///
/// Returns any I/O error from creating the directory or writing the file.
pub fn write_artifact(name: &str, contents: &str) -> std::io::Result<PathBuf> {
    write_artifact_in(&results_dir(), name, contents)
}

fn write_artifact_in(dir: &Path, name: &str, contents: &str) -> std::io::Result<PathBuf> {
    fs::create_dir_all(dir)?;
    let path = dir.join(name);
    fs::write(&path, contents)?;
    Ok(path)
}

/// Reads back an artifact (for tests).
///
/// # Errors
///
/// Returns any I/O error.
pub fn read_artifact(name: &str) -> std::io::Result<String> {
    read_artifact_in(&results_dir(), name)
}

fn read_artifact_in(dir: &Path, name: &str) -> std::io::Result<String> {
    fs::read_to_string(dir.join(name))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_dir_is_workspace_rooted_and_overridable() {
        // Without the override, artifacts land under the workspace root
        // (which contains this crate), wherever cargo was invoked from.
        let default_dir = results_dir_from(None);
        assert!(default_dir.ends_with("results"));
        assert!(default_dir
            .parent()
            .unwrap()
            .join("crates")
            .join("bench")
            .is_dir());
        // The override wins verbatim.
        let over = env::temp_dir().join("wn-bench-override");
        assert_eq!(results_dir_from(Some(over.clone().into())), over);
    }

    #[test]
    fn artifact_roundtrip_in_isolated_dir() {
        // An explicit temp dir keeps the test off the real results/
        // tree without touching the process-wide environment.
        let dir = env::temp_dir().join(format!("wn-bench-test-{}", std::process::id()));
        let path = write_artifact_in(&dir, "__test.csv", "a,b\n1,2\n").unwrap();
        assert!(path.starts_with(&dir));
        assert!(path.exists());
        assert_eq!(read_artifact_in(&dir, "__test.csv").unwrap(), "a,b\n1,2\n");
        fs::remove_dir_all(&dir).unwrap();
    }
}
