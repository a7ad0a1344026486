//! Workspace discovery: find the root, walk the tree, map files to
//! crates and crates to determinism tiers.

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// How strictly a crate is held to the determinism rules (D1–D3).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tier {
    /// Inside the simulation boundary: everything must be a pure function
    /// of (config, seed). Wall-clock, ambient entropy and hash-order
    /// iteration are findings.
    Deterministic,
    /// Outside the boundary (threaded runtime, benches, CLI): D1–D3 do
    /// not apply, but the meta-rules (D4) and the unwrap budget (D5) do.
    Exempt,
}

/// Crates inside the simulation boundary. Everything else is exempt.
/// `runtime` is exempt by design — it is the real-thread harness whose
/// whole job is to exercise wall-clock behaviour; `bench`/`cli` talk to
/// the outside world; `root` is the integration-test umbrella package.
const DETERMINISTIC: &[&str] = &[
    "sim",
    "core",
    "causality",
    "baselines",
    "storage",
    "metrics",
    "harness",
    "telemetry",
    "simlint",
];

/// Directories never descended into. `compat/` holds vendored
/// third-party subsets we do not own the style of.
const SKIP_DIRS: &[&str] = &["target", ".git", "compat", ".github"];

/// Directories holding a Cargo workspace of their own that builds against
/// this one by path (the benchmark). Each maps to its own crate key, and
/// call resolution never links into one from outside it: it depends on
/// this workspace, never the reverse.
pub const NESTED_WORKSPACES: &[&str] = &["perfbench"];

/// The tier of a crate key from [`crate_key`].
pub fn tier_of(key: &str) -> Tier {
    if DETERMINISTIC.contains(&key) {
        Tier::Deterministic
    } else {
        Tier::Exempt
    }
}

/// Map a root-relative path (forward slashes) to its owning crate key:
/// `crates/<name>/…` → `<name>`, a [`NESTED_WORKSPACES`] directory → its
/// name, anything else (root `src/`, `tests/`, `examples/`) → `root`.
pub fn crate_key(rel: &str) -> String {
    if let Some(rest) = rel.strip_prefix("crates/") {
        if let Some((name, _)) = rest.split_once('/') {
            return name.to_string();
        }
    }
    if let Some((top, _)) = rel.split_once('/') {
        if NESTED_WORKSPACES.contains(&top) {
            return top.to_string();
        }
    }
    "root".to_string()
}

/// True when the path itself marks test-only code: integration tests,
/// benches and examples are compiled into separate test/bench binaries,
/// so the determinism rules D1–D3 do not apply (the unwrap budget still
/// does).
pub fn path_is_test(rel: &str) -> bool {
    rel.starts_with("tests/")
        || rel.starts_with("examples/")
        || rel.contains("/tests/")
        || rel.contains("/benches/")
        || rel.contains("/examples/")
}

/// Walk up from `start` to the first directory whose `Cargo.toml`
/// declares `[workspace]`.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.lines().any(|l| l.trim() == "[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// Collect every `.rs` file under `root` (skipping `SKIP_DIRS`),
/// keyed by root-relative forward-slash path. The BTreeMap makes the
/// scan order — and therefore every diagnostic and the JSON report —
/// independent of filesystem enumeration order.
pub fn collect_rs_files(root: &Path) -> io::Result<BTreeMap<String, PathBuf>> {
    let mut out = BTreeMap::new();
    walk(root, root, &mut out)?;
    Ok(out)
}

fn walk(root: &Path, dir: &Path, out: &mut BTreeMap<String, PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            walk(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .map_err(|_| io::Error::new(io::ErrorKind::Other, "path escaped root"))?;
            let rel = rel
                .components()
                .map(|c| c.as_os_str().to_string_lossy().into_owned())
                .collect::<Vec<_>>()
                .join("/");
            out.insert(rel, path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_keys_map_as_expected() {
        assert_eq!(crate_key("crates/sim/src/lib.rs"), "sim");
        assert_eq!(crate_key("crates/core/tests/proptests.rs"), "core");
        assert_eq!(crate_key("src/lib.rs"), "root");
        assert_eq!(crate_key("tests/determinism.rs"), "root");
        assert_eq!(crate_key("perfbench/src/workload.rs"), "perfbench");
    }

    #[test]
    fn tiers_split_on_the_simulation_boundary() {
        for k in ["sim", "core", "causality", "harness", "telemetry", "simlint", "storage"] {
            assert_eq!(tier_of(k), Tier::Deterministic, "{k}");
        }
        for k in ["runtime", "bench", "cli", "root", "unknown-crate"] {
            assert_eq!(tier_of(k), Tier::Exempt, "{k}");
        }
    }

    #[test]
    fn path_test_detection() {
        assert!(path_is_test("tests/determinism.rs"));
        assert!(path_is_test("crates/core/tests/proptests.rs"));
        assert!(path_is_test("crates/bench/benches/scheduler_micro.rs"));
        assert!(!path_is_test("crates/core/src/protocol.rs"));
    }

    #[test]
    fn find_root_locates_this_workspace() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_root(here).expect("workspace root must exist above simlint");
        assert!(root.join("Cargo.toml").exists());
        assert!(root.join("crates/simlint").exists());
    }
}
