//! CI-style documentation and build health checks.
//!
//! `crates/simt` opts into `#![warn(missing_docs)]` and the crates
//! cross-link their rustdoc; the first test keeps that from rotting by
//! rebuilding the workspace docs with warnings denied as part of the
//! ordinary `cargo test` run. If it fails, run
//!
//! ```text
//! RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace
//! ```
//!
//! and fix what it reports (missing docs, broken intra-doc links, …).
//!
//! `cargo test` builds no example target, yet the examples call the
//! public API too; the second test checks every target of every workspace
//! crate and fails on any compiler warning. If it fails, run
//! `cargo check --workspace --all-targets` and fix what it reports.

use std::process::Command;

#[test]
fn workspace_docs_build_without_warnings() {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let manifest_dir = env!("CARGO_MANIFEST_DIR");
    let out = Command::new(cargo)
        .current_dir(manifest_dir)
        .args(["doc", "--no-deps", "--workspace", "--offline"])
        .env("RUSTDOCFLAGS", "-D warnings")
        .output()
        .expect("failed to spawn cargo doc");
    assert!(
        out.status.success(),
        "`cargo doc --no-deps --workspace` emitted warnings/errors:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn all_targets_check_without_warnings() {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let manifest_dir = env!("CARGO_MANIFEST_DIR");
    let out = Command::new(cargo)
        .current_dir(manifest_dir)
        .args(["check", "--workspace", "--all-targets", "--offline"])
        .output()
        .expect("failed to spawn cargo check");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success() && !stderr.lines().any(|l| l.starts_with("warning")),
        "`cargo check --workspace --all-targets` emitted warnings/errors:\n{stderr}"
    );
}
