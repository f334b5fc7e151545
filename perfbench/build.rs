//! Records the compiler version and commit for the host fingerprint.

use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let verbose = Command::new(rustc)
        .arg("-vV")
        .output()
        .ok()
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .unwrap_or_default();
    let field = |key: &str| {
        verbose
            .lines()
            .find_map(|line| line.strip_prefix(key))
            .map_or_else(|| "unknown".to_string(), |v| v.trim().to_string())
    };
    println!("cargo:rustc-env=PERFBENCH_RUSTC_VERSION={}", field("release:"));
    println!("cargo:rustc-env=PERFBENCH_RUSTC_COMMIT={}", field("commit-hash:"));
    println!("cargo:rerun-if-changed=build.rs");
}
