//! Stamps the build with the compiler version and the git revision of
//! the checkout (read from `.git` directly; a checkout without one
//! stamps `unknown`).

use std::path::Path;
use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");

    let manifest = std::env::var("CARGO_MANIFEST_DIR").expect("cargo sets CARGO_MANIFEST_DIR");
    let git = Path::new(&manifest).join("..").join(".git");
    println!("cargo:rustc-env=PERFBENCH_GIT_REV={}", git_revision(&git));
    // Only existing paths: a missing one would re-run this script (and
    // rebuild the benchmark) on every invocation.
    for watched in [git.join("HEAD"), git.join("refs"), git.join("packed-refs")] {
        if watched.exists() {
            println!("cargo:rerun-if-changed={}", watched.display());
        }
    }
    println!("cargo:rerun-if-changed=build.rs");
}

fn git_revision(git: &Path) -> String {
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Some(rev) = read(&git.join(reference)) {
        return rev;
    }
    read(&git.join("packed-refs"))
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (rev, name) = line.split_once(' ')?;
                (name == reference).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}
