//! Records the build's host facts for the result's host block: the
//! compiler version and the repository commit (read from `.git` when
//! the sources are a git checkout, `unknown` otherwise).

use std::path::Path;
use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_owned());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned());
    println!("cargo:rustc-env=LAYERBENCH_RUSTC={version}");

    let git = Path::new("../.git");
    println!(
        "cargo:rustc-env=LAYERBENCH_COMMIT={}",
        commit(git).unwrap_or_else(|| "unknown".to_owned())
    );
    println!("cargo:rerun-if-changed=../.git/HEAD");
    println!("cargo:rerun-if-changed=../.git/refs/heads");
    println!("cargo:rerun-if-changed=build.rs");
}

/// Resolves `HEAD` by hand (loose ref, then `packed-refs`), so the
/// build never runs `git`, which would search parent directories.
fn commit(git: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return Some(head.to_owned());
    };
    if let Ok(id) = std::fs::read_to_string(git.join(name)) {
        return Some(id.trim().to_owned());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|line| {
        let (id, reference) = line.split_once(' ')?;
        (reference == name).then(|| id.to_owned())
    })
}
