//! Which code a result belongs to. A checkout that is a git repository
//! reports its HEAD commit; every checkout also reports a hash of the
//! library sources the benchmark was built from, so results from
//! exported trees (no `.git`) are still tied to their code.

use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

fn git_head(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .find(|l| l.ends_with(reference))
        .and_then(|l| l.split_whitespace().next())
        .map(str::to_string)
}

/// FNV-1a over the relative path and bytes of every workspace manifest
/// and Rust source file, in sorted path order.
fn source_hash(root: &Path) -> u64 {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                out.push(p);
            }
        }
    }
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    walk(&root.join("crates"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for f in &files {
        if let Ok(bytes) = std::fs::read(f) {
            eat(f
                .strip_prefix(root)
                .unwrap_or(f)
                .to_string_lossy()
                .as_bytes());
            eat(&bytes);
        }
    }
    h
}

/// `<git HEAD or "nogit">+src-<hash>`.
pub fn commit() -> String {
    let root = repo_root();
    let head = git_head(&root).unwrap_or_else(|| "nogit".into());
    format!("{head}+src-{:016x}", source_hash(&root))
}
