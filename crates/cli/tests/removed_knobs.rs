//! The knobs of the removed pipelined, compressed, gallop and pruned
//! plans, and of the similarity join's removed candidate-chunk grain.
//!
//! Their `FESIA_*` variables are no longer read, so the startup scan
//! reports them as unrecognized, and the removed `FESIA_PLAN` modes warn
//! and leave the planner on auto. A machine profile that still carries
//! the removed keys keeps loading. Each check runs `fesia info` in a
//! child process, because the planner reads the environment once per
//! process.

use std::process::Command;
use std::sync::{Mutex, MutexGuard};

/// Serializes this file's environment reads (child spawns) against the
/// test that mutates this process's environment.
static ENV: Mutex<()> = Mutex::new(());

fn env_lock() -> MutexGuard<'static, ()> {
    ENV.lock().unwrap_or_else(|e| e.into_inner())
}

const REMOVED_VARS: [&str; 9] = [
    "FESIA_COMPRESS",
    "FESIA_COMPRESS_MIN",
    "FESIA_PIPELINE",
    "FESIA_PIPELINE_MIN",
    "FESIA_PREFETCH_DIST",
    "FESIA_PRUNE",
    "FESIA_PRUNE_MAX_SURVIVOR",
    "FESIA_PRUNE_MIN_BYTES",
    "FESIA_SIMJOIN_CHUNK",
];

/// Run `fesia info` on a small set with `env` added to a clean `FESIA_*`
/// environment whose profile is `profile` (none when `None`); returns
/// (stdout, stderr).
fn fesia_info_with_profile(
    test: &str,
    env: &[(&str, &str)],
    profile: Option<&str>,
) -> (String, String) {
    let dir = std::env::temp_dir().join(format!("fesia-knobs-{}-{test}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("s.fsia");
    let set = fesia_core::SegmentedSet::new(&[3, 9, 27]).unwrap();
    std::fs::write(&file, set.serialize()).unwrap();
    let guard = env_lock();
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_fesia"));
    cmd.arg("info").arg(&file);
    for (k, _) in std::env::vars() {
        if k.starts_with("FESIA_") {
            cmd.env_remove(k);
        }
    }
    let profile_path = dir.join("profile.json");
    if let Some(text) = profile {
        std::fs::write(&profile_path, text).unwrap();
    }
    cmd.env("FESIA_PROFILE", &profile_path);
    cmd.envs(env.iter().copied());
    let out = cmd.output().unwrap();
    drop(guard);
    std::fs::remove_dir_all(&dir).ok();
    assert!(out.status.success(), "{out:?}");
    (
        String::from_utf8(out.stdout).unwrap(),
        String::from_utf8(out.stderr).unwrap(),
    )
}

/// [`fesia_info_with_profile`] with no profile file.
fn fesia_info(test: &str, env: &[(&str, &str)]) -> (String, String) {
    fesia_info_with_profile(test, env, None)
}

#[test]
fn removed_variables_are_reported_unrecognized() {
    {
        let _guard = env_lock();
        for var in REMOVED_VARS {
            std::env::set_var(var, "1");
        }
        let unknown = fesia_core::params::env::unrecognized_vars();
        for var in REMOVED_VARS {
            std::env::remove_var(var);
            assert!(unknown.iter().any(|u| u == var), "{var} not in {unknown:?}");
        }
    }
    let env: Vec<(&str, &str)> = REMOVED_VARS.iter().map(|&v| (v, "1")).collect();
    let (_, stderr) = fesia_info("unrecognized", &env);
    assert!(
        stderr.contains(
            "unrecognized FESIA_* environment variable(s): FESIA_COMPRESS, \
             FESIA_COMPRESS_MIN, FESIA_PIPELINE, FESIA_PIPELINE_MIN, \
             FESIA_PREFETCH_DIST, FESIA_PRUNE, FESIA_PRUNE_MAX_SURVIVOR, \
             FESIA_PRUNE_MIN_BYTES, FESIA_SIMJOIN_CHUNK"
        ),
        "{stderr}"
    );
}

#[test]
fn removed_plan_modes_warn_and_fall_back_to_auto() {
    for mode in ["pipelined", "gallop", "pruned"] {
        let (stdout, stderr) = fesia_info(mode, &[("FESIA_PLAN", mode)]);
        assert!(
            stderr.contains(&format!("warning: ignoring FESIA_PLAN={mode}")),
            "{stderr}"
        );
        assert!(stdout.contains("planner:         mode=auto"), "{stdout}");
    }
    // A surviving mode still takes effect, with no warning.
    let (stdout, stderr) = fesia_info("hash", &[("FESIA_PLAN", "hash")]);
    assert!(!stderr.contains("warning"), "{stderr}");
    assert!(stdout.contains("planner:         mode=hash"), "{stdout}");
}

/// A profile with the nine keys the last profile writer emitted loads
/// without a warning: the removed `prefetch_distance` and `prune_*` keys
/// are ignored.
#[test]
fn nine_key_profiles_still_load() {
    let nine = r#"{
  "version": 1,
  "prefetch_distance": 16,
  "prune_forced": "on",
  "prune_min_bitmap_bytes": 12345,
  "prune_max_survivor_pct": 42,
  "container_forced": "auto",
  "container_min_elements": 2048,
  "container_dense_pct": 55,
  "rebuild_fraction": 0.125
}"#;
    let (stdout, stderr) = fesia_info_with_profile("nine-keys", &[], Some(nine));
    assert!(!stderr.contains("warning"), "{stderr}");
    assert!(stdout.contains("profile=loaded v1"), "{stdout}");
}
