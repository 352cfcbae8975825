//! The knobs of the removed pipelined, compressed, gallop and pruned
//! plans, of the similarity join's removed candidate-chunk grain and
//! summary-bitmap tier, and of the removed machine-profile loader.
//!
//! Their `FESIA_*` variables are no longer read, so the startup scan
//! reports them as unrecognized, the removed `FESIA_PLAN` modes warn and
//! leave the planner on auto, and a profile file changes nothing. Each
//! check runs `fesia info` in a child process, because the planner reads
//! the environment once per process.

use std::process::Command;
use std::sync::{Mutex, MutexGuard};

/// Serializes this file's environment reads (child spawns) against the
/// test that mutates this process's environment.
static ENV: Mutex<()> = Mutex::new(());

fn env_lock() -> MutexGuard<'static, ()> {
    ENV.lock().unwrap_or_else(|e| e.into_inner())
}

const REMOVED_VARS: [&str; 11] = [
    "FESIA_COMPRESS",
    "FESIA_COMPRESS_MIN",
    "FESIA_PIPELINE",
    "FESIA_PIPELINE_MIN",
    "FESIA_PREFETCH_DIST",
    "FESIA_PROFILE",
    "FESIA_PRUNE",
    "FESIA_PRUNE_MAX_SURVIVOR",
    "FESIA_PRUNE_MIN_BYTES",
    "FESIA_SIMJOIN_BITMAP",
    "FESIA_SIMJOIN_CHUNK",
];

/// Run `fesia info` on a set of `elements` with `env` added to a clean
/// `FESIA_*` environment; returns (stdout, stderr).
fn fesia_info_of(test: &str, elements: &[u32], env: &[(&str, String)]) -> (String, String) {
    let dir = std::env::temp_dir().join(format!("fesia-knobs-{}-{test}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("s.fsia");
    let set = fesia_core::SegmentedSet::new(elements).unwrap();
    std::fs::write(&file, set.serialize()).unwrap();
    let guard = env_lock();
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_fesia"));
    cmd.arg("info").arg(&file);
    for (k, _) in std::env::vars() {
        if k.starts_with("FESIA_") {
            cmd.env_remove(k);
        }
    }
    cmd.envs(env.iter().map(|(k, v)| (k, v)));
    let out = cmd.output().unwrap();
    drop(guard);
    std::fs::remove_dir_all(&dir).ok();
    assert!(out.status.success(), "{out:?}");
    (
        String::from_utf8(out.stdout).unwrap(),
        String::from_utf8(out.stderr).unwrap(),
    )
}

/// [`fesia_info_of`] on a three-element set.
fn fesia_info(test: &str, env: &[(&str, &str)]) -> (String, String) {
    let env: Vec<(&str, String)> = env.iter().map(|&(k, v)| (k, v.to_string())).collect();
    fesia_info_of(test, &[3, 9, 27], &env)
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
             FESIA_PREFETCH_DIST, FESIA_PROFILE, FESIA_PRUNE, \
             FESIA_PRUNE_MAX_SURVIVOR, FESIA_PRUNE_MIN_BYTES, \
             FESIA_SIMJOIN_BITMAP, FESIA_SIMJOIN_CHUNK"
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

/// A machine-profile file is no longer read: one forcing the container
/// dispatch on leaves `fesia info`'s self-plan where the defaults put it,
/// while the `FESIA_CONTAINER` twin of that key still moves it.
#[test]
fn profile_files_no_longer_change_the_planner() {
    // Large enough to carry a container tier, too small for auto mode to
    // pick it.
    let elements: Vec<u32> = (0..5_000).collect();
    let dir = std::env::temp_dir().join(format!("fesia-profile-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let profile = dir.join("profile.json");
    std::fs::write(&profile, r#"{"version": 1, "container_forced": "on"}"#).unwrap();
    let with_profile = [("FESIA_PROFILE", profile.to_string_lossy().to_string())];
    let (stdout, stderr) = fesia_info_of("profile", &elements, &with_profile);
    let (plain, _) = fesia_info_of("no-profile", &elements, &[]);
    std::fs::remove_dir_all(&dir).ok();
    assert!(stdout.contains("plan-vs-self=plain"), "{stdout}");
    // Identical but for the first line, which names the file.
    assert!(
        stdout.lines().skip(1).eq(plain.lines().skip(1)),
        "{stdout}{plain}"
    );
    assert!(stderr.contains("FESIA_PROFILE"), "{stderr}");
    let forced = [("FESIA_CONTAINER", "on".to_string())];
    let (stdout, _) = fesia_info_of("env", &elements, &forced);
    assert!(stdout.contains("plan-vs-self=container"), "{stdout}");
}
