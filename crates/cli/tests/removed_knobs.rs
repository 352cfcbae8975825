//! The knobs of the removed pipelined, compressed, gallop and pruned
//! plans, of the similarity join's removed candidate-chunk grain,
//! summary-bitmap tier and early-exit switch, of the removed
//! machine-profile loader, the planner's removed strategy and container
//! overrides, the dynamic sets' removed rebuild fraction and `repro
//! serve`'s removed write rate.
//!
//! Their `FESIA_*` variables are no longer read, so the startup scan
//! reports them as unrecognized, every `FESIA_PLAN` value (removed mode
//! or former surviving one) leaves the planner's choice alone, and a
//! profile file or any other removed knob changes nothing. Each check runs
//! `fesia info` in a child process, because the startup scan runs once
//! per process.

use std::process::Command;
use std::sync::{Mutex, MutexGuard};

/// Serializes this file's environment reads (child spawns) against the
/// test that mutates this process's environment.
static ENV: Mutex<()> = Mutex::new(());

fn env_lock() -> MutexGuard<'static, ()> {
    ENV.lock().unwrap_or_else(|e| e.into_inner())
}

const REMOVED_VARS: [&str; 18] = [
    "FESIA_COMPRESS",
    "FESIA_COMPRESS_MIN",
    "FESIA_CONTAINER",
    "FESIA_CONTAINER_DENSE_PCT",
    "FESIA_CONTAINER_MIN",
    "FESIA_PIPELINE",
    "FESIA_PIPELINE_MIN",
    "FESIA_PLAN",
    "FESIA_PREFETCH_DIST",
    "FESIA_PROFILE",
    "FESIA_PRUNE",
    "FESIA_PRUNE_MAX_SURVIVOR",
    "FESIA_PRUNE_MIN_BYTES",
    "FESIA_REBUILD_FRACTION",
    "FESIA_SERVE_MUTATION_RATE",
    "FESIA_SIMJOIN_BITMAP",
    "FESIA_SIMJOIN_CHUNK",
    "FESIA_SIMJOIN_EARLY_EXIT",
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
             FESIA_COMPRESS_MIN, FESIA_CONTAINER, FESIA_CONTAINER_DENSE_PCT, \
             FESIA_CONTAINER_MIN, FESIA_PIPELINE, FESIA_PIPELINE_MIN, \
             FESIA_PLAN, FESIA_PREFETCH_DIST, FESIA_PROFILE, FESIA_PRUNE, \
             FESIA_PRUNE_MAX_SURVIVOR, FESIA_PRUNE_MIN_BYTES, \
             FESIA_REBUILD_FRACTION, FESIA_SERVE_MUTATION_RATE, \
             FESIA_SIMJOIN_BITMAP, FESIA_SIMJOIN_CHUNK, FESIA_SIMJOIN_EARLY_EXIT"
        ),
        "{stderr}"
    );
}

/// Asserts that `stdout` is `fesia info`'s default report — identical
/// but for the first line, which names the file — with `plan` as the
/// self-plan, and that `stderr` reports `var` as unrecognized.
fn assert_unchanged(var: &str, plan: &str, (stdout, stderr): (String, String), default: &str) {
    assert!(
        stderr.contains("unrecognized FESIA_* environment variable(s): ") && stderr.contains(var),
        "{var}: {stderr}"
    );
    assert!(stdout.contains(&format!("plan-vs-self={plan}")), "{stdout}");
    assert!(
        stdout.lines().skip(1).eq(default.lines().skip(1)),
        "{var}: {stdout}{default}"
    );
}

#[test]
fn removed_plan_modes_warn_and_fall_back_to_auto() {
    let (default, _) = fesia_info("default", &[]);
    // The removed modes and the former surviving ones alike.
    for mode in ["pipelined", "gallop", "pruned", "plain", "hash", "auto"] {
        let got = fesia_info(mode, &[("FESIA_PLAN", mode)]);
        assert_unchanged("FESIA_PLAN", "plain", got, &default);
    }
}

/// The removed rebuild fraction, simjoin early-exit switch and serve
/// write rate, each set to the value that used to change behaviour,
/// leave `fesia info` as it was.
#[test]
fn removed_runtime_knobs_change_nothing() {
    let (default, _) = fesia_info("runtime-default", &[]);
    for (var, value) in [
        ("FESIA_REBUILD_FRACTION", "0.01"),
        ("FESIA_SIMJOIN_EARLY_EXIT", "0"),
        ("FESIA_SERVE_MUTATION_RATE", "5"),
    ] {
        let got = fesia_info(var, &[(var, value)]);
        assert_unchanged(var, "plain", got, &default);
    }
}

/// A machine-profile file is no longer read: one forcing the container
/// dispatch on leaves `fesia info`'s self-plan where the planner puts
/// it, and so does each of the removed `FESIA_CONTAINER*` twins of that
/// key.
#[test]
fn profile_files_no_longer_change_the_planner() {
    // Large enough to carry a container tier, too small for the planner
    // to pick it.
    let elements: Vec<u32> = (0..5_000).collect();
    let dir = std::env::temp_dir().join(format!("fesia-profile-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let profile = dir.join("profile.json");
    std::fs::write(&profile, r#"{"version": 1, "container_forced": "on"}"#).unwrap();
    let with_profile = [("FESIA_PROFILE", profile.to_string_lossy().to_string())];
    let got = fesia_info_of("profile", &elements, &with_profile);
    let (default, _) = fesia_info_of("no-profile", &elements, &[]);
    std::fs::remove_dir_all(&dir).ok();
    assert_unchanged("FESIA_PROFILE", "plain", got, &default);
    for (var, value) in [
        ("FESIA_CONTAINER", "on"),
        ("FESIA_CONTAINER_MIN", "0"),
        ("FESIA_CONTAINER_DENSE_PCT", "0"),
    ] {
        let got = fesia_info_of(var, &elements, &[(var, value.to_string())]);
        assert_unchanged(var, "plain", got, &default);
    }
}

/// README's "Environment variables" table lists exactly the variables
/// the workspace reads, so no knob is added or removed without the docs
/// following.
#[test]
fn readme_env_table_lists_every_known_var() {
    let readme =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md")).unwrap();
    let table = readme
        .split("### Environment variables")
        .nth(1)
        .expect("README has an Environment variables section");
    let mut rows: Vec<&str> = table
        .lines()
        .skip_while(|l| !l.starts_with('|'))
        .take_while(|l| l.starts_with('|'))
        .filter_map(|l| l.strip_prefix("| `")?.split('`').next())
        .filter(|v| v.starts_with("FESIA_"))
        .collect();
    let mut known = fesia_core::params::env::KNOWN_VARS.to_vec();
    rows.sort_unstable();
    known.sort_unstable();
    assert_eq!(rows, known);
}
