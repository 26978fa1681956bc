//! Byte pins of the experiment artifacts.
//!
//! Every line of `tests/data/artifact_digests.txt` names a benchmark
//! binary, the flags it runs with and the FNV-1a digest of the JSON
//! artifact that run writes (`<bin> <flags> <digest>`; `#` starts a
//! comment). The test runs each line through the built binary into a
//! temporary directory and compares digests, so a change that moves one
//! byte of any experiment's `--quick` artifact fails here; the runs with
//! `--algorithms` / `--policies` lists send every scheduler name but
//! `exact` through the name tables. Re-bless after an intentional change
//! with `BLESS_GOLDEN=1 cargo test --release -p dcn-bench --test
//! artifact_pins -- --ignored`. `#[ignore]`d outside CI's release leg:
//! the runs need an optimised build.
//!
//! The same binaries also refuse, before any work, a flag they do not
//! read: that check runs in every build.

use std::fs;
use std::path::PathBuf;
use std::process::Command;

/// The digest file, at the workspace root's `tests/data/`.
fn digests_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/data/artifact_digests.txt")
}

/// The built binary of a pinned experiment.
fn binary(name: &str) -> &'static str {
    match name {
        "online" => env!("CARGO_BIN_EXE_online"),
        "failures" => env!("CARGO_BIN_EXE_failures"),
        "serve" => env!("CARGO_BIN_EXE_serve"),
        "fig2" => env!("CARGO_BIN_EXE_fig2"),
        "example1" => env!("CARGO_BIN_EXE_example1"),
        "hardness_gadget" => env!("CARGO_BIN_EXE_hardness_gadget"),
        "scaling" => env!("CARGO_BIN_EXE_scaling"),
        "ablation_alpha" => env!("CARGO_BIN_EXE_ablation_alpha"),
        "ablation_lambda" => env!("CARGO_BIN_EXE_ablation_lambda"),
        "ablation_rounding" => env!("CARGO_BIN_EXE_ablation_rounding"),
        "ablation_topology" => env!("CARGO_BIN_EXE_ablation_topology"),
        other => panic!("artifact_digests.txt names {other:?}, which has no pin"),
    }
}

/// FNV-1a (64-bit) over the artifact's bytes.
fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Runs `bin` with `flags`, writing its artifact into `dir`, and returns
/// the artifact's digest.
fn artifact_digest(bin: &str, flags: &[&str], dir: &std::path::Path) -> u64 {
    let out = dir.join(format!("BENCH_{bin}.json"));
    let status = Command::new(binary(bin))
        .args(flags)
        .arg("--json-out")
        .arg(&out)
        .current_dir(dir)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .unwrap_or_else(|e| panic!("cannot run {bin}: {e}"));
    assert!(status.success(), "{bin} {flags:?} exited with {status}");
    digest(&fs::read(&out).unwrap_or_else(|e| panic!("{bin} wrote no artifact: {e}")))
}

#[test]
#[ignore = "runs the benchmark binaries; release only"]
fn quick_artifacts_keep_their_bytes() {
    let path = digests_path();
    let text = fs::read_to_string(&path).expect("tests/data/artifact_digests.txt exists");
    let dir = std::env::temp_dir().join(format!("dcn-artifact-pins-{}", std::process::id()));
    fs::create_dir_all(&dir).expect("temp dir");
    let bless = std::env::var_os("BLESS_GOLDEN").is_some();
    let mut blessed = String::new();
    let mut diverged = Vec::new();
    let mut pinned = 0;
    for line in text.lines() {
        let words: Vec<&str> = line.split_whitespace().collect();
        if line.starts_with('#') || words.len() < 2 {
            blessed.push_str(line);
            blessed.push('\n');
            continue;
        }
        let (bin, rest) = words.split_first().expect("two words or more");
        let (recorded, flags) = rest.split_last().expect("a digest");
        let got = artifact_digest(bin, flags, &dir);
        let got = format!("{got:#018x}");
        if got != *recorded {
            diverged.push(format!("{bin} {}: {recorded} -> {got}", flags.join(" ")));
        }
        blessed.push_str(&format!("{bin} {} {got}\n", flags.join(" ")));
        pinned += 1;
    }
    fs::remove_dir_all(&dir).ok();
    assert!(pinned >= 15, "artifact_digests.txt pins {pinned} runs");
    if bless {
        fs::write(&path, blessed).expect("digest file writes");
        return;
    }
    assert!(
        diverged.is_empty(),
        "artifacts diverged from tests/data/artifact_digests.txt:\n{}\n\
         re-bless with BLESS_GOLDEN=1 if the change is intentional",
        diverged.join("\n")
    );
}

/// A flag each binary does not read, with a value: before it was refused,
/// `online --quick --admission reject-infeasible` ran plain `--quick`.
const UNREAD_FLAGS: &[(&str, &str, &str)] = &[
    ("online", "--admission", "reject-infeasible"),
    ("online", "--shard-workers", "3"),
    ("online", "--step", "7"),
    ("failures", "--admission", "reject-infeasible"),
    ("fig2", "--rates", "0.5"),
    ("fig2", "--downtime", "3"),
    ("fig2", "--admission", "reject-infeasible"),
    ("scaling", "--flows", "10"),
    ("ablation_alpha", "--step", "5"),
    ("ablation_lambda", "--seeds", "2"),
    ("ablation_topology", "--policies", "edf"),
    ("ablation_rounding", "--runs", "2"),
    ("example1", "--runs", "2"),
    ("hardness_gadget", "--flows", "4"),
    ("serve", "--algorithms", "dcfsr,sp-mcf"),
    ("serve", "--load", "2"),
];

#[test]
fn every_binary_refuses_a_flag_it_does_not_read() {
    for &(bin, flag, value) in UNREAD_FLAGS {
        let out = Command::new(binary(bin))
            .args(["--quick", flag, value])
            .output()
            .unwrap_or_else(|e| panic!("cannot run {bin}: {e}"));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin} {flag}: {stderr}");
        assert!(
            stderr.contains(&format!("{bin}: {flag} is not read here")),
            "{bin} {flag}: {stderr}"
        );
        let usage = stderr
            .lines()
            .find(|l| l.starts_with("usage:"))
            .unwrap_or_else(|| panic!("{bin} printed no usage line: {stderr}"));
        assert!(!usage.contains(flag), "{bin}'s usage lists {flag}: {usage}");
        assert!(usage.contains("[--quick]"), "{usage}");
    }
}

/// An `--algorithms` list of a length the binary does not read: `online`
/// and `failures` run one algorithm (before they were refused, a second
/// name was dropped), `fig2` compares a primary with a reference.
const WRONG_ALGORITHM_COUNTS: &[(&str, &str, &str)] = &[
    ("online", "exact,sp-mcf", "sp-mcf would be dropped"),
    ("failures", "dcfsr,greedy", "greedy would be dropped"),
    ("fig2", "dcfsr", "at least a primary and a reference"),
];

#[test]
fn every_binary_refuses_an_algorithms_list_it_cannot_run() {
    for &(bin, list, says) in WRONG_ALGORITHM_COUNTS {
        let out = Command::new(binary(bin))
            .args(["--quick", "--algorithms", list])
            .output()
            .unwrap_or_else(|e| panic!("cannot run {bin}: {e}"));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin} {list}: {stderr}");
        assert!(stderr.contains(says), "{bin} {list}: {stderr}");
    }
}
