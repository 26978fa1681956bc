//! Manifest and feature hygiene for the whole workspace:
//!
//! * every algorithm crate (`crates/*`) and the umbrella crate pull shared
//!   external dependencies (`rand`, `serde`, ...) exclusively through
//!   `[workspace.dependencies]`, so the tree can never split into two
//!   versions of the same dependency;
//! * the root manifest actually declares those shared dependencies;
//! * every workspace member (including the offline stand-ins under
//!   `vendor/`) carries `#![forbid(unsafe_code)]` in its crate root;
//! * the product crates keep one call path per operation: a superseded
//!   entry point is deleted, never kept alive behind `#[deprecated]` or a
//!   cargo feature, the online drivers share one in-flight ledger, and the
//!   link load is accounted in one place and replayed segment by segment;
//! * solves run sequentially: the bench runner owns the only worker pool,
//!   and `perf/` is the only benchmark harness;
//! * `edf` re-plans without sorting or hashing: it walks the ledger's
//!   deadline index, and the route memo hashes node ids without SipHash;
//! * a served flow is stored once: a `dcn-server` shard keeps one
//!   `FlowSchedule` per flow and its snapshot one record per flow;
//! * the online engine holds no clairvoyant reference: the bench harness
//!   solves it, and the `online` and `failures` sweeps share its one
//!   driver.
//!
//! The checks parse the manifests line-by-line on purpose: the offline
//! environment has no `toml` crate, and the subset of TOML that Cargo
//! manifests use is regular enough for this.

use std::fs;
use std::path::{Path, PathBuf};

/// External dependencies that must be version-unified through the
/// workspace table.
const SHARED_DEPS: &[&str] = &["rand", "rand_distr", "serde", "serde_json", "proptest"];

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// All member manifest paths: the root package plus `crates/*` and
/// `vendor/*`.
fn member_manifests() -> Vec<PathBuf> {
    let root = workspace_root();
    let mut manifests = vec![root.join("Cargo.toml")];
    for dir in ["crates", "vendor"] {
        let entries = fs::read_dir(root.join(dir))
            .unwrap_or_else(|e| panic!("workspace directory {dir}/ must exist: {e}"));
        for entry in entries {
            let manifest = entry.expect("readable dir entry").path().join("Cargo.toml");
            assert!(
                manifest.is_file(),
                "every {dir}/ subdirectory must be a crate, missing {}",
                manifest.display()
            );
            manifests.push(manifest);
        }
    }
    manifests
}

/// Returns the lines of a named TOML section (e.g. `dependencies`),
/// stopping at the next `[section]` header.
fn section_lines(manifest: &str, section: &str) -> Vec<String> {
    let mut lines = Vec::new();
    let mut in_section = false;
    for line in manifest.lines() {
        let trimmed = line.trim();
        if trimmed.starts_with('[') {
            in_section = trimmed == format!("[{section}]");
            continue;
        }
        if in_section && !trimmed.is_empty() && !trimmed.starts_with('#') {
            lines.push(trimmed.to_string());
        }
    }
    lines
}

/// The dependency name of a manifest dependency line (`foo = ...` or
/// `foo.workspace = true`).
fn dep_name(line: &str) -> Option<&str> {
    let key = line.split('=').next()?.trim();
    let name = key.split('.').next()?.trim();
    if name.is_empty() {
        None
    } else {
        Some(name)
    }
}

#[test]
fn workspace_table_declares_all_shared_dependencies() {
    let root_manifest = fs::read_to_string(workspace_root().join("Cargo.toml"))
        .expect("root Cargo.toml is readable");
    let table = section_lines(&root_manifest, "workspace.dependencies");
    for dep in SHARED_DEPS {
        assert!(
            table.iter().any(|l| dep_name(l) == Some(dep)),
            "[workspace.dependencies] must declare {dep}"
        );
    }
}

#[test]
fn members_use_workspace_versions_of_shared_dependencies() {
    let root = workspace_root();
    for manifest_path in member_manifests() {
        let manifest = fs::read_to_string(&manifest_path)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", manifest_path.display()));
        let is_vendor_member = manifest_path.starts_with(root.join("vendor"));
        for section in ["dependencies", "dev-dependencies", "build-dependencies"] {
            for line in section_lines(&manifest, section) {
                let Some(name) = dep_name(&line) else {
                    continue;
                };
                if !SHARED_DEPS.contains(&name) {
                    continue;
                }
                if is_vendor_member {
                    // Stand-ins may depend on their siblings by relative
                    // path; that still resolves to the single vendored
                    // version of the dependency.
                    assert!(
                        line.contains("workspace = true") || line.contains("path ="),
                        "{}: vendored dependency `{name}` must come from the \
                         workspace or a sibling stand-in, got `{line}`",
                        manifest_path.display()
                    );
                } else {
                    assert!(
                        line.contains("workspace = true"),
                        "{}: dependency `{name}` must use `workspace = true` so all \
                         members share one version, got `{line}`",
                        manifest_path.display()
                    );
                }
            }
        }
    }
}

#[test]
fn every_member_forbids_unsafe_code() {
    for manifest_path in member_manifests() {
        let crate_dir: &Path = manifest_path.parent().expect("manifest has a parent");
        let lib = crate_dir.join("src").join("lib.rs");
        let source = fs::read_to_string(&lib)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", lib.display()));
        assert!(
            source.contains("#![forbid(unsafe_code)]"),
            "{} must carry #![forbid(unsafe_code)]",
            lib.display()
        );
    }
}

#[test]
fn no_member_pins_its_own_external_registry_version() {
    // With no registry access, any `foo = "x.y"` version requirement on a
    // shared dependency would break the build; everything must be a path
    // or workspace reference.
    for manifest_path in member_manifests() {
        let manifest = fs::read_to_string(&manifest_path).expect("manifest readable");
        for section in ["dependencies", "dev-dependencies", "build-dependencies"] {
            for line in section_lines(&manifest, section) {
                let Some(name) = dep_name(&line) else {
                    continue;
                };
                if !SHARED_DEPS.contains(&name) {
                    continue;
                }
                let after_eq = line.split_once('=').map(|(_, v)| v.trim()).unwrap_or("");
                assert!(
                    !after_eq.starts_with('"'),
                    "{}: `{line}` pins a registry version of {name}; use \
                     `workspace = true` instead",
                    manifest_path.display()
                );
            }
        }
    }
}

/// All `.rs` files under `dir`, recursively.
fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).unwrap_or_else(|e| panic!("cannot list {}: {e}", dir.display()))
    {
        let path = entry.expect("readable dir entry").path();
        if path.is_dir() {
            rust_sources(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn product_crates_keep_no_deprecated_items_and_no_cargo_features() {
    // A replaced entry point is removed in the PR that replaces it. Kept
    // "for the transition" it needs an attribute here, an `allow` at every
    // internal caller, a feature to switch it off and a CI leg for the
    // feature.
    let root = workspace_root();
    let mut sources = Vec::new();
    rust_sources(&root.join("src"), &mut sources);
    let crates = fs::read_dir(root.join("crates")).expect("crates/ must exist");
    for entry in crates {
        let crate_dir = entry.expect("readable dir entry").path();
        rust_sources(&crate_dir.join("src"), &mut sources);
        let manifest = fs::read_to_string(crate_dir.join("Cargo.toml")).expect("manifest readable");
        assert!(
            !manifest.lines().any(|l| l.trim() == "[features]"),
            "{}: no cargo features in product crates",
            crate_dir.display()
        );
    }
    assert!(!sources.is_empty());
    // The in-flight state of both online drivers lives in
    // `crates/core/src/online/ledger.rs` alone (PR 16): the second ledger,
    // the second admission rule and the second volume tolerance stay gone.
    // A flow's schedule is stored once, in a layout only `schedule.rs`
    // knows (PR 20): the engine's per-flow slice lists, the public
    // per-link map with its "empty means uniform" convention and the
    // capacity ledger's unread dirty tracker stay gone. The event queue
    // holds only what can still be popped (PR 21): predicted events are
    // cleared with the plan that made them, not skipped lazily on pop.
    // A link's load `x_e(t)` is summed once per reading, by
    // `Schedule::link_loads`, the one caller of `Schedule::link_profiles`
    // in product code: energy, the capacity excess, `verify_on` and the
    // replay read its records, so `dcn-power` keeps no meter (PR 23) and
    // neither a profile nor the schedule a second per-link fold.
    let mut volume_tolerances = Vec::new();
    for path in sources {
        let source = fs::read_to_string(&path).expect("source readable");
        for banned in [
            "#[deprecated",
            "cfg(feature",
            "ServeAdmission",
            "struct FlowState",
            "fn residual_set",
            "fn stitch(",
            "commit_index",
            "pub link_profiles:",
            "link_profiles.is_empty()",
            "fn take_dirty",
            "fn is_live(",
            "EnergyMeter",
            "fn energy_meter",
            "fn dynamic_energy",
            "fn capacity_excess",
            "fn active_links",
        ] {
            assert!(
                !source.contains(banned),
                "{}: `{banned}` is banned — delete the superseded item instead",
                path.display()
            );
        }
        if source.contains("const VOLUME_TOL") {
            volume_tolerances.push(path);
        }
    }
    assert_eq!(
        volume_tolerances,
        [root.join("crates/core/src/online/ledger.rs")],
        "the retire rule and its `VOLUME_TOL` are defined once, in the ledger"
    );
}

#[test]
fn solves_are_sequential_and_the_harness_owns_the_only_pool() {
    // Interval-parallel solving had no caller that won by it: a solve runs
    // on its caller's thread, the bench runner's `run_indexed` is the one
    // worker pool, and `perf/` is the one benchmark harness.
    let root = workspace_root();
    let mut sources = Vec::new();
    rust_sources(&root.join("src"), &mut sources);
    for entry in fs::read_dir(root.join("crates")).expect("crates/ must exist") {
        rust_sources(
            &entry.expect("readable dir entry").path().join("src"),
            &mut sources,
        );
    }
    for path in sources {
        let source = fs::read_to_string(&path).expect("source readable");
        for banned in [
            "ParallelConfig",
            "set_parallelism",
            "interval_relaxation_threads",
            "run_indexed_with",
            "in_pool_worker",
            "solver_threads",
        ] {
            assert!(
                !source.contains(banned),
                "{}: `{banned}` is banned — solves run sequentially",
                path.display()
            );
        }
    }
    for gone in ["vendor/criterion", "crates/bench/benches"] {
        assert!(
            !root.join(gone).exists(),
            "{gone}/ is gone — benchmarks live in perf/"
        );
    }
}

#[test]
fn the_replay_reads_each_profile_by_its_segments() {
    // Between a profile's own breakpoints nothing of it changes (PR 23):
    // the simulator walks `segments()` once per flow, and asks no profile
    // for its rate window by window. Its link half reads the loads
    // `Schedule::link_loads` summed, so it integrates no power of its own.
    // The global sweep it replaced lives on below `#[cfg(test)]`, as the
    // reference.
    let simulator = fs::read_to_string(workspace_root().join("crates/sim/src/simulator.rs"))
        .expect("simulator.rs readable");
    let (product, tests) = simulator
        .split_once("#[cfg(test)]")
        .expect("simulator.rs keeps its unit tests");
    assert!(
        !product.contains("rate_at("),
        "simulator.rs: `rate_at(` outside the tests — walk `segments()` instead"
    );
    assert!(
        !product.contains("dynamic_power("),
        "simulator.rs: `dynamic_power(` outside the tests — read `Schedule::link_loads`"
    );
    assert!(tests.contains("fn run_on_reference("));
}

/// The product half of a source file: everything before its first
/// `#[cfg(test)]`.
fn product_part(file: &str) -> String {
    let source = fs::read_to_string(workspace_root().join(file))
        .unwrap_or_else(|e| panic!("cannot read {file}: {e}"));
    match source.split_once("#[cfg(test)]") {
        Some((product, _)) => product.to_string(),
        None => source,
    }
}

#[test]
fn edf_walks_the_ledgers_deadline_order_and_sorts_nothing() {
    // The in-flight ledger keeps the live set in deadline order, so
    // `edf` sorts nothing per event; the sorting planner it replaced lives
    // on below `#[cfg(test)]`, as the differential reference.
    assert!(
        !product_part("crates/core/src/online/policies/edf.rs").contains(".sort"),
        "edf.rs: no `.sort` outside the tests — walk `WorldView::in_flight_by_deadline`"
    );
}

#[test]
fn the_route_memo_hashes_node_ids_without_siphash() {
    // `PathCache` is probed once per in-flight flow per event: its
    // maps hash node ids with the multiply–xor `NodeHash`, never with the
    // default SipHash of `HashMap<K, V>`.
    let policy = product_part("crates/core/src/online/policy.rs");
    let (_, cache) = policy
        .split_once("pub struct PathCache {")
        .expect("policy.rs declares PathCache");
    let fields = &cache[..cache.find('}').expect("PathCache has a closing brace")];
    let maps: Vec<&str> = fields.lines().filter(|l| l.contains("HashMap<")).collect();
    assert!(!maps.is_empty(), "PathCache keeps its pair map");
    for map in maps {
        assert!(
            map.contains(", NodeHash>"),
            "policy.rs: `{}` uses the default hasher — name `NodeHash`",
            map.trim()
        );
    }
}

#[test]
fn a_served_flow_is_stored_once() {
    // A shard keeps one `FlowSchedule` per admitted flow: no
    // private plan type, no second, stitched history of what the plans
    // delivered, and no snapshot split between the two.
    let mut sources = Vec::new();
    rust_sources(&workspace_root().join("crates/server/src"), &mut sources);
    for path in sources {
        let source = fs::read_to_string(&path).expect("source readable");
        // The tests may still spell out a version 1 snapshot.
        let product = source.split("#[cfg(test)]").next().unwrap_or_default();
        for line in product.lines() {
            let code = line.split("//").next().unwrap_or_default();
            let plan_type = code
                .split("struct Plan")
                .skip(1)
                .any(|rest| !rest.starts_with(|c: char| c.is_alphanumeric() || c == '_'));
            for (banned, present) in [
                ("struct Plan", plan_type),
                ("committed", code.contains("committed")),
                ("restore_plans", code.contains("restore_plans")),
                ("plan_records", code.contains("plan_records")),
            ] {
                assert!(
                    !present,
                    "{}: `{banned}` is banned — a served flow is stored once",
                    path.display()
                );
            }
        }
    }
    let snapshot = product_part("crates/server/src/snapshot.rs");
    let (_, bucket) = snapshot
        .split_once("pub struct BucketState {")
        .expect("snapshot.rs declares BucketState");
    let fields = &bucket[..bucket.find("\n}").expect("BucketState has a closing brace")];
    for field in ["pub plans:", "pub committed:"] {
        assert!(
            !fields.contains(field),
            "snapshot.rs: BucketState keeps `{field}` — one record per flow"
        );
    }
}

#[test]
fn the_relaxation_hands_random_schedule_its_paths() {
    // A Frank–Wolfe iterate is a path mixture and stays one from the solve
    // loop to the rounding (PR 22): the rounding never extracts paths from
    // link flows nor falls back to a path of its own, and the solver holds
    // no commodities-by-links matrix outside the on-demand dense view.
    let read = |file: &str| {
        fs::read_to_string(workspace_root().join(file))
            .unwrap_or_else(|e| panic!("cannot read {file}: {e}"))
    };
    let dcfsr = read("crates/core/src/dcfsr.rs");
    for banned in ["decompose_flow", "live_path"] {
        assert!(
            !dcfsr.contains(banned),
            "dcfsr.rs: `{banned}` — candidates come from `FmcfSolution::paths`"
        );
    }
    assert!(
        !read("crates/solver/src/fmcf.rs").contains("vec![0.0; n * m]"),
        "fmcf.rs: no dense flow matrix on the solve path"
    );
}

#[test]
fn the_json_codec_streams_without_a_value_tree() {
    // Derived types write straight into the output and read straight off
    // the parser's cursor: the tree round trip and its lookup
    // helper stay gone from the vendored serde and every product crate.
    let root = workspace_root();
    let mut sources = Vec::new();
    for dir in [
        "vendor/serde/src",
        "vendor/serde_derive/src",
        "vendor/serde_json/src",
    ] {
        rust_sources(&root.join(dir), &mut sources);
    }
    for entry in fs::read_dir(root.join("crates")).expect("crates/ must exist") {
        rust_sources(&entry.expect("readable dir entry").path(), &mut sources);
    }
    assert!(sources.len() > 20);
    for path in sources {
        let source = fs::read_to_string(&path).expect("source readable");
        for banned in ["to_value", "from_value", "map_field", "DeError"] {
            assert!(
                !source.contains(banned),
                "{}: `{banned}` is banned — types stream to and from the text",
                path.display()
            );
        }
    }
}

#[test]
fn the_online_comparison_lives_in_one_harness_driver() {
    // `OnlineEngine` runs an instance and nothing else: the clairvoyant
    // reference is solved by its one user, the bench harness, and the
    // `online` and `failures` sweeps share one driver there, which builds
    // every record of theirs in one place.
    let root = workspace_root();
    let mut sources = Vec::new();
    rust_sources(&root.join("src"), &mut sources);
    rust_sources(&root.join("examples"), &mut sources);
    for entry in fs::read_dir(root.join("crates")).expect("crates/ must exist") {
        rust_sources(
            &entry.expect("readable dir entry").path().join("src"),
            &mut sources,
        );
    }
    for path in sources {
        let source = fs::read_to_string(&path).expect("source readable");
        for banned in ["run_vs_offline", "competitive_ratio", "offline_energy"] {
            assert!(
                !source.contains(banned),
                "{}: `{banned}` is banned — the harness solves the reference",
                path.display()
            );
        }
    }
    let mut bench = Vec::new();
    rust_sources(&root.join("crates/bench/src"), &mut bench);
    for path in bench {
        let source = fs::read_to_string(&path).expect("source readable");
        assert!(
            !source.contains("too_many_arguments"),
            "{}: `too_many_arguments` is banned — pass what the call needs",
            path.display()
        );
    }
    for bin in ["online", "failures"] {
        let file = format!("crates/bench/src/bin/{bin}.rs");
        assert!(
            !product_part(&file).contains("InstanceRecord {"),
            "{file}: builds an `InstanceRecord` — describe the sweep to `run_online_sweep`"
        );
    }
}

#[test]
fn schedulers_are_built_from_their_names_by_one_match() {
    // Name → scheduler is a `match` over a `const` name list
    // (`AlgorithmRegistry::create`, `online::create_policy`); the
    // closure-factory registries, their registration hooks and the
    // engine options that carried them are gone, and so are public items
    // nothing called.
    let root = workspace_root();
    let mut sources = Vec::new();
    for entry in fs::read_dir(root.join("crates")).expect("crates/ must exist") {
        rust_sources(
            &entry.expect("readable dir entry").path().join("src"),
            &mut sources,
        );
    }
    let banned = [
        "PolicyRegistry",
        "mod registry",
        "fn register(",
        "fn algorithms(",
        "fn policies(",
        "fn midpoint",
        "fn restore_all_links",
        "LinkEndpoints",
        "Arc<dyn Fn",
    ];
    for path in sources {
        let source = fs::read_to_string(&path).expect("source readable");
        for banned in banned {
            assert!(
                !source.contains(banned),
                "{}: `{banned}` is banned — a name table builds schedulers, and unused \
                 public items stay deleted",
                path.display()
            );
        }
    }
}
