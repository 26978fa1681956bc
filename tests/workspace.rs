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
//!   cargo feature, the online drivers share one in-flight ledger, the
//!   link load is accounted in one place, and `Schedule::audit` is the one
//!   verdict on a schedule, replaying each profile segment by segment
//!   (`dcn-sim` is left as a wrapper for `perf/` alone);
//! * solves run sequentially: the bench runner owns the only worker pool,
//!   and `perf/` is the only benchmark harness;
//! * `edf` re-plans without sorting or hashing: it walks the ledger's
//!   deadline index, and the route memo hashes node ids without SipHash;
//! * a served flow is stored once: a `dcn-server` shard keeps one
//!   `FlowSchedule` per flow and its snapshot one record per flow;
//! * the online engine holds no clairvoyant reference: the bench harness
//!   solves it, and the `online` and `failures` sweeps share its one
//!   driver.
//! * every public item of `crates/*/src` has a caller in product code
//!   (`crates/*/src` outside its tests, `src/`, `examples/`, `perf/src`),
//!   or is listed with a test that calls it.
//!
//! The checks parse the manifests line-by-line on purpose: the offline
//! environment has no `toml` crate, and the subset of TOML that Cargo
//! manifests use is regular enough for this.

use std::collections::HashMap;
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

#[test]
fn topology_and_power_serialize_nothing() {
    // Nothing serializes a network, a path, a rate profile or a power
    // function, so these crates derive no serde traits.
    let root = workspace_root();
    for krate in ["topology", "power"] {
        let mut sources = Vec::new();
        rust_sources(&root.join("crates").join(krate).join("src"), &mut sources);
        for path in sources {
            let source = fs::read_to_string(&path).expect("source readable");
            assert!(
                !source.contains("Serialize"),
                "{}: nothing serializes a `dcn-{krate}` type",
                path.display()
            );
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
    // Between a profile's own breakpoints nothing of it changes: the
    // audit walks `segments()` once per flow, and asks no profile for
    // its rate window by window. Its link half reads the loads
    // `Schedule::link_loads` summed, so it integrates no power of its own.
    // The global sweep it replaced lives on below `#[cfg(test)]`, as the
    // reference. (The rest of `schedule.rs` may: `link_loads` integrates
    // the power.)
    let schedule = fs::read_to_string(workspace_root().join("crates/core/src/schedule.rs"))
        .expect("schedule.rs readable");
    let (product, tests) = schedule
        .split_once("#[cfg(test)]")
        .expect("schedule.rs keeps its unit tests");
    let lines: Vec<&str> = product.lines().collect();
    let start = lines
        .iter()
        .position(|l| l.starts_with("    pub fn audit("))
        .expect("`Schedule::audit` is defined in schedule.rs");
    let end = (start..lines.len())
        .find(|&j| lines[j] == "    }")
        .expect("`Schedule::audit` has a body");
    let audit = lines[start..=end].join("\n");
    assert!(
        !audit.contains("rate_at("),
        "Schedule::audit: `rate_at(` — walk `segments()` instead"
    );
    assert!(
        !audit.contains("dynamic_power("),
        "Schedule::audit: `dynamic_power(` — read `Schedule::link_loads`"
    );
    assert!(audit.contains(".segments()"));
    assert!(tests.contains("fn audit_reference("));
}

#[test]
fn dcn_sim_is_left_for_the_benchmark_alone() {
    // One verdict on a schedule: `Schedule::audit` in `dcn-core`. The
    // `dcn-sim` crate stays only as the wrapper the benchmark under
    // `perf/` calls, so no workspace member depends on it or names it,
    // and its second replay and report type stay gone.
    let root = workspace_root();
    let sim_manifest = root.join("crates/sim/Cargo.toml");
    for manifest in member_manifests() {
        if manifest == sim_manifest {
            continue;
        }
        let text = fs::read_to_string(&manifest).expect("manifest readable");
        assert!(
            !text.contains("dcn-sim"),
            "{}: names `dcn-sim` — call `Schedule::audit` instead",
            manifest.display()
        );
    }
    let mut sources = Vec::new();
    for dir in ["src", "examples", "tests", "crates"] {
        rust_sources(&root.join(dir), &mut sources);
    }
    let this_file = root.join("tests/workspace.rs");
    for path in sources.iter().filter(|p| **p != this_file) {
        let source = fs::read_to_string(path).expect("source readable");
        for banned in [
            "dcn_sim::",
            "deadline_dcn::sim",
            "fn run_admitted",
            "pub struct SimReport",
        ] {
            assert!(
                !source.contains(banned),
                "{}: `{banned}` — the audit is `Schedule::audit`",
                path.display()
            );
        }
    }
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
fn most_critical_first_keeps_no_endpoint_table_and_repairs_in_one_sweep() {
    // `IntervalScan` keeps one start and one end boundary per span, found
    // by binary search, not a row per (span, endpoint); the exhaustive table
    // lives on below `#[cfg(test)]`, as the reference of its property test.
    // One (P1) repair sweep is exact (`dcfs.rs`, **One repair sweep is
    // enough**), so the product has no pass loop; the pairwise reference in
    // tests/critical_interval.rs keeps one and asserts its second pass
    // raises nothing.
    for (file, banned) in [
        ("crates/solver/src/availability.rs", "ends: Vec<bool>"),
        ("crates/core/src/dcfs.rs", "for _pass in"),
    ] {
        assert!(
            !product_part(file).contains(banned),
            "{file}: `{banned}` is banned — see the comment above"
        );
    }
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
fn frank_wolfe_sorts_no_active_set_and_hashes_without_siphash() {
    // Registering a path sets bits of a link bitmap, and the ascending
    // active list is re-read from it: nothing is sorted. The split cache's
    // pair map and the warm-seed row map are probed once per commodity per
    // solve, so they hash with the multiply–xor `NodeHash`, as `PathCache`
    // does, never with the default SipHash of `HashMap<K, V>`.
    let fmcf = product_part("crates/solver/src/fmcf.rs");
    assert!(
        !fmcf.contains("active.sort"),
        "fmcf.rs: `active.sort` is banned — re-read the active bitmap"
    );
    let maps: Vec<&str> = fmcf.lines().filter(|l| l.contains("HashMap<")).collect();
    assert!(
        maps.iter()
            .any(|map| map.contains("HashMap<(NodeId, NodeId),")),
        "fmcf.rs keeps its pair map"
    );
    for map in maps {
        assert!(
            map.contains(", NodeHash>"),
            "fmcf.rs: `{}` uses the default hasher — name `NodeHash`",
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
            "dcfsr.rs: `{banned}` — candidates come from `FmcfSolution::split` and `steps`"
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

/// Public items of `crates/*/src` that no product line calls, each kept
/// for the test named beside it (`file::fn`), which calls it: an oracle, a
/// reference the fast path is compared against, or a check of state the
/// product only writes. Everything else public has a product caller.
const CALLED_ONLY_BY_TESTS: &[(&str, &str)] = &[
    (
        "EngineConfig::policy_instance",
        "crates/core/src/online/engine.rs::admit_all_solve_failures_are_counted_and_surface_as_misses",
    ),
    (
        "FlowSet::max_density",
        "crates/flow/src/set.rs::max_density_is_the_largest_flow_density",
    ),
    (
        "hardness::partition_flows",
        "tests/hardness_gadget.rs::partition_gadget_deadlines_hold_even_at_capacity",
    ),
    (
        "PowerFunction::power_rate",
        "tests/properties.rs::optimal_rate_minimises_power_rate",
    ),
    (
        "PowerFunction::optimal_rate",
        "tests/properties.rs::optimal_rate_minimises_power_rate",
    ),
    (
        "PowerFunction::energy_for_volume",
        "tests/properties.rs::slower_transmission_never_costs_more",
    ),
    (
        "RateProfile::rate_at",
        "crates/core/src/schedule.rs::link_profiles_aggregate_sharing_flows",
    ),
    (
        "Server::config",
        "crates/server/tests/serve.rs::snapshot_restore_continues_bit_identically",
    ),
    (
        "SimSummary::all_good",
        "crates/bench/src/report.rs::summary_digests_the_audit",
    ),
    (
        "Audit::all_good",
        "tests/example1.rs::example1_closed_form_through_public_api",
    ),
    (
        "brute_force_optimal_energy",
        "tests/critical_interval.rs::energy_is_the_brute_force_optimum_on_small_instances",
    ),
    (
        "FmcfSolution::commodity_count",
        "tests/csr_equivalence.rs::fmcf_matches_prerefactor_solver",
    ),
    (
        "FmcfSolution::edge_load",
        "crates/solver/src/fmcf.rs::total_loads_is_consistent_with_commodity_flows",
    ),
    (
        "FmcfSolution::net_outflow",
        "crates/solver/src/fmcf.rs::flow_conservation_holds_at_every_node",
    ),
    (
        "yds_schedule",
        "tests/critical_interval.rs::yds_equals_the_pairwise_reference",
    ),
    (
        "YdsSchedule::placements",
        "tests/critical_interval.rs::yds_equals_the_pairwise_reference",
    ),
    (
        "BuiltTopology::csr",
        "tests/example1.rs::example1_energy_scales_with_alpha",
    ),
    (
        "Network::node_pod",
        "crates/topology/src/builders.rs::fat_tree_pod_labels_cover_pod_switches_and_hosts",
    ),
    (
        "Network::find_links",
        "crates/solver/src/decompose.rs::split_flow_decomposes_into_both_branches",
    ),
    (
        "Network::reverse_link",
        "crates/topology/src/csr.rs::path_from_links_validates_like_path_from_links",
    ),
    (
        "Network::is_strongly_connected",
        "crates/topology/src/builders.rs::bcube_counts",
    ),
    (
        "Path::contains_node",
        "crates/topology/src/routing.rs::dijkstra_prefers_cheap_route",
    ),
];

/// A source file as the public-surface scan reads it.
struct ScannedFile {
    /// Path relative to the workspace root.
    rel: String,
    /// The lines, with every `#[cfg(test)]` item of `crates/*/src`
    /// blanked (all of `perf/src` counts: the benchmark's own tests build
    /// against the product).
    lines: Vec<String>,
    /// The same lines with comments, string contents and `use`
    /// declarations blanked too: where a caller can appear.
    code: Vec<String>,
}

/// A `pub fn`, `pub struct`, `pub enum` or `pub mod` of `crates/*/src`.
struct PubItem {
    file: usize,
    line: usize,
    kind: &'static str,
    name: String,
    /// `Owner::name` for an item inside an `impl` or inline `mod` block.
    key: String,
    /// Lines of `file` that belong to the item: its own text, and for a
    /// type the `impl` blocks of that type.
    span: Vec<(usize, usize)>,
}

fn indent(line: &str) -> usize {
    line.len() - line.trim_start().len()
}

/// The last line of the item or block that starts at line `start`
/// (rustfmt layout: a block closes on the first `}` at its indentation).
fn item_end(lines: &[String], code: &[String], start: usize) -> usize {
    let head = code[start].trim_end();
    if head.ends_with(';') || head.ends_with(',') {
        return start;
    }
    let close = " ".repeat(indent(&lines[start])) + "}";
    (start + 1..lines.len())
        .find(|&j| lines[j].trim_end().trim_end_matches([';', ',']) == close)
        .unwrap_or(lines.len() - 1)
}

/// Comments and string contents blanked, line by line; a string may span
/// lines.
fn strip_comments_and_strings(lines: &[String]) -> Vec<String> {
    let mut in_string = false;
    lines
        .iter()
        .map(|line| {
            let mut out = String::new();
            let mut chars = line.chars().peekable();
            while let Some(c) = chars.next() {
                if in_string {
                    match c {
                        '\\' => {
                            chars.next();
                        }
                        '"' => {
                            in_string = false;
                            out.push('"');
                        }
                        _ => {}
                    }
                } else if c == '"' {
                    in_string = true;
                    out.push('"');
                } else if c == '/' && chars.peek() == Some(&'/') {
                    break;
                } else if c == '\'' && matches!(chars.peek(), Some('"' | '\\')) {
                    // A char literal such as '"' or '\'': skip to its end.
                    for d in chars.by_ref() {
                        if d == '\'' {
                            break;
                        }
                    }
                } else {
                    out.push(c);
                }
            }
            out
        })
        .collect()
}

fn scan_file(root: &Path, path: &Path) -> ScannedFile {
    let rel = path
        .strip_prefix(root)
        .expect("scanned files lie in the workspace")
        .to_string_lossy()
        .replace('\\', "/");
    let mut lines: Vec<String> = fs::read_to_string(path)
        .expect("source readable")
        .lines()
        .map(str::to_string)
        .collect();
    let mut code = strip_comments_and_strings(&lines);
    let mut i = 0;
    while rel.starts_with("crates/") && i < lines.len() {
        if lines[i].trim() != "#[cfg(test)]" {
            i += 1;
            continue;
        }
        let mut item = i + 1;
        while lines[item].trim_start().starts_with("#[") {
            item += 1;
        }
        let end = item_end(&lines, &code, item);
        for j in i..=end {
            lines[j].clear();
            code[j].clear();
        }
        i = end + 1;
    }
    let mut in_use = false;
    for line in &mut code {
        let t = line.trim_start();
        if in_use || t.starts_with("use ") || (t.starts_with("pub") && t.contains(" use ")) {
            in_use = !line.trim_end().ends_with(';');
            line.clear();
        }
    }
    ScannedFile { rel, lines, code }
}

/// `impl<..> Trait for Type<..> {` or `impl<..> Type<..> {` → `Type`.
fn impl_self_type(header: &str) -> Option<String> {
    let mut rest = header.strip_prefix("impl")?;
    if rest.starts_with('<') {
        let mut depth = 0;
        let end = rest.char_indices().find_map(|(i, c)| {
            match c {
                '<' => depth += 1,
                '>' => depth -= 1,
                _ => {}
            }
            (depth == 0).then_some(i)
        })?;
        rest = &rest[end + 1..];
    }
    let rest = rest.split(" for ").last()?.trim();
    let path = rest.split(['<', ' ', '{']).next()?;
    Some(path.rsplit("::").next()?.to_string())
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Whether `line` uses `name`: any mention for a type, a call (`name(`,
/// `name::<`) or a path (`Type::name`) for a function.
fn mentions(line: &str, name: &str, kind: &str) -> bool {
    line.match_indices(name).any(|(at, _)| {
        let before = &line[..at];
        let after = &line[at + name.len()..];
        if before.ends_with(is_ident_char) || after.starts_with(is_ident_char) {
            return false;
        }
        if kind != "fn" {
            return true;
        }
        if before.trim_end().ends_with(" fn") || before.trim_end() == "fn" {
            return false;
        }
        let after = after.trim_start();
        before.ends_with("::") || after.starts_with('(') || after.starts_with("::<")
    })
}

fn pub_items(files: &[ScannedFile]) -> Vec<PubItem> {
    let mut items = Vec::new();
    for (f, file) in files.iter().enumerate() {
        if !file.rel.starts_with("crates/") {
            continue;
        }
        for (line, text) in file.lines.iter().enumerate() {
            let Some(rest) = text.trim_start().strip_prefix("pub ") else {
                continue;
            };
            let Some((kind, rest)) = ["fn", "struct", "enum", "mod"]
                .into_iter()
                .find_map(|kind| Some((kind, rest.strip_prefix(kind)?.strip_prefix(' ')?)))
            else {
                continue;
            };
            let name: String = rest.chars().take_while(|&c| is_ident_char(c)).collect();
            // The enclosing block, if any: an `impl` or an inline `mod`.
            let owner = (0..line)
                .rev()
                .find(|&j| {
                    !file.lines[j].trim().is_empty()
                        && indent(&file.lines[j]) < indent(text)
                        && file.code[j].trim_end().ends_with('{')
                })
                .and_then(|j| {
                    let header = file.lines[j].trim();
                    impl_self_type(header).or_else(|| {
                        let module = header.strip_prefix("pub ").unwrap_or(header);
                        Some(
                            module
                                .strip_prefix("mod ")?
                                .trim_end_matches([' ', '{'])
                                .into(),
                        )
                    })
                });
            let key = match owner {
                Some(owner) => format!("{owner}::{name}"),
                None => name.clone(),
            };
            let mut span = vec![(line, item_end(&file.lines, &file.code, line))];
            if kind == "struct" || kind == "enum" {
                for (j, header) in file.lines.iter().enumerate() {
                    if header.starts_with("impl") && impl_self_type(header).as_ref() == Some(&name)
                    {
                        span.push((j, item_end(&file.lines, &file.code, j)));
                    }
                }
            }
            items.push(PubItem {
                file: f,
                line,
                kind,
                name,
                key,
                span,
            });
        }
    }
    items
}

/// Whether `file` belongs to module `name`, declared with `pub mod name;`
/// in `declarer`: it is `name.rs` or lies under `name/`, next to a
/// `lib.rs` or `mod.rs` declarer and below any other.
fn in_module_file(file: &str, declarer: &str, name: &str) -> bool {
    let (dir, stem) = declarer.rsplit_once('/').unwrap_or(("", declarer));
    let stem = stem.trim_end_matches(".rs");
    let base = if ["lib", "main", "mod"].contains(&stem) {
        format!("{dir}/{name}")
    } else {
        format!("{dir}/{stem}/{name}")
    };
    file == format!("{base}.rs") || file.starts_with(&format!("{base}/"))
}

/// Every public item whose name no product line outside the item uses,
/// with the uncalled items' own lines struck until nothing changes (an
/// item called only from another uncalled item is uncalled too). A module
/// is uncalled when every public item in it is. Items in `keep` count as
/// called.
fn uncalled_items(files: &[ScannedFile], items: &[PubItem], keep: &[&str]) -> Vec<usize> {
    let in_span = |item: &PubItem, f: usize, line: usize| {
        item.file == f && item.span.iter().any(|&(a, b)| (a..=b).contains(&line))
    };
    // The lines each identifier appears on, then where each item is
    // mentioned outside its own span.
    let mut lines_with: HashMap<&str, Vec<(usize, usize)>> = HashMap::new();
    for (f, file) in files.iter().enumerate() {
        for (line, code) in file.code.iter().enumerate() {
            for word in code.split(|c| !is_ident_char(c)).filter(|w| !w.is_empty()) {
                let at = lines_with.entry(word).or_default();
                if at.last() != Some(&(f, line)) {
                    at.push((f, line));
                }
            }
        }
    }
    let uses: Vec<Vec<(usize, usize)>> = items
        .iter()
        .map(|item| {
            let candidates = lines_with
                .get(item.name.as_str())
                .map_or(&[][..], Vec::as_slice);
            candidates
                .iter()
                .copied()
                .filter(|&(f, line)| {
                    item.kind != "mod"
                        && mentions(&files[f].code[line], &item.name, item.kind)
                        && !in_span(item, f, line)
                })
                .collect()
        })
        .collect();
    let members: Vec<Vec<usize>> = items
        .iter()
        .map(|module| {
            if module.kind != "mod" {
                return Vec::new();
            }
            let declarer = &files[module.file].rel;
            (0..items.len())
                .filter(|&i| {
                    let file = &files[items[i].file].rel;
                    items[i].kind != "mod"
                        && (in_module_file(file, declarer, &module.name)
                            || in_span(module, items[i].file, items[i].line))
                })
                .collect()
        })
        .collect();
    let mut uncalled = vec![false; items.len()];
    let mut struck: Vec<Vec<bool>> = files.iter().map(|f| vec![false; f.lines.len()]).collect();
    loop {
        let mut changed = false;
        for i in 0..items.len() {
            if uncalled[i] || keep.contains(&items[i].key.as_str()) {
                continue;
            }
            let dead = if items[i].kind == "mod" {
                !members[i].is_empty() && members[i].iter().all(|&m| uncalled[m])
            } else {
                uses[i].iter().all(|&(f, line)| struck[f][line])
            };
            if dead {
                uncalled[i] = true;
                changed = true;
                for &(a, b) in &items[i].span {
                    struck[items[i].file][a..=b].fill(true);
                }
            }
        }
        if !changed {
            return (0..items.len()).filter(|&i| uncalled[i]).collect();
        }
    }
}

/// The body of test function `name` in `file`, if the file holds one in
/// a test position (a test target, or below a `#[cfg(test)]`).
fn test_body(root: &Path, file: &str, name: &str) -> Option<String> {
    let source = fs::read_to_string(root.join(file)).ok()?;
    let source = if file.contains("/src/") {
        source.split_once("#[cfg(test)]")?.1
    } else {
        &source
    };
    let lines: Vec<&str> = source.lines().collect();
    let start = lines
        .iter()
        .position(|l| l.trim_start().starts_with(&format!("fn {name}(")))?;
    let close = " ".repeat(indent(lines[start])) + "}";
    let end = (start..lines.len()).find(|&j| lines[j] == close)?;
    Some(lines[start..=end].join("\n"))
}

#[test]
fn every_public_item_has_a_product_caller_or_a_named_test() {
    // A public item that nothing calls is deleted, not kept "for later":
    // the VL2 and Jellyfish builders, the flow-trace reader and writer and
    // accessors only their own tests called went that way. An item kept
    // for tests alone is listed in `CALLED_ONLY_BY_TESTS` with a test that
    // calls it.
    let root = workspace_root();
    let mut paths = Vec::new();
    for entry in fs::read_dir(root.join("crates")).expect("crates/ must exist") {
        rust_sources(
            &entry.expect("readable dir entry").path().join("src"),
            &mut paths,
        );
    }
    for dir in ["src", "examples", "perf/src"] {
        rust_sources(&root.join(dir), &mut paths);
    }
    paths.sort();
    let files: Vec<ScannedFile> = paths.iter().map(|p| scan_file(&root, p)).collect();
    let items = pub_items(&files);
    assert!(
        items.len() > 300,
        "the scan found only {} items",
        items.len()
    );
    let keep: Vec<&str> = CALLED_ONLY_BY_TESTS.iter().map(|&(item, _)| item).collect();
    let uncalled: Vec<String> = uncalled_items(&files, &items, &keep)
        .into_iter()
        .map(|i| {
            let item = &items[i];
            format!(
                "{}:{} pub {} {}",
                files[item.file].rel,
                item.line + 1,
                item.kind,
                item.key
            )
        })
        .collect();
    assert!(
        uncalled.is_empty(),
        "public items with no product caller — delete them, or list a test that \
         calls them in CALLED_ONLY_BY_TESTS:\n{}",
        uncalled.join("\n")
    );
    // Each listed item exists, is kept for tests alone and is called by
    // its test.
    let without_keep = uncalled_items(&files, &items, &[]);
    for &(key, test) in CALLED_ONLY_BY_TESTS {
        let item = items
            .iter()
            .position(|item| item.key == key)
            .unwrap_or_else(|| panic!("CALLED_ONLY_BY_TESTS lists `{key}`, which does not exist"));
        assert!(
            without_keep.contains(&item),
            "`{key}` has a product caller — drop it from CALLED_ONLY_BY_TESTS"
        );
        let (file, name) = test.rsplit_once("::").expect("a test is `file::fn`");
        let body = test_body(&root, file, name)
            .unwrap_or_else(|| panic!("`{key}`: no test `{name}` in {file}"));
        let item = &items[item];
        assert!(
            body.lines()
                .skip(1)
                .any(|l| mentions(l, &item.name, item.kind)),
            "`{key}`: {test} does not call it"
        );
    }
}

#[test]
fn public_items_nothing_called_stay_deleted() {
    // The public items the surface guard above found uncalled, and the two
    // policy knobs only `Default` set, stay gone: the flow-trace I/O, the
    // VL2, Jellyfish and star builders, `dijkstra_on` and the accessors
    // only their own tests called. Hybrid's slack threshold is a
    // constant, not a field. The Frank–Wolfe solver takes the one cost it
    // is given: no cost trait, no one-shot owned-graph problem, no penalty
    // knob and no probe fingerprint of the cost. The online policy layer
    // keeps only what a policy uses: no `rcd` policy and its latest-start
    // helper, no wake-up timers, no per-flow predicted events, no public
    // event batch and no admission probe settings. `dcn-core` fails with
    // one `SolveError`: no per-module error enums, and no
    // `#[non_exhaustive]` marker on a type nothing outside the workspace
    // matches or builds. A solution hands its paths out as its split and
    // its steps, not as a chained iterator of both, and the search engine
    // reads the pendant index, not a sole-out-neighbour probe.
    let root = workspace_root();
    let mut sources = Vec::new();
    for entry in fs::read_dir(root.join("crates")).expect("crates/ must exist") {
        rust_sources(
            &entry.expect("readable dir entry").path().join("src"),
            &mut sources,
        );
    }
    let banned = [
        "mod trace",
        "TraceError",
        "fn to_json_string",
        "fn from_json_str",
        "fn write_json",
        "fn read_json",
        "fn vl2",
        "fn jellyfish",
        "fn star(",
        "fn active_at",
        "fn is_active_at",
        "fn total_volume",
        "fn invalid_endpoints",
        "fn blocked_intervals",
        "fn is_blocked_at",
        "fn start_time",
        "fn finish_time",
        "fn max_speed",
        "fn host_ids",
        "fn switch_ids",
        "fn out_degree",
        "fn mu(",
        "fn with_sigma",
        "fn optimal_rate_capped",
        "fn bottleneck_capacity",
        "fn base_capacity",
        "fn dijkstra_into",
        "fn dijkstra_on",
        "fn custom(",
        "fn routing(",
        "-> &RandomScheduleConfig",
        "fn interval(",
        "fn commodities(",
        "fn bucket_count",
        "fn clear_warm_cache",
        "with_headroom",
        "headroom: f64",
        "with_slack_threshold",
        "slack_threshold: f64",
        "trait FlowCost",
        "fn zero_load_is_free",
        "fn uniform_zero_load_marginal",
        "capacity_penalty",
        "enum GraphRef",
        "fn cost_fingerprint",
        "RcdPolicy",
        "fn wake_at",
        "fn latest_start",
        "fn reject_infeasible",
        "pub struct OnlineEvent",
        "SlackTimer",
        "DcfsError",
        "DcfsrError",
        "ExactError",
        "RoutingError",
        "non_exhaustive",
        "pub fn paths(&self, c: usize)",
        "fn sole_out_neighbor",
    ];
    for path in sources {
        let source = fs::read_to_string(&path).expect("source readable");
        for banned in banned {
            assert!(
                !source.contains(banned),
                "{}: `{banned}` is banned — a public item nothing calls stays deleted",
                path.display()
            );
        }
    }
}
