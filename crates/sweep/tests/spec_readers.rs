//! Every spec reader — the sweep spec, the campaign spec with its
//! traffic blocks, and the fsm scenario — reads each of its objects
//! through the one key-checked reader in `json`, so a misspelt key is an
//! error naming the block and the key at every nesting level.

use analysis::fsm;
use experiments::campaign::{CampaignError, CampaignSpec};
use std::path::Path;
use sweep::SweepSpec;
use workload::RuntimeKind;

const SWEEP: [(&str, &str); 6] = [
    (r#"{"name":"x","misspelt":1}"#, "spec"),
    (r#"{"name":"x","faults":{"misspelt":1}}"#, "faults"),
    (
        r#"{"name":"x","faults":{"flaps":[{"link":0,"at_s":0,"for_s":0},
            {"link":0,"at_s":0,"for_s":0,"misspelt":1}]}}"#,
        "faults.flaps[1]",
    ),
    (
        r#"{"name":"x","faults":{"adversary":{"link":0,"misspelt":1}}}"#,
        "faults.adversary",
    ),
    (
        r#"{"name":"x","placement":{"policy":"round_robin","misspelt":1}}"#,
        "placement",
    ),
    (
        r#"{"name":"x","migration":{"moves":[{"tenant":0,"at_s":0,"to_target":0,"misspelt":1}]}}"#,
        "migration.moves[0]",
    ),
];

/// A campaign spec with one `@slot` in each object a key can sit in.
const CAMPAIGN: &str = r#"{"name": "t", "seeds": [1] @root,
    "scenarios": [
      {"name": "a", "traffic": {"model": "phased" @traffic,
        "churn": [{"at_s": 0.01, "for_s": 0.01, "tenants": 1 @churn}],
        "phases": [{"dur_ms": 1, "rate_kiops": 10, "read_fraction": 1},
                   {"dur_ms": 1, "rate_kiops": 10, "read_fraction": 0 @phase}]}},
      {"name": "b", "traffic": {"model": "poisson"} @scenario}],
    "expectations": [{"check": "exactly_once" @expectation}]}"#;

/// [`CAMPAIGN`] with a misspelt key in `slot` and the other slots empty.
fn campaign(slot: &str) -> String {
    let slots = [
        "@root",
        "@traffic",
        "@churn",
        "@phase",
        "@scenario",
        "@expectation",
    ];
    slots.iter().fold(CAMPAIGN.to_string(), |doc, s| {
        doc.replace(s, if *s == slot { r#", "misspelt": 1"# } else { "" })
    })
}

#[test]
fn a_misspelt_key_names_its_block_at_every_level() {
    for (doc, path) in SWEEP {
        let err = SweepSpec::from_json(doc).unwrap_err();
        assert!(
            err.contains(&format!("{path}: unknown key \"misspelt\"")),
            "{doc}: {err}"
        );
    }

    assert!(CampaignSpec::from_json_str(&campaign("")).is_ok());
    for (slot, ctx) in [
        ("@root", ""),
        ("@scenario", "scenarios[1]"),
        ("@expectation", "expectations[0]"),
        ("@traffic", "scenarios[0].traffic"),
        ("@churn", "scenarios[0].traffic.churn[0]"),
        ("@phase", "scenarios[0].traffic.phases[1]"),
    ] {
        let err = CampaignSpec::from_json_str(&campaign(slot)).unwrap_err();
        let key = "misspelt".to_string();
        let at = if ctx.is_empty() { "spec root" } else { ctx };
        assert_eq!(
            err.to_string(),
            format!("campaign spec: unknown key \"{key}\" in {at}")
        );
        assert_eq!(
            err,
            CampaignError::UnknownKey {
                ctx: ctx.to_string(),
                key
            }
        );
    }

    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios/fsm");
    let witness = std::fs::read_to_string(dir.join("forged_ls_overflow.json")).unwrap();
    assert!(fsm::scenario::parse(&witness).is_ok());
    for (doc, path) in [
        (witness.replacen('{', r#"{"misspelt": 1,"#, 1), "spec"),
        (
            witness.replace(r#""config": {"#, r#""config": {"misspelt": 1,"#),
            "config",
        ),
    ] {
        let err = fsm::scenario::parse(&doc).unwrap_err();
        assert!(
            err.contains(&format!("{path}: unknown key `misspelt`")),
            "{err}"
        );
    }
}

/// Both doors read the spec root through one reader: the name is a file
/// name's part, the tenant, shard and thread counts start at 1, and the
/// runtime takes every spelling.
#[test]
fn both_doors_share_the_root_rules() {
    let poisson = r#"{"name": "p", "traffic": {"model": "poisson"}}"#;
    let campaign =
        |root: &str, row: &str| format!(r#"{{"seeds": [1], "scenarios": [{row}], {root}}}"#);
    let want = "must be non-empty [A-Za-z0-9_-] (it names the output file)";
    for name in [r#""x/../../../evil""#, r#""""#] {
        let err = SweepSpec::from_json(&format!(r#"{{"name": {name}}}"#)).unwrap_err();
        assert!(err.contains(want), "{err}");
        match CampaignSpec::from_json_str(&campaign(&format!(r#""name": {name}"#), poisson)) {
            Err(CampaignError::Parse(msg)) => assert!(msg.contains(want), "{msg}"),
            other => panic!("{name}: {other:?}"),
        }
    }

    let row =
        |extra: &str| format!(r#"{{"name": "p", "traffic": {{"model": "poisson"}}, {extra}}}"#);
    for (root, row, want) in [
        (
            r#""name": "t", "tc": 0"#,
            poisson.to_string(),
            r#"spec: "tc""#,
        ),
        (r#""name": "t""#, row(r#""tc": 0"#), r#"scenarios[0]: "tc""#),
        (
            r#""name": "t""#,
            row(r#""shards": 0"#),
            r#"scenarios[0]: "shards""#,
        ),
        (
            r#""name": "t", "threads": 0"#,
            poisson.to_string(),
            r#"spec: "threads""#,
        ),
    ] {
        let want = format!("{want} must be an integer >= 1");
        assert_eq!(
            CampaignSpec::from_json_str(&campaign(root, &row)),
            Err(CampaignError::Parse(want))
        );
    }
    let err = SweepSpec::from_json(r#"{"name": "x", "threads": 0}"#).unwrap_err();
    assert_eq!(err, r#"spec: "threads" must be an integer >= 1"#);

    for (spelling, runtime) in [
        ("spdk", RuntimeKind::Spdk),
        ("SPDK", RuntimeKind::Spdk),
        ("opf", RuntimeKind::Opf),
        ("OPF", RuntimeKind::Opf),
        ("nvme-opf", RuntimeKind::Opf),
    ] {
        let sweep = format!(r#"{{"name": "x", "runtimes": ["{spelling}"]}}"#);
        assert_eq!(SweepSpec::from_json(&sweep).unwrap().runtimes, [runtime]);
        let root = format!(r#""name": "t", "runtime": "{spelling}""#);
        let spec = CampaignSpec::from_json_str(&campaign(&root, poisson)).unwrap();
        assert_eq!(spec.runtime, runtime);
    }
}

/// The per-reader key checks and typed-lookup wrappers are gone: one
/// reader in `json` does both.
#[test]
fn no_reader_keeps_its_own_key_check() {
    fn scan(dir: &Path, hits: &mut Vec<String>) {
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                scan(&path, hits);
            } else if path.extension().is_some_and(|x| x == "rs") {
                let text = std::fs::read_to_string(&path).unwrap();
                for (i, line) in text.lines().enumerate() {
                    let l = line.trim_start();
                    let rest = l.strip_prefix("pub ").unwrap_or(l);
                    if rest.starts_with("fn check_keys")
                        || rest.starts_with("fn field(")
                        || rest.starts_with("fn field<")
                    {
                        hits.push(format!("{}:{}", path.display(), i + 1));
                    }
                }
            }
        }
    }
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut hits = Vec::new();
    for entry in std::fs::read_dir(&crates).unwrap() {
        let src = entry.unwrap().path().join("src");
        if src.is_dir() {
            scan(&src, &mut hits);
        }
    }
    assert!(hits.is_empty(), "per-reader key checks: {hits:?}");
}

/// Placement is arithmetic (tenant slot i on target i mod targets): the
/// sweep door reads a `placement` block only in the one spelling that
/// says so, and names the block when it refuses one.
#[test]
fn placement_reads_only_as_round_robin() {
    for doc in [
        r#"{"name":"x","placement":{"policy":"least_loaded"}}"#,
        r#"{"name":"x","placement":{"policy":"pinned","pins":[0,1,0]}}"#,
        r#"{"name":"x","placement":{"policy":"round_robin","pins":[0]}}"#,
    ] {
        let err = SweepSpec::from_json(doc).unwrap_err();
        assert!(err.starts_with("placement: "), "{doc}: {err}");
    }
    let spec = SweepSpec::from_json(r#"{"name":"x","placement":{"policy":"round_robin"}}"#);
    assert_eq!(spec, SweepSpec::from_json(r#"{"name":"x"}"#));
}

/// The benchmark's checked-in specs parse through their own doors, so a
/// reader change that would break the benchmark fails here too.
#[test]
fn the_benchmark_specs_parse() {
    let sweep = include_str!("../../../opfbench/specs/cluster2_migrate.json");
    let spec = SweepSpec::from_json(sweep).unwrap();
    assert_eq!((spec.targets, spec.migrations.len()), (2, 2));
    let campaign = include_str!("../../../opfbench/specs/campaign_openloop_lossy.json");
    let spec = CampaignSpec::from_json_str(campaign).unwrap();
    assert!(!spec.scenarios.is_empty());
}
