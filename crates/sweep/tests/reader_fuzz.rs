//! No text a user can hand the tools panics a reader (ROADMAP 5b).
//!
//! The four readers of outside text — the sweep spec, the campaign
//! spec, the fsm scenario and the trace log — are fed documents derived
//! from the checked-in ones by byte-level damage (bit flips, inserts,
//! deletions, truncation, duplicated slices, random blobs) and by
//! swapping a number for a hostile one (negative, fractional, `1e999`,
//! past `u64`, past every bound `Scenario::validate` knows). Each reader
//! must answer with `Err`, or with a value the next stage accepts:
//! every expanded scenario passes `validate()`, an fsm scenario replays
//! without panicking, a trace log survives a render/parse round trip.
//! A panic, abort or stack overflow fails the test; the harness prints
//! the mutation list that caused it.

use analysis::fsm;
use experiments::campaign::CampaignSpec;
use proptest::prelude::*;
use proptest::sample::Index;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;
use sweep::SweepSpec;
use workload::{TraceEvent, TraceLog};

/// Numbers that sit on or past a bound some reader has: sign, fraction,
/// `f64` overflow/underflow, `u8`/`u16`/`u32`/`u64` edges, the queue
/// depth, tenant-id and shard limits.
const HOSTILE_NUMBERS: [&str; 18] = [
    "0",
    "-1",
    "-0",
    "0.5",
    "1e999",
    "1e30",
    "1e-400",
    "63",
    "64",
    "255",
    "256",
    "1024",
    "1025",
    "65536",
    "4294967296",
    "100000000000",
    "18446744073709551615",
    "18446744073709551616",
];

/// One edit: `(kind, where, value)`.
type Edit = (u8, Index, u64);

/// Apply `edits` to `doc` and hand back valid UTF-8 (the readers take
/// `&str`; invalid sequences become U+FFFD, itself a multi-byte input).
fn mutate(doc: &str, edits: &[Edit]) -> String {
    let mut b = doc.as_bytes().to_vec();
    for &(kind, at, v) in edits {
        if b.is_empty() {
            break;
        }
        let i = at.index(b.len());
        let span = (v as usize % 24).min(b.len() - i);
        match kind {
            0 => b[i] ^= 1 << (v % 8),
            1 => b.insert(i, v as u8),
            2 => drop(b.drain(i..i + span)),
            3 => b.truncate(i),
            4 => {
                let slice = b[i..i + span].to_vec();
                let to = (v as usize / 24) % (b.len() + 1);
                b.splice(to..to, slice);
            }
            5 => b[i] = b"{}[]\",:\\\n#"[v as usize % 10],
            6 => {
                let blob: Vec<u8> = (0..span as u64)
                    .map(|j| (v.rotate_left(j as u32 * 7) ^ j) as u8)
                    .collect();
                b.splice(i..i, blob);
            }
            // Half of all edits: the digit run at or after `i` becomes
            // a hostile number, which keeps the document well-formed.
            _ => {
                let Some(start) = (i..b.len()).find(|&j| b[j].is_ascii_digit()) else {
                    continue;
                };
                let end = (start..b.len())
                    .find(|&j| !matches!(b[j], b'0'..=b'9' | b'.' | b'e' | b'-'))
                    .unwrap_or(b.len());
                let n = HOSTILE_NUMBERS[v as usize % HOSTILE_NUMBERS.len()];
                b.splice(start..end, n.bytes());
            }
        }
    }
    String::from_utf8_lossy(&b).into_owned()
}

fn edits() -> impl Strategy<Value = Vec<Edit>> {
    proptest::collection::vec((0u8..14, any::<Index>(), any::<u64>()), 1..4)
}

/// Every `*.json` directly under `scenarios/<sub>`, sorted.
fn read_corpus(sub: &str) -> Vec<String> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../scenarios")
        .join(sub);
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "{} holds no corpus", dir.display());
    files
        .iter()
        .map(|p| std::fs::read_to_string(p).unwrap())
        .collect()
}

/// The sweep and campaign specs under `scenarios/`, read once.
fn specs() -> &'static [String] {
    static DOCS: OnceLock<Vec<String>> = OnceLock::new();
    DOCS.get_or_init(|| read_corpus(""))
}

/// The fsm scenarios under `scenarios/fsm/`, read once.
fn fsm_scenarios() -> &'static [String] {
    static DOCS: OnceLock<Vec<String>> = OnceLock::new();
    DOCS.get_or_init(|| read_corpus("fsm"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20000))]

    /// Sweep and campaign specs share a directory; both parsers see
    /// both kinds (a campaign spec is a hostile sweep spec and vice
    /// versa).
    #[test]
    fn spec_readers_never_panic(pick in any::<Index>(), edits in edits()) {
        let docs = specs();
        let text = mutate(&docs[pick.index(docs.len())], &edits);
        if let Ok(spec) = SweepSpec::from_json(&text) {
            for (point, sc) in spec.expand() {
                prop_assert_eq!(sc.validate(), Ok(()), "{:?}", point);
            }
        }
        // The campaign parser validates every scenario it will build.
        let _ = CampaignSpec::from_json_str(&text);
    }

    #[test]
    fn fsm_scenario_reader_never_panics(pick in any::<Index>(), edits in edits()) {
        let docs = fsm_scenarios();
        let text = mutate(&docs[pick.index(docs.len())], &edits);
        if let Ok((cfg, cx)) = fsm::scenario::parse(&text) {
            // What `fsm --replay` does with it next.
            let _ = fsm::replay(&cfg, &cx.schedule);
            let again = fsm::scenario::parse(&fsm::scenario::emit(&cfg, &cx));
            prop_assert_eq!(again.map(|(c, x)| (c, x.schedule)), Ok((cfg, cx.schedule)));
        }
    }

    #[test]
    fn trace_reader_never_panics(seed in 0u64..8, edits in edits()) {
        let rendered = trace(seed).to_text();
        if let Ok(log) = TraceLog::from_text(&mutate(&rendered, &edits)) {
            prop_assert_eq!(TraceLog::from_text(&log.to_text()), Ok(log));
        }
    }
}

/// A 40-event trace over 4 tenants with every field kind in use: both
/// classes, both ops, sizes of 1–8 blocks, LBAs up to 2^40.
fn trace(seed: u64) -> TraceLog {
    let events = (0..40u64)
        .map(|i| TraceEvent {
            at_ns: i * 5_000 + seed * 7,
            tenant: ((i + seed) % 4) as u8,
            ls: i % 5 == 0,
            write: i % 3 == 0,
            lba: (i * 0x9E37_79B9 + seed) % (1 << 40),
            blocks: 1 + (i % 8) as u16,
        })
        .collect();
    TraceLog { events }
}

/// The fuzz above only means something if the unmutated corpus parses.
#[test]
fn the_corpus_itself_is_accepted() {
    for doc in specs() {
        assert!(
            SweepSpec::from_json(doc).is_ok() || CampaignSpec::from_json_str(doc).is_ok(),
            "neither spec reader accepts:\n{doc}"
        );
    }
    for doc in fsm_scenarios() {
        fsm::scenario::parse(doc).expect("checked-in fsm scenario parses");
    }
}
