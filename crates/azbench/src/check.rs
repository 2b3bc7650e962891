//! Output checks: simulated statistics repeat exactly under a fixed seed,
//! so they are checked, not measured. Every repetition fingerprints each
//! artifact it emits and compares it with a committed reference
//! (`reference/<workload>.fnv`, written by `azbench bless`).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// The seed the committed references (and the `results/` goldens) were
/// produced with. Any other seed has no reference: the check becomes
/// "every repetition of this run emits identical bytes".
pub const DEFAULT_SEED: u64 = 2012;

/// FNV-1a (64-bit) of `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Artifact name → fingerprint, in name order.
pub type Fingerprints = BTreeMap<String, u64>;

/// The repository root, two levels above this crate.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn reference_path(workload: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("reference")
        .join(format!("{workload}.fnv"))
}

/// Parse a reference file: one `<fingerprint-hex> <artifact>` per line.
pub fn parse_reference(text: &str) -> Result<Fingerprints, String> {
    let mut out = Fingerprints::new();
    for (n, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (hex, name) = line
            .split_once(' ')
            .ok_or_else(|| format!("line {}: expected `<hex> <artifact>`", n + 1))?;
        let fp = u64::from_str_radix(hex, 16)
            .map_err(|_| format!("line {}: bad fingerprint {hex:?}", n + 1))?;
        out.insert(name.trim().to_owned(), fp);
    }
    Ok(out)
}

pub fn render_reference(workload: &str, fps: &Fingerprints) -> String {
    let mut out = format!(
        "# azbench reference for `{workload}` at seed {DEFAULT_SEED}: FNV-1a of every artifact one \
         repetition emits.\n# Regenerate with `azbench bless` only when a change is meant to alter \
         simulated results.\n"
    );
    for (name, fp) in fps {
        out.push_str(&format!("{fp:016x} {name}\n"));
    }
    out
}

pub fn load_reference(workload: &str) -> Result<Fingerprints, String> {
    let path = reference_path(workload);
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse_reference(&text).map_err(|e| format!("{}: {e}", path.display()))
}

pub fn write_reference(workload: &str, fps: &Fingerprints) -> Result<PathBuf, String> {
    let path = reference_path(workload);
    std::fs::write(&path, render_reference(workload, fps))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

/// Compare one repetition's fingerprints with what they should be; one
/// check per expected artifact, plus one failure per artifact nobody
/// expected. Returns `(attempted, failures)`.
pub fn compare(got: &Fingerprints, want: &Fingerprints) -> (u64, Vec<String>) {
    let mut failures = Vec::new();
    for (name, fp) in want {
        match got.get(name) {
            Some(g) if g == fp => {}
            Some(g) => failures.push(format!("{name}: got {g:016x}, want {fp:016x}")),
            None => failures.push(format!("{name}: not emitted")),
        }
    }
    let mut attempted = want.len();
    for name in got.keys().filter(|n| !want.contains_key(*n)) {
        attempted += 1;
        failures.push(format!("{name}: emitted but has no reference"));
    }
    (attempted as u64, failures)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_published_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn fingerprint_is_stable_and_byte_sensitive() {
        let csv = "workers,4KB\n1,0.5\n";
        assert_eq!(fnv1a(csv.as_bytes()), fnv1a(csv.to_owned().as_bytes()));
        assert_ne!(
            fnv1a(csv.as_bytes()),
            fnv1a("workers,4KB\n1,0.6\n".as_bytes())
        );
    }

    #[test]
    fn reference_roundtrips() {
        let mut fps = Fingerprints::new();
        fps.insert("fig6-put.csv".into(), 0xdead_beef);
        fps.insert("hot queue.txt".into(), 7);
        let text = render_reference("w", &fps);
        assert_eq!(parse_reference(&text).unwrap(), fps);
        assert!(parse_reference("zz name").is_err());
        assert!(parse_reference("nospace").is_err());
    }

    #[test]
    fn compare_counts_mismatch_missing_and_extra() {
        let mut want = Fingerprints::new();
        want.insert("a".into(), 1);
        want.insert("b".into(), 2);
        let mut got = want.clone();
        assert_eq!(compare(&got, &want), (2, vec![]));
        got.insert("b".into(), 3);
        got.insert("c".into(), 4);
        let (attempted, failures) = compare(&got, &want);
        assert_eq!(attempted, 3);
        assert_eq!(failures.len(), 2);
        got.remove("a");
        assert_eq!(compare(&got, &want).1.len(), 3);
    }

    #[test]
    fn committed_queue_fanout_reference_equals_the_goldens() {
        // The reference must pin the same bytes as the WAS goldens in
        // `results/`, so a stale `bless` cannot drift away from them.
        let reference = load_reference("queue-fanout").expect("reference committed");
        for fig in ["fig6", "fig7"] {
            for op in ["put", "peek", "get"] {
                let name = format!("{fig}-{op}.csv");
                let golden = std::fs::read(repo_root().join("results").join(&name)).unwrap();
                assert_eq!(reference.get(&name), Some(&fnv1a(&golden)), "{name}");
            }
        }
    }
}
