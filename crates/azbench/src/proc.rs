//! What the operating system and the checkout say about this process:
//! memory high-water mark, CPU time, page faults, and the provenance every
//! result carries.

use crate::check::repo_root;
use std::path::Path;
use std::process::Command;

/// Peak resident set size (`VmHWM`) of this process so far, in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU seconds and minor faults of this process so far.
#[derive(Clone, Copy, Debug, Default)]
pub struct Usage {
    pub user_s: f64,
    pub sys_s: f64,
    pub minor_faults: f64,
}

impl Usage {
    /// Read `/proc/self/stat`. Times there are in clock ticks, which Linux
    /// fixes at 100 per second for user space (`USER_HZ`).
    pub fn now() -> Usage {
        const USER_HZ: f64 = 100.0;
        let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
            return Usage::default();
        };
        // The command name (field 2) may hold spaces; fields after the
        // closing parenthesis are plain. minflt is field 10, utime 14,
        // stime 15 — i.e. 7, 11 and 12 after the parenthesis (0-based).
        let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
        let field = |i: usize| {
            rest.split_whitespace()
                .nth(i)
                .and_then(|v| v.parse::<f64>().ok())
                .unwrap_or(0.0)
        };
        Usage {
            user_s: field(11) / USER_HZ,
            sys_s: field(12) / USER_HZ,
            minor_faults: field(7),
        }
    }

    pub fn since(self, earlier: Usage) -> Usage {
        Usage {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            minor_faults: self.minor_faults - earlier.minor_faults,
        }
    }
}

/// Where a result came from.
#[derive(Clone, Debug, PartialEq)]
pub struct Provenance {
    pub commit: String,
    pub nproc: usize,
    pub rustc: String,
    pub profile: &'static str,
}

impl Provenance {
    pub fn detect() -> Provenance {
        Provenance {
            commit: detect_commit(&repo_root()),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            rustc: command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".to_owned()),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
        }
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"commit\":\"{}\",\"nproc\":{},\"rustc\":\"{}\",\"profile\":\"{}\"}}",
            self.commit, self.nproc, self.rustc, self.profile
        )
    }
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    let text = String::from_utf8(out.stdout).ok()?;
    let line = text.lines().next()?.trim();
    (out.status.success() && !line.is_empty()).then(|| line.to_owned())
}

/// The checkout's commit: `git rev-parse HEAD`, else `.git/HEAD` and the
/// ref file it names, else a statement that this is no git checkout (the
/// benchmark driver runs from an exported tree).
pub fn detect_commit(root: &Path) -> String {
    let root_str = root.to_string_lossy();
    command_line("git", &["-C", &root_str, "rev-parse", "HEAD"])
        .unwrap_or_else(|| commit_from_files(&root.join(".git")))
}

/// What `git rev-parse HEAD` would say, read from the files of a `.git`
/// directory (for checkouts without a usable `git` binary).
fn commit_from_files(git: &Path) -> String {
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "not-a-git-checkout".to_owned();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => head.to_owned(),
        Some(reference) => std::fs::read_to_string(git.join(reference))
            .map(|s| s.trim().to_owned())
            .ok()
            .or_else(|| packed_ref(git, reference))
            .unwrap_or_else(|| format!("unborn:{reference}")),
    }
}

fn packed_ref(git: &Path, reference: &str) -> Option<String> {
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| {
        let (sha, name) = l.split_once(' ')?;
        (name == reference).then(|| sha.to_owned())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commit_is_read_from_head_files() {
        let git = std::env::temp_dir().join(format!("azbench-git-{}", std::process::id()));
        std::fs::create_dir_all(git.join("refs/heads")).unwrap();
        std::fs::write(git.join("HEAD"), "ref: refs/heads/main\n").unwrap();
        assert_eq!(commit_from_files(&git), "unborn:refs/heads/main");
        std::fs::write(git.join("refs/heads/main"), "0123abcd\n").unwrap();
        assert_eq!(commit_from_files(&git), "0123abcd");
        std::fs::remove_file(git.join("refs/heads/main")).unwrap();
        let packed = "# pack-refs with: peeled\nfeedbeef refs/heads/main\n";
        std::fs::write(git.join("packed-refs"), packed).unwrap();
        assert_eq!(commit_from_files(&git), "feedbeef");
        std::fs::write(git.join("HEAD"), "cafe0001\n").unwrap();
        assert_eq!(commit_from_files(&git), "cafe0001");
        std::fs::remove_dir_all(&git).unwrap();
        assert_eq!(commit_from_files(&git), "not-a-git-checkout");
    }

    #[test]
    fn this_checkout_never_reports_unknown() {
        let p = Provenance::detect();
        assert_ne!(p.commit, "unknown");
        assert!(!p.commit.is_empty());
        assert!(p.nproc >= 1);
    }

    #[test]
    fn usage_and_rss_read_back() {
        assert!(peak_rss_mb() > 0.0);
        let u = Usage::now();
        assert!(u.user_s >= 0.0 && u.minor_faults > 0.0);
    }
}
