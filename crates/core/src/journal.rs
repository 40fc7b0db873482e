//! The durability knob of `stint-serve`'s session journal.
//!
//! The journal itself (framing, writer, replay and repair) lives in
//! `stint_serve::journal`; only [`FsyncPolicy`] stays here, at the path the
//! benchmark crate names it by.

/// When the journal file is flushed to stable storage.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// fsync after every record — a crash loses at most the record being
    /// appended (the default).
    Always,
    /// fsync every Nth record.
    Every(u64),
    /// Never fsync; flushing is left to the OS page cache.
    Off,
}

impl FsyncPolicy {
    /// Parse a `--journal-fsync` spec: `always`, `off`, or `every=N`
    /// (N ≥ 1).
    pub fn parse(spec: &str) -> Result<FsyncPolicy, String> {
        match spec.trim() {
            "always" => Ok(FsyncPolicy::Always),
            "off" => Ok(FsyncPolicy::Off),
            other => match other.split_once('=') {
                Some(("every", n)) => match n.trim().parse::<u64>() {
                    Ok(n) if n >= 1 => Ok(FsyncPolicy::Every(n)),
                    _ => Err(format!("bad fsync period {n:?} (want an integer ≥ 1)")),
                },
                _ => Err(format!(
                    "unknown fsync policy {other:?} (want always, off, or every=N)"
                )),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fsync_policy_parses() {
        assert_eq!(FsyncPolicy::parse("always"), Ok(FsyncPolicy::Always));
        assert_eq!(FsyncPolicy::parse("off"), Ok(FsyncPolicy::Off));
        assert_eq!(FsyncPolicy::parse("every=8"), Ok(FsyncPolicy::Every(8)));
        assert!(FsyncPolicy::parse("every=0").is_err());
        assert!(FsyncPolicy::parse("sometimes").is_err());
    }
}
