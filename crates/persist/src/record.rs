//! The one durable commit path: sealed records and drain-with-retry.
//!
//! Every small piece of state that must be found intact after a crash — a
//! policy-journal switch, an app's commit manifest — is a *sealed record*:
//! the words `[seq, payload…, check]` inside one cache line. `seq == 0`
//! marks an empty slot, and `check` folds the schema's magic through every
//! other word, so a torn, stale or rotted record never validates.
//!
//! [`commit_record`] writes a record, drains its line with bounded retries
//! and then reads it back **from the durable view**. Only that read-back
//! decides: the device's flush ACK is never trusted, because a torn
//! write-back ACKs too. The schemas over this module (the policy journal,
//! the two-slot app manifest) choose the slot layout, the magic and what
//! to do when a commit is not durable; the format and the protocol are
//! here, once.

use nvm::{splitmix64, Addr, FlushOutcome, PersistMemory};

/// Flush retries per line before a commit reports the device refused it.
pub const COMMIT_RETRIES: u32 = 6;

/// The verdict of [`commit_record`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordCommit {
    /// The record was read back intact from the durable view.
    Durable,
    /// The device kept refusing the line, or persisted a record that does
    /// not read back intact (a torn write-back).
    NotDurable,
    /// Power failed before the record could be made durable.
    PowerLost,
}

/// Bytes a record with `n` payload words occupies.
pub const fn record_bytes(n: usize) -> u64 {
    (n as u64 + 2) * 8
}

/// The seal over `[seq, payload…]`, domain-separated by `magic`.
pub fn record_check(magic: u64, seq: u64, payload: &[u64]) -> u64 {
    std::iter::once(&seq)
        .chain(payload)
        .rev()
        .fold(magic, |acc, &w| splitmix64(w ^ acc))
}

/// Reads the record of `n` payload words at `at` from the durable view.
/// Returns `None` for an empty slot or one whose seal does not validate.
pub fn read_record(mem: &PersistMemory, at: Addr, magic: u64, n: usize) -> Option<(u64, Vec<u64>)> {
    let word = |i: usize| mem.read_durable_u64(at.index(i as u64, 8));
    let seq = word(0);
    if seq == 0 {
        return None;
    }
    let payload: Vec<u64> = (1..=n).map(word).collect();
    (word(n + 1) == record_check(magic, seq, &payload)).then_some((seq, payload))
}

/// Writes the sealed record `[seq, payload…, check]` at `at`, drains its
/// line with [`COMMIT_RETRIES`] retries and reads it back from the durable
/// view; [`RecordCommit::Durable`] only if exactly this record reads back.
///
/// # Panics
///
/// Panics if `seq` is zero or the record does not fit in `at`'s line.
pub fn commit_record(
    mem: &mut PersistMemory,
    at: Addr,
    magic: u64,
    seq: u64,
    payload: &[u64],
) -> RecordCommit {
    assert_ne!(seq, 0, "sequence 0 marks an empty slot");
    let line = mem.config().line_size as u64;
    assert!(
        at.raw() % line + record_bytes(payload.len()) <= line,
        "a sealed record must fit one cache line"
    );
    mem.write_u64(at, seq);
    for (i, &w) in payload.iter().enumerate() {
        mem.write_u64(at.index(i as u64 + 1, 8), w);
    }
    let check = record_check(magic, seq, payload);
    mem.write_u64(at.index(payload.len() as u64 + 1, 8), check);
    if mem.power_failed() {
        return RecordCommit::PowerLost;
    }
    if !drain_line_with_retry(mem, at.raw(), COMMIT_RETRIES, |_| {}) {
        return RecordCommit::NotDurable;
    }
    match read_record(mem, at, magic, payload.len()) {
        Some((s, p)) if s == seq && p == payload => RecordCommit::Durable,
        _ => RecordCommit::NotDurable,
    }
}

/// Flushes the single line at `base` with up to `retries` attempts,
/// calling `on_transient_fail(attempt)` after each refusal (the resilient
/// engine charges its backoff there). Returns whether the device ACKed the
/// line; a torn write-back ACKs too, so callers that need durability read
/// back (as [`commit_record`] does).
pub fn drain_line_with_retry(
    mem: &mut PersistMemory,
    base: u64,
    retries: u32,
    mut on_transient_fail: impl FnMut(u32),
) -> bool {
    for attempt in 0..retries {
        match mem.flush_line_checked(Addr::new(base)) {
            FlushOutcome::Clean | FlushOutcome::Persisted => return true,
            FlushOutcome::TransientFail => on_transient_fail(attempt),
        }
    }
    false
}

/// Flushes the whole cache with up to `retries` attempts, calling
/// `on_refusal(attempt)` after each attempt that left lines dirty. Lines
/// the device still refuses are quarantined (the quarantine copy is
/// durable) and returned with their writer tags, sorted by base. Stops
/// early, quarantining nothing, if power fails.
pub fn drain_all_with_retry(
    mem: &mut PersistMemory,
    retries: u32,
    mut on_refusal: impl FnMut(u32),
) -> Vec<(u64, Vec<u64>)> {
    for attempt in 0..retries {
        if mem.flush_all_result() == 0 || mem.power_failed() {
            return Vec::new();
        }
        on_refusal(attempt);
    }
    let stubborn = mem.dirty_line_info();
    for &(base, _) in &stubborn {
        mem.quarantine_line(base);
    }
    stubborn
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvm::{FaultConfig, NvmConfig};

    const MAGIC: u64 = 0x5EA1_ED00_0000_0001;

    fn mem() -> PersistMemory {
        PersistMemory::new(NvmConfig {
            cache_lines: 64,
            associativity: 8,
            ..NvmConfig::default()
        })
    }

    #[test]
    fn check_folds_seq_then_payload_under_the_magic() {
        let (seq, a, b) = (3, 5, 7);
        let expected = splitmix64(seq ^ splitmix64(a ^ splitmix64(b ^ MAGIC)));
        assert_eq!(record_check(MAGIC, seq, &[a, b]), expected);
        assert_ne!(
            record_check(MAGIC, seq, &[a, b]),
            record_check(MAGIC ^ 1, seq, &[a, b])
        );
    }

    #[test]
    fn commit_then_read_round_trips_and_empty_reads_none() {
        let mut m = mem();
        let at = m.alloc(128, 128);
        assert_eq!(read_record(&m, at, MAGIC, 3), None);
        assert_eq!(
            commit_record(&mut m, at, MAGIC, 9, &[1, 2, 3]),
            RecordCommit::Durable
        );
        m.crash();
        assert_eq!(read_record(&m, at, MAGIC, 3), Some((9, vec![1, 2, 3])));
        assert_eq!(read_record(&m, at, MAGIC ^ 1, 3), None, "wrong schema");
    }

    #[test]
    fn a_torn_write_back_is_never_reported_durable() {
        let mut m = mem();
        // Fourteen payload words: the record fills the 128-byte line, so
        // any tear (a strict prefix of the line) leaves it incomplete.
        let at = m.alloc(128, 128);
        let payload: Vec<u64> = (1..=14).collect();
        m.set_fault_config(Some(FaultConfig::torn(5, 10_000)));
        let verdict = commit_record(&mut m, at, MAGIC, 1, &payload);
        m.set_fault_config(None);
        assert_eq!(m.stats().torn_writebacks, 1);
        assert_eq!(verdict, RecordCommit::NotDurable);
        assert_eq!(read_record(&m, at, MAGIC, payload.len()), None);
    }

    #[test]
    fn refused_line_is_not_durable_and_power_loss_is_reported() {
        let mut m = mem();
        let at = m.alloc(128, 128);
        m.set_fault_config(Some(FaultConfig::transient(7, 10_000)));
        assert_eq!(
            commit_record(&mut m, at, MAGIC, 1, &[4]),
            RecordCommit::NotDurable
        );
        m.set_fault_config(None);
        m.arm_crash_when(|_| true);
        assert_eq!(
            commit_record(&mut m, at, MAGIC, 2, &[4]),
            RecordCommit::PowerLost
        );
        assert_eq!(read_record(&m, at, MAGIC, 1), None);
    }

    #[test]
    fn drain_with_retry_reports_attempts() {
        let mut m = mem();
        let a = m.alloc(128, 8);
        m.write_u64(a, 1);
        let mut fails = 0;
        assert!(drain_line_with_retry(&mut m, a.raw(), 3, |_| fails += 1));
        assert_eq!(fails, 0, "perfect device persists on the first try");
        // Already clean: still true, still no failures.
        assert!(drain_line_with_retry(&mut m, a.raw(), 3, |_| fails += 1));
        assert_eq!(fails, 0);
    }

    #[test]
    fn drain_all_quarantines_what_the_device_keeps_refusing() {
        let mut m = mem();
        let a = m.alloc(256, 128);
        m.write_u64(a, 1);
        m.write_u64(a.offset(128), 2);
        m.set_fault_config(Some(FaultConfig::transient(3, 10_000)));
        let mut refusals = 0;
        let stubborn = drain_all_with_retry(&mut m, 4, |_| refusals += 1);
        m.set_fault_config(None);
        assert_eq!(refusals, 4);
        assert_eq!(stubborn.len(), 2);
        assert_eq!(m.dirty_lines(), 0);
        assert_eq!(m.read_durable_u64(a.offset(128)), 2);
        // A perfect device drains on the first attempt.
        m.write_u64(a, 3);
        assert!(drain_all_with_retry(&mut m, 4, |_| unreachable!()).is_empty());
        assert_eq!(m.read_durable_u64(a), 3);
    }
}
