//! The durable manifest — a two-slot commit record.
//!
//! Every recoverable service needs one tiny piece of state that is
//! *always* readable after a crash: "what was the last committed step, and
//! what was in flight?". The manifest provides it with the classic
//! versioned double-buffer, as a schema over `lp-persist`'s sealed record
//! (`[seq, fields…, check]`, see [`lp_persist::record`]):
//!
//! * two slots, each confined to its own cache line so a single torn
//!   write-back can damage at most one slot;
//! * a commit seals the new fields into the slot the *older* sequence
//!   number lives in and is durable only once the record reads back
//!   intact from media. If it does not (the device refused the line or
//!   tore its write-back), the line is quarantined: the cached copy is
//!   intact, the quarantine copy is durable, and it is read back again;
//! * a load reads both slots from the **durable** media view and picks the
//!   valid one with the larger sequence number.
//!
//! A crash can therefore only ever revert the manifest to the previous
//! valid state — never present a corrupt one — and a commit that reported
//! success always survives. Services are written so that re-executing a
//! step from the previous state is idempotent.

use lp_persist::record::{commit_record, read_record, RecordCommit};
use nvm::{Addr, PersistMemory};

/// Domain separator folded into every slot's seal.
const MANIFEST_MAGIC: u64 = 0x4C50_4150_5053_4D4E; // "LPAPPSMN"

/// A two-slot sealed commit record in persistent memory.
///
/// Word layout per slot: `[seq, f_0 .. f_{N-1}, check]`.
#[derive(Debug, Clone)]
pub struct DurableManifest {
    /// Base addresses of the two slots (each on its own cache line). A
    /// quarantine remap can move a slot, so these are updated on commit.
    slots: [Addr; 2],
    /// Number of payload fields `N`.
    fields: usize,
    /// Cached sequence number of the latest committed slot.
    seq: u64,
}

impl DurableManifest {
    /// Allocates the two slots (one cache line each) and commits an
    /// all-zero field state so a crash before the first real commit still
    /// loads a valid manifest.
    pub fn create(mem: &mut PersistMemory, fields: usize) -> Self {
        assert!(fields > 0, "manifest needs at least one field");
        let line = mem.config().line_size as u64;
        let a = mem.alloc(line, line);
        let b = mem.alloc(line, line);
        let mut m = DurableManifest {
            slots: [a, b],
            fields,
            seq: 0,
        };
        let committed = m.commit(mem, &vec![0; fields]);
        assert!(
            committed || mem.power_failed(),
            "initial manifest commit refused without power loss"
        );
        m
    }

    /// Reads one slot from the durable media view.
    fn load_slot(&self, mem: &PersistMemory, slot: usize) -> Option<(u64, Vec<u64>)> {
        read_record(mem, self.slots[slot], MANIFEST_MAGIC, self.fields)
    }

    /// Loads the latest durable state: the valid slot with the larger
    /// sequence number, or `(0, zeros)` if neither slot validates (only
    /// possible before the very first commit drained).
    pub fn load(&mut self, mem: &PersistMemory) -> (u64, Vec<u64>) {
        let best = self
            .load_slot(mem, 0)
            .into_iter()
            .chain(self.load_slot(mem, 1))
            .max_by_key(|r| r.0);
        let (seq, fields) = best.unwrap_or_else(|| (0, vec![0; self.fields]));
        self.seq = seq;
        (seq, fields)
    }

    /// Commits a new field state into the older slot with `seq + 1`.
    /// Returns `true` only once the new record reads back intact from the
    /// durable view; `false` means power failed before durability.
    pub fn commit(&mut self, mem: &mut PersistMemory, fields: &[u64]) -> bool {
        assert_eq!(fields.len(), self.fields, "field count is fixed at create");
        let seq = self.seq + 1;
        let slot = (seq % 2) as usize;
        match commit_record(mem, self.slots[slot], MANIFEST_MAGIC, seq, fields) {
            RecordCommit::Durable => {}
            RecordCommit::PowerLost => return false,
            RecordCommit::NotDurable => {
                // Retire the line: the quarantine copy of the intact cached
                // record is durable, and the slot follows the remap.
                self.slots[slot] = mem.quarantine_line(self.slots[slot].raw());
                if self.load_slot(mem, slot) != Some((seq, fields.to_vec())) {
                    return false;
                }
            }
        }
        self.seq = seq;
        true
    }

    /// The sequence number of the last successful commit.
    pub fn seq(&self) -> u64 {
        self.seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lp_persist::record::record_check;
    use nvm::{FaultConfig, NvmConfig};

    fn mem() -> PersistMemory {
        PersistMemory::new(NvmConfig {
            cache_lines: 64,
            associativity: 8,
            ..NvmConfig::default()
        })
    }

    #[test]
    fn commit_then_load_round_trips() {
        let mut mem = mem();
        let mut m = DurableManifest::create(&mut mem, 3);
        assert!(m.commit(&mut mem, &[7, 8, 9]));
        assert!(m.commit(&mut mem, &[10, 11, 12]));
        let (seq, fields) = m.load(&mem);
        assert_eq!(fields, vec![10, 11, 12]);
        assert_eq!(seq, m.seq());
    }

    #[test]
    fn crash_reverts_to_previous_valid_state_not_garbage() {
        let mut mem = mem();
        let mut m = DurableManifest::create(&mut mem, 2);
        assert!(m.commit(&mut mem, &[1, 100]));
        // Write the next slot but crash before it drains: the line never
        // reaches media, so load must return the previous commit.
        let seq = m.seq() + 1;
        let slot = (seq % 2) as usize;
        let base = m.slots[slot];
        mem.write_u64(base, seq);
        mem.write_u64(base.index(1, 8), 2);
        mem.write_u64(base.index(2, 8), 200);
        mem.write_u64(
            base.index(3, 8),
            record_check(MANIFEST_MAGIC, seq, &[2, 200]),
        );
        mem.crash();
        let (_, fields) = m.load(&mem);
        assert_eq!(fields, vec![1, 100]);
    }

    #[test]
    fn torn_writeback_of_a_slot_falls_back_to_the_older_one() {
        let mut mem = mem();
        let mut m = DurableManifest::create(&mut mem, 2);
        assert!(m.commit(&mut mem, &[5, 50]));
        // Tear every write-back, then attempt a commit: the drain may
        // persist a mangled line, whose checksum must not validate.
        mem.set_fault_config(Some(FaultConfig::torn(99, 10_000)));
        let _ = m.commit(&mut mem, &[6, 60]);
        mem.set_fault_config(None);
        let (_, fields) = m.load(&mem);
        assert!(fields == vec![5, 50] || fields == vec![6, 60]);
    }

    #[test]
    fn a_commit_reported_durable_survives_a_crash_under_torn_write_backs() {
        for seed in 0..64 {
            let mut mem = mem();
            let mut m = DurableManifest::create(&mut mem, 2);
            assert!(m.commit(&mut mem, &[5, 50]));
            // Every write-back tears but ACKs: only the durable read-back
            // (and the quarantine it triggers) can make the commit honest.
            mem.set_fault_config(Some(FaultConfig::torn(seed, 10_000)));
            let committed = m.commit(&mut mem, &[6, 60]);
            mem.set_fault_config(None);
            assert!(committed, "seed {seed}: no power loss, so the commit lands");
            mem.crash();
            assert_eq!(m.load(&mem), (3, vec![6, 60]), "seed {seed}");
        }
    }

    #[test]
    fn survives_a_device_that_refuses_the_line_forever() {
        let mut mem = mem();
        let mut m = DurableManifest::create(&mut mem, 1);
        // Certain transient-refusal: every flush fails, so the commit
        // path must fall through to quarantine and still succeed.
        mem.set_fault_config(Some(FaultConfig::transient(7, 10_000)));
        assert!(m.commit(&mut mem, &[42]));
        mem.set_fault_config(None);
        let (_, fields) = m.load(&mem);
        assert_eq!(fields, vec![42]);
    }
}
