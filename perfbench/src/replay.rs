//! Splits a launch's host time between `simt` and `nvm` from the outside.
//!
//! A [`Recorder`] observes a baseline launch's global-access stream (and
//! its block boundaries, which set the writer tag). [`replay`] then issues
//! exactly that stream through `PersistMemory::read_bytes`/`write_bytes`
//! on a fresh copy of the same world, so the replay's host time is the
//! memory layer's share of the launch. The split is valid only when the
//! replayed `NvmStats` equal the launch's, which the caller checks.

use nvm::{Addr, PersistMemory};
use simt::{AccessKind, AccessObserver};

const LOAD: u64 = 0;
const STORE: u64 = 1;
const ATOMIC: u64 = 2;
const BLOCK: u64 = 3;

/// One packed record per event: `addr << 8 | bytes << 2 | kind`; for block
/// events the block id takes the address field and bit 2 marks the begin.
#[derive(Default)]
pub struct Recorder {
    events: Vec<u64>,
}

impl AccessObserver for Recorder {
    fn on_block_begin(&mut self, block: u64) {
        self.events.push(block << 8 | 1 << 2 | BLOCK);
    }

    fn on_block_end(&mut self, block: u64) {
        self.events.push(block << 8 | BLOCK);
    }

    fn on_global_access(
        &mut self,
        _block: u64,
        _thread: u64,
        addr: u64,
        bytes: u64,
        kind: AccessKind,
        _locked: bool,
    ) {
        assert!(bytes <= 8 && addr < 1 << 56, "access does not fit a record");
        let kind = match kind {
            AccessKind::Load => LOAD,
            AccessKind::Store => STORE,
            AccessKind::Atomic => ATOMIC,
        };
        self.events.push(addr << 8 | bytes << 2 | kind);
    }
}

/// Issues the recorded stream against `mem`. Stored bytes are zeros: data
/// values do not affect the cache model on a device without faults.
pub fn replay(rec: &Recorder, mem: &mut PersistMemory) {
    let mut buf = [0u8; 8];
    for &e in &rec.events {
        let addr = Addr::new(e >> 8);
        let bytes = ((e >> 2) & 0xF) as usize;
        match e & 3 {
            LOAD => mem.read_bytes(addr, &mut buf[..bytes]),
            STORE => mem.write_bytes(addr, &[0u8; 8][..bytes]),
            ATOMIC => {
                mem.read_bytes(addr, &mut buf[..bytes]);
                mem.write_bytes(addr, &buf[..bytes]);
            }
            _ => mem.set_writer((e & 1 << 2 != 0).then_some(e >> 8)),
        }
    }
}
