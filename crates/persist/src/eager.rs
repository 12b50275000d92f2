//! Eager Persistency: flush-per-store (or per dirtied line), persist
//! barrier, durable commit token — the baseline the paper's §I/§II
//! slowdown numbers come from.

use crate::backend::{
    BackendKind, BlockPersistSession, DurabilityContract, PersistScope, PersistencyBackend,
    SessionStats,
};
use nvm::Addr;
use simt::BlockCtx;
use std::collections::BTreeSet;

/// When the eager backend writes dirty lines back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EagerFlushPolicy {
    /// `clwb` after every protected store (strict eager): repeated stores
    /// to one line write it back repeatedly.
    PerStore,
    /// Each dirtied line is written back exactly once, at region commit
    /// (the logged-eager discipline; the undo log itself is written by the
    /// LP runtime on the first-touch edge this session reports).
    AtCommit,
}

/// The Eager Persistency backend.
#[derive(Debug, Clone, Copy)]
pub struct EagerBackend {
    policy: EagerFlushPolicy,
}

impl EagerBackend {
    /// Strict eager: flush on every protected store.
    pub fn per_store() -> Self {
        Self {
            policy: EagerFlushPolicy::PerStore,
        }
    }

    /// Logged eager: one deferred write-back per dirtied line at commit.
    pub fn at_commit() -> Self {
        Self {
            policy: EagerFlushPolicy::AtCommit,
        }
    }

    /// The flush policy.
    pub fn policy(&self) -> EagerFlushPolicy {
        self.policy
    }
}

impl PersistencyBackend for EagerBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Eager
    }

    fn contract(&self) -> DurabilityContract {
        DurabilityContract::of(BackendKind::Eager)
    }

    fn begin_block(&self, _block: u64) -> Box<dyn BlockPersistSession> {
        Box::new(EagerSession {
            policy: self.policy,
            dirtied: BTreeSet::new(),
            stats: SessionStats::default(),
        })
    }
}

/// Per-block eager session: tracks dirtied lines and issues the flushes
/// and barriers of the eager discipline.
#[derive(Debug)]
pub struct EagerSession {
    policy: EagerFlushPolicy,
    /// Line bases dirtied by this region, in address order (deterministic
    /// commit-time write-back order).
    dirtied: BTreeSet<u64>,
    stats: SessionStats,
}

impl BlockPersistSession for EagerSession {
    fn on_store(&mut self, ctx: &mut BlockCtx<'_>, addr: Addr) -> bool {
        self.stats.stores += 1;
        let line = addr.raw() & !(ctx.line_size() - 1);
        let first = self.dirtied.insert(line);
        if first {
            self.stats.lines_touched += 1;
        }
        if self.policy == EagerFlushPolicy::PerStore {
            ctx.persist_line_reliably(addr, false);
            self.stats.lines_persisted += 1;
        }
        first
    }

    fn fence(&mut self, ctx: &mut BlockCtx<'_>, _scope: PersistScope) {
        // Eager persistency has no buffering to scope: every fence is a
        // full persist barrier.
        self.stats.fences += 1;
        ctx.persist_barrier();
    }

    fn commit(&mut self, ctx: &mut BlockCtx<'_>) {
        if self.policy == EagerFlushPolicy::AtCommit {
            for line in std::mem::take(&mut self.dirtied) {
                ctx.persist_line_reliably(Addr::new(line), false);
                self.stats.lines_persisted += 1;
            }
        }
        ctx.sync_threads();
        self.stats.fences += 1;
        ctx.persist_barrier();
    }

    fn persist_token(&mut self, ctx: &mut BlockCtx<'_>, addr: Option<Addr>) {
        if let Some(addr) = addr {
            ctx.persist_line_reliably(addr, false);
            self.stats.lines_persisted += 1;
        }
        self.stats.fences += 1;
        ctx.persist_barrier();
    }

    fn session_stats(&self) -> SessionStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvm::{NvmConfig, PersistMemory};
    use simt::{DeviceConfig, DeviceState, LaunchConfig};

    fn fixture() -> (PersistMemory, DeviceState, DeviceConfig, LaunchConfig) {
        let cfg = DeviceConfig::test_gpu();
        let mem = PersistMemory::new(NvmConfig::default());
        let dev = DeviceState::new(&cfg, 4, 128);
        let lc = LaunchConfig::linear(4 * 64, 64);
        (mem, dev, cfg, lc)
    }

    #[test]
    fn per_store_flushes_immediately() {
        let (mut mem, mut dev, cfg, lc) = fixture();
        let a = mem.alloc(256, 8);
        let mut ctx = BlockCtx::standalone(lc, 0, &mut mem, &mut dev, &cfg);
        let mut s = EagerBackend::per_store().begin_block(0);
        ctx.store_u64(a, 7);
        assert!(s.on_store(&mut ctx, a), "first touch of the line");
        assert!(!s.on_store(&mut ctx, a.offset(8)), "same line");
        let _ = ctx.into_cost();
        assert_eq!(s.session_stats().lines_persisted, 2, "one clwb per store");
        assert_eq!(s.session_stats().lines_touched, 1);
        assert_eq!(mem.dirty_lines(), 0, "store is durable right away");
    }

    #[test]
    fn at_commit_defers_the_writeback() {
        let (mut mem, mut dev, cfg, lc) = fixture();
        let a = mem.alloc(512, 8);
        let mut ctx = BlockCtx::standalone(lc, 0, &mut mem, &mut dev, &cfg);
        let mut s = EagerBackend::at_commit().begin_block(0);
        for i in 0..4u64 {
            ctx.store_u64(a.offset(128 * i), i);
            s.on_store(&mut ctx, a.offset(128 * i));
        }
        assert_eq!(s.session_stats().lines_persisted, 0, "nothing flushed yet");
        s.commit(&mut ctx);
        let _ = ctx.into_cost();
        assert_eq!(s.session_stats().lines_persisted, 4);
        assert_eq!(mem.dirty_lines(), 0, "commit drained every dirty line");
    }
}
