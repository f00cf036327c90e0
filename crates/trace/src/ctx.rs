//! The per-run trace context: sink + loop table + address space.

use std::sync::Arc;

use crate::event::{FuncId, LoopId};
use crate::loops::LoopTable;
use crate::memory::{AddressSpace, TracedBuffer, Word};
use crate::sink::AccessSink;

/// Everything one instrumented run shares: the event consumer, the loop
/// UID registry ("static analysis" results) and the virtual address space.
///
/// One `TraceCtx` corresponds to one execution of one profiled program.
pub struct TraceCtx {
    sink: Arc<dyn AccessSink>,
    /// `sink.accepts_tiles()`, read once: accesses go through the
    /// per-thread tiles of [`crate::tile`] instead of `on_access`.
    pub(crate) tiled: bool,
    loops: LoopTable,
    addr_space: AddressSpace,
    threads: usize,
}

impl TraceCtx {
    /// Create a context delivering events to `sink` for a program that will
    /// run with `threads` profiled threads.
    pub fn new(sink: Arc<dyn AccessSink>, threads: usize) -> Arc<Self> {
        assert!(threads >= 1);
        Arc::new(Self {
            tiled: sink.accepts_tiles(),
            sink,
            loops: LoopTable::new(),
            addr_space: AddressSpace::new(),
            threads,
        })
    }

    /// The event consumer.
    pub fn sink(&self) -> &dyn AccessSink {
        &*self.sink
    }

    /// The loop/function registry.
    pub fn loops(&self) -> &LoopTable {
        &self.loops
    }

    /// The virtual address allocator.
    pub fn address_space(&self) -> &AddressSpace {
        &self.addr_space
    }

    /// Declared number of profiled threads.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Allocate a zeroed traced buffer of `len` elements of `T`.
    pub fn alloc<T: Word>(self: &Arc<Self>, len: usize) -> TracedBuffer<T> {
        TracedBuffer::new(self, len)
    }

    /// Shorthand: register a function name.
    pub fn func(&self, name: &str) -> FuncId {
        self.loops.register_func(name)
    }

    /// Shorthand: register a root loop in `func`.
    pub fn root_loop(&self, name: &str, func: FuncId) -> LoopId {
        self.loops.register_loop(name, LoopId::NONE, func)
    }

    /// Shorthand: register a loop nested under `parent`.
    pub fn nested_loop(&self, name: &str, parent: LoopId, func: FuncId) -> LoopId {
        self.loops.register_loop(name, parent, func)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::NoopSink;

    #[test]
    fn ctx_wires_components() {
        let ctx = TraceCtx::new(Arc::new(NoopSink), 8);
        assert_eq!(ctx.threads(), 8);
        let f = ctx.func("main");
        let outer = ctx.root_loop("outer", f);
        let inner = ctx.nested_loop("inner", outer, f);
        assert_eq!(ctx.loops().parent(inner), outer);
        let b: TracedBuffer<u64> = ctx.alloc(4);
        assert!(b.base_addr() >= AddressSpace::BASE);
    }
}
