//! Sharded epoll reactor (Linux only): the event-driven transport
//! behind the daemon. One acceptor thread distributes connections
//! round-robin to N shard threads; each shard owns its connections
//! outright — non-blocking reads into growable buffers, the
//! incremental zero-copy parser from [`crate::http`], keep-alive and
//! pipelining with a bounded in-flight depth, and responses written
//! strictly in request order. Analysis work runs on per-shard worker
//! pools; finished responses come back through the shard's
//! [`ShardInbox`].

mod conn;
mod shard;
mod sys;

pub use shard::{
    Completion, CompletionGuard, Dispatch, Shard, ShardConfig, ShardHandler, ShardInbox,
};
