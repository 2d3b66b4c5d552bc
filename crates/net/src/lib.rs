//! Network substrate for DIDO: the wire protocols, bounded frame rings
//! and the server's I/O planes.
//!
//! The paper's `RV` (receive) and `SD` (send) tasks operate on frames
//! from the RX/TX rings of a 10 GbE NIC; `PP` parses queries out of
//! those frames. This crate provides the functional pieces:
//! [`FrameRing`] for the rings, [`FrameBuilder`]/[`parse_frame`]
//! for encoding and zero-copy decoding, the response-side equivalents,
//! and the trace file format ([`write_trace`]/[`read_trace`]). The
//! simulated NIC — two rings, and the per-frame/per-query *time* costs
//! of RV/PP/SD (the paper estimates them from microbenchmarked unit
//! costs, §IV-B) — belongs to the reproduction crate (`dido-bench`).
//!
//! [`KvServer`] is the real TCP front-end: the paper's
//! RV-ring/dispatcher/SD-writer topology, where frames from every
//! connection aggregate through one shared [`FrameRing`] into
//! cross-connection wavefront batches (see `DESIGN.md` §10).
//!
//! ```
//! use dido_net::{FrameBuilder, parse_frame};
//! use dido_model::Query;
//!
//! let mut b = FrameBuilder::new();
//! b.push(&Query::set("k", "v"));
//! let frame = b.finish();
//! assert_eq!(parse_frame(&frame).unwrap()[0], Query::set("k", "v"));
//! ```

#![warn(missing_docs)]

#[cfg(not(target_os = "linux"))]
compile_error!("dido-net supports Linux only (its I/O drivers are epoll and io_uring)");

mod codec;
#[doc(hidden)]
pub mod driver;
mod nic;
mod protocol;
mod reactor;
mod sd;
mod server;
mod stats;
mod trace;

pub use codec::{
    carve_one, decode_request, encode_overflow_into, encode_reply_into, request_query_estimate,
    Carve, ProtocolKind, RequestMeta, MAX_LINE_BYTES, MAX_MC_KEY, MAX_RESP_ARRAY, PROTOCOL_KINDS,
};
pub use driver::{backend_matrix, uring_available, IoBackend, IoBackendChoice};
pub use nic::FrameRing;
pub use protocol::{
    encode_queries_wire_into, encode_responses, encode_responses_wire_into, frame_query_count,
    pack_frames, parse_frame, parse_frame_into, parse_responses, FrameBuilder, ProtocolError,
    DEFAULT_FRAME_CAPACITY, FRAME_HEADER, RECORD_HEADER,
};
pub use sd::BufRing;
#[doc(hidden)]
pub use sd::WriteQueue;
pub use server::{BatchConfig, DispatchMode, KvClient, KvServer, MAX_FRAME_BYTES};
pub use stats::{NetStatsSnapshot, ServerStats};
pub use trace::{read_trace, write_trace, TraceError, TraceWriter};
