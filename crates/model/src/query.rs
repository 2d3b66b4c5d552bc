//! Client-visible query and response types.

use bytes::Bytes;

/// The three query types that form the IMKV client interface
/// (paper §II-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryOp {
    /// Look up the value stored under a key.
    Get,
    /// Store a value under a key (allocating, possibly evicting).
    Set,
    /// Remove a key and its value.
    Delete,
}

impl QueryOp {
    /// Wire opcode used by `dido-net`.
    #[must_use]
    pub fn wire_code(self) -> u8 {
        match self {
            QueryOp::Get => 1,
            QueryOp::Set => 2,
            QueryOp::Delete => 3,
        }
    }

    /// Parse a wire opcode.
    #[must_use]
    pub fn from_wire_code(code: u8) -> Option<QueryOp> {
        match code {
            1 => Some(QueryOp::Get),
            2 => Some(QueryOp::Set),
            3 => Some(QueryOp::Delete),
            _ => None,
        }
    }
}

/// A parsed key-value query.
///
/// `Bytes` keeps key/value slices zero-copy views into the network frame
/// they were parsed from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Query {
    /// Operation type.
    pub op: QueryOp,
    /// The key (non-empty for all valid queries).
    pub key: Bytes,
    /// The value (empty except for SET).
    pub value: Bytes,
    /// Requested time-to-live in *relative* seconds for SET (0 = no
    /// expiry; [`crate::TTL_IMMEDIATE`] = born expired, the mapping of a
    /// memcached absolute `exptime` already in the past). The engine
    /// converts this to an absolute deadline at store time via
    /// [`crate::ttl_to_deadline`]; expired objects answer GET as misses
    /// and are reclaimed lazily (on access) or proactively (segment
    /// sweep).
    pub ttl: u32,
    /// Opaque client flags for SET (memcached `flags`; 0 = unset).
    /// Stored with the object and echoed back on GET by codecs that
    /// carry them.
    pub flags: u32,
}

impl Query {
    /// A GET query.
    #[must_use]
    pub fn get(key: impl Into<Bytes>) -> Query {
        Query {
            op: QueryOp::Get,
            key: key.into(),
            value: Bytes::new(),
            ttl: 0,
            flags: 0,
        }
    }

    /// A SET query.
    #[must_use]
    pub fn set(key: impl Into<Bytes>, value: impl Into<Bytes>) -> Query {
        Query {
            op: QueryOp::Set,
            key: key.into(),
            value: value.into(),
            ttl: 0,
            flags: 0,
        }
    }

    /// A SET query carrying protocol metadata (TTL seconds and opaque
    /// client flags; 0 means unset for both).
    #[must_use]
    pub fn set_with(key: impl Into<Bytes>, value: impl Into<Bytes>, ttl: u32, flags: u32) -> Query {
        Query {
            op: QueryOp::Set,
            key: key.into(),
            value: value.into(),
            ttl,
            flags,
        }
    }

    /// A DELETE query.
    #[must_use]
    pub fn delete(key: impl Into<Bytes>) -> Query {
        Query {
            op: QueryOp::Delete,
            key: key.into(),
            value: Bytes::new(),
            ttl: 0,
            flags: 0,
        }
    }
}

/// Outcome of one query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResponseStatus {
    /// GET hit / SET stored / DELETE removed.
    Ok,
    /// GET or DELETE on a key that is not present.
    NotFound,
    /// SET failed (allocation failed even after eviction attempts, or the
    /// index rejected the insert).
    Error,
}

/// A response to one query, as produced by the `WR` task.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Outcome.
    pub status: ResponseStatus,
    /// For GET hits, the value; empty otherwise.
    pub value: Bytes,
}

impl Response {
    /// An `Ok` response carrying a value (GET hit).
    #[must_use]
    pub fn hit(value: impl Into<Bytes>) -> Response {
        Response {
            status: ResponseStatus::Ok,
            value: value.into(),
        }
    }

    /// An `Ok` response with no value (SET / DELETE success).
    #[must_use]
    pub fn ok() -> Response {
        Response {
            status: ResponseStatus::Ok,
            value: Bytes::new(),
        }
    }

    /// A `NotFound` response.
    #[must_use]
    pub fn not_found() -> Response {
        Response {
            status: ResponseStatus::NotFound,
            value: Bytes::new(),
        }
    }

    /// An `Error` response.
    #[must_use]
    pub fn error() -> Response {
        Response {
            status: ResponseStatus::Error,
            value: Bytes::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_codes_round_trip() {
        for op in [QueryOp::Get, QueryOp::Set, QueryOp::Delete] {
            assert_eq!(QueryOp::from_wire_code(op.wire_code()), Some(op));
        }
        assert_eq!(QueryOp::from_wire_code(0), None);
        assert_eq!(QueryOp::from_wire_code(200), None);
    }

    #[test]
    fn constructors() {
        let q = Query::set("k1", "v1");
        assert_eq!(q.op, QueryOp::Set);
        assert_eq!(&q.key[..], b"k1");
        assert_eq!(&q.value[..], b"v1");
        assert_eq!((q.ttl, q.flags), (0, 0));
        let m = Query::set_with("k1", "v1", 30, 0xBEEF);
        assert_eq!((m.ttl, m.flags), (30, 0xBEEF));
        let g = Query::get("k1");
        assert!(g.value.is_empty());
        let d = Query::delete("k1");
        assert_eq!(d.op, QueryOp::Delete);
    }

    #[test]
    fn responses() {
        assert_eq!(Response::hit("abc").status, ResponseStatus::Ok);
        assert_eq!(&Response::hit("abc").value[..], b"abc");
        assert_eq!(Response::not_found().status, ResponseStatus::NotFound);
        assert!(Response::ok().value.is_empty());
        assert_eq!(Response::error().status, ResponseStatus::Error);
    }
}
