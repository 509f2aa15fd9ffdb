//! The workspace's one little-endian codec. [`push`] and [`push_all`]
//! append fixed-width values to a buffer; a [`Reader`] reads them back and
//! never panics: running out of bytes is a [`Truncated`] error, and
//! [`Reader::array`] checks that a counted array fits in the bytes left
//! before it allocates for it.
//!
//! Snapshot sections and shard manifests (this crate) and `pg_serve`'s
//! wire frames all encode and decode through it; each turns [`Truncated`]
//! into its own error type with `?`.
//!
//! ```
//! use pg_store::codec::{push, push_all, Reader};
//!
//! let mut buf = Vec::new();
//! push(&mut buf, 2u32);
//! push_all(&mut buf, &[0.5f64, -1.0]);
//! let mut r = Reader::new(&buf);
//! let count: u32 = r.read("count").unwrap();
//! assert_eq!(r.exactly(&[(count as usize, 8)]), Ok(()));
//! assert_eq!(r.array::<f64>(2, "values").unwrap(), [0.5, -1.0]);
//! assert!(r.read::<u8>("past the end").is_err());
//! ```

/// The bytes ran out before a complete value could be read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Truncated {
    /// What was being read when the bytes ran out.
    pub context: &'static str,
}

/// A fixed-width value with a little-endian byte form.
pub trait Le: Copy {
    /// Its width in bytes.
    const WIDTH: usize;
    /// The value `bytes` encode; [`Reader`] hands it exactly
    /// [`Le::WIDTH`] bytes.
    fn from_le(bytes: &[u8]) -> Self;
    /// Appends the value's bytes to `buf`.
    fn put(self, buf: &mut Vec<u8>);
}

macro_rules! le {
    ($($t:ty),*) => {$(
        impl Le for $t {
            const WIDTH: usize = std::mem::size_of::<$t>();
            fn from_le(bytes: &[u8]) -> Self {
                <$t>::from_le_bytes(bytes.first_chunk().copied().unwrap_or_default())
            }
            fn put(self, buf: &mut Vec<u8>) {
                buf.extend_from_slice(&self.to_le_bytes());
            }
        }
    )*};
}

le!(u8, u16, u32, u64, f32, f64);

/// Appends `value`'s little-endian bytes to `buf`.
pub fn push<T: Le>(buf: &mut Vec<u8>, value: T) {
    value.put(buf);
}

/// Appends every value of `values`, in order.
pub fn push_all<T: Le>(buf: &mut Vec<u8>, values: &[T]) {
    for &v in values {
        v.put(buf);
    }
}

/// Reads little-endian values from a byte slice, front to back.
#[derive(Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    /// Bytes read so far.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// The bytes not read yet.
    pub fn rest(&self) -> &'a [u8] {
        self.bytes.get(self.pos..).unwrap_or_default()
    }

    /// The next `len` bytes.
    pub fn take(&mut self, len: usize, context: &'static str) -> Result<&'a [u8], Truncated> {
        let out = self.rest().get(..len).ok_or(Truncated { context })?;
        self.pos += len;
        Ok(out)
    }

    /// The next value.
    pub fn read<T: Le>(&mut self, context: &'static str) -> Result<T, Truncated> {
        self.take(T::WIDTH, context).map(T::from_le)
    }

    /// The next `count` values. A count that cannot fit in the bytes left is
    /// [`Truncated`] before anything is allocated, so a corrupt count cannot
    /// force an oversized buffer.
    pub fn array<T: Le>(
        &mut self,
        count: usize,
        context: &'static str,
    ) -> Result<Vec<T>, Truncated> {
        let len = count.checked_mul(T::WIDTH).ok_or(Truncated { context })?;
        let bytes = self.take(len, context)?;
        Ok(bytes.chunks_exact(T::WIDTH).map(T::from_le).collect())
    }

    /// Checks that the bytes left are exactly `arrays`, `(count, width)`
    /// pairs, and nothing more — the exact-size check a payload that ends in
    /// counted arrays makes before reading them. On a mismatch, returns the
    /// whole length the counts imply (bytes read so far included), or
    /// `None` when that overflows.
    pub fn exactly(&self, arrays: &[(usize, usize)]) -> Result<(), Option<usize>> {
        let implied = arrays.iter().try_fold(self.pos, |sum, &(count, width)| {
            sum.checked_add(count.checked_mul(width)?)
        });
        match implied {
            Some(len) if len == self.bytes.len() => Ok(()),
            other => Err(other),
        }
    }
}
