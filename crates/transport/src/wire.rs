//! Byte-exact message encoding.
//!
//! Every protocol message in the workspace implements [`Wire`]; the
//! [`Transcript`](crate::Transcript) serializes each message on "send" and
//! deserializes it on "receive", so communication accounting reflects real
//! serialized sizes rather than in-memory estimates — the quantity the
//! paper's complexity claims are about.

use std::fmt;

/// Error produced when decoding a malformed message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// Human-readable description of the decode failure.
    pub context: &'static str,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "wire decode error: {}", self.context)
    }
}

impl std::error::Error for WireError {}

/// A cursor over received bytes.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Creates a reader over a byte buffer.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Consumes exactly `n` bytes.
    ///
    /// # Errors
    ///
    /// Fails if fewer than `n` bytes remain.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        // Compared against what is left, never as `pos + n`: a length
        // prefix near `u64::MAX` would wrap that sum past the check.
        if n > self.remaining() {
            return Err(WireError {
                context: "unexpected end of message",
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// True iff all bytes were consumed.
    pub fn is_exhausted(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Number of unread bytes.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
}

/// Serializable protocol message.
pub trait Wire: Sized {
    /// Appends the encoding of `self` to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Decodes a value from the reader.
    ///
    /// # Errors
    ///
    /// Fails on malformed or truncated input.
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError>;

    /// Convenience: full encoding as a fresh buffer.
    fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode(&mut out);
        out
    }

    /// Convenience: decode from a complete buffer, requiring full consumption.
    ///
    /// # Errors
    ///
    /// Fails on malformed input or trailing bytes.
    fn from_bytes(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(bytes);
        let v = Self::decode(&mut r)?;
        if !r.is_exhausted() {
            return Err(WireError {
                context: "trailing bytes after message",
            });
        }
        Ok(v)
    }
}

macro_rules! impl_wire_int {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            fn encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
                let bytes = r.take(std::mem::size_of::<$t>())?;
                Ok(<$t>::from_le_bytes(bytes.try_into().unwrap()))
            }
        }
    )*};
}
impl_wire_int!(u8, u16, u32, u64, u128, i64);

impl Wire for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.take(1)?[0] {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError {
                context: "invalid bool",
            }),
        }
    }
}

impl Wire for usize {
    fn encode(&self, out: &mut Vec<u8>) {
        (*self as u64).encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let v = u64::decode(r)?;
        usize::try_from(v).map_err(|_| WireError {
            context: "usize overflow",
        })
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u64).encode(out);
        for item in self {
            item.encode(out);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let len = u64::decode(r)? as usize;
        // Defensive cap: each element consumes at least one byte.
        if len > r.remaining() && std::mem::size_of::<T>() > 0 {
            return Err(WireError {
                context: "length prefix exceeds message",
            });
        }
        let mut out = Vec::with_capacity(len.min(1 << 20));
        for _ in 0..len {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<T: Wire, U: Wire> Wire for (T, U) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok((T::decode(r)?, U::decode(r)?))
    }
}

impl<T: Wire, U: Wire, V: Wire> Wire for (T, U, V) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
        self.2.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok((T::decode(r)?, U::decode(r)?, V::decode(r)?))
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.take(1)?[0] {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            _ => Err(WireError {
                context: "invalid option tag",
            }),
        }
    }
}

impl<const N: usize> Wire for [u8; N] {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(r.take(N)?.try_into().unwrap())
    }
}

impl Wire for spfe_math::Nat {
    fn encode(&self, out: &mut Vec<u8>) {
        // Padded to the next limb (8-byte) boundary, not minimal-length:
        // a minimal encoding makes the wire size a function of the value
        // (a uniform 96-bit group element sheds its top byte with
        // probability ~1/256), which is exactly the length side-channel
        // the leakage audit gates against. Decode skips leading zeros.
        let bytes = self.to_be_bytes();
        let padded = bytes.len().div_ceil(8) * 8;
        (padded as u64).encode(out);
        out.resize(out.len() + (padded - bytes.len()), 0);
        out.extend_from_slice(&bytes);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let len = u64::decode(r)? as usize;
        Ok(spfe_math::Nat::from_be_bytes(r.take(len)?))
    }
}

impl Wire for String {
    fn encode(&self, out: &mut Vec<u8>) {
        let bytes = self.as_bytes();
        (bytes.len() as u64).encode(out);
        out.extend_from_slice(bytes);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let len = u64::decode(r)? as usize;
        String::from_utf8(r.take(len)?.to_vec()).map_err(|_| WireError {
            context: "invalid utf-8",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spfe_math::Nat;

    fn roundtrip<T: Wire + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = v.to_bytes();
        assert_eq!(T::from_bytes(&bytes).unwrap(), v);
    }

    #[test]
    fn primitive_roundtrips() {
        roundtrip(0u8);
        roundtrip(1234u16);
        roundtrip(0xdead_beefu32);
        roundtrip(u64::MAX);
        roundtrip(u128::MAX - 1);
        roundtrip(-42i64);
        roundtrip(true);
        roundtrip(false);
        roundtrip(12345usize);
    }

    #[test]
    fn container_roundtrips() {
        roundtrip(vec![1u64, 2, 3]);
        roundtrip(Vec::<u64>::new());
        roundtrip(Some(7u32));
        roundtrip(Option::<u32>::None);
        roundtrip((1u8, 2u64));
        roundtrip((1u8, 2u64, vec![3u32]));
        roundtrip([9u8; 32]);
        roundtrip("hello SPFE".to_string());
        roundtrip(vec![vec![1u8], vec![], vec![2, 3]]);
    }

    #[test]
    fn nat_roundtrip() {
        roundtrip(Nat::zero());
        roundtrip(Nat::from(u64::MAX));
        roundtrip(Nat::from_hex("deadbeefcafebabe0123456789").unwrap());
        roundtrip(vec![Nat::one(), Nat::from(300u64)]);
    }

    #[test]
    fn truncated_input_fails() {
        let bytes = 12345u64.to_bytes();
        assert!(u64::from_bytes(&bytes[..4]).is_err());
    }

    #[test]
    fn trailing_bytes_fail() {
        let mut bytes = 1u8.to_bytes();
        bytes.push(0);
        assert!(u8::from_bytes(&bytes).is_err());
    }

    #[test]
    fn hostile_length_prefix_rejected() {
        // Claims 2^60 elements but supplies none.
        let mut bytes = Vec::new();
        (1u64 << 60).encode(&mut bytes);
        assert!(Vec::<u64>::from_bytes(&bytes).is_err());
    }

    #[test]
    fn take_near_usize_max_is_an_error_not_a_wrap() {
        let mut r = Reader::new(&[1, 2, 3]);
        assert_eq!(r.take(1).unwrap(), &[1]);
        assert!(r.take(usize::MAX).is_err());
        assert_eq!(r.remaining(), 2, "a failed take consumes nothing");
    }

    #[test]
    fn invalid_bool_and_option_tags() {
        assert!(bool::from_bytes(&[2]).is_err());
        assert!(Option::<u8>::from_bytes(&[9, 0]).is_err());
    }
}
