//! One field list per persisted layout.
//!
//! The `SEPOHST4` table image, the `SEPOCKS3` checkpoint file, its
//! `SEPOCKP6` sections and the [`PageRecord`](crate::PageRecord) that the
//! image and the sections share are each one ordered list of fields, each
//! a [`Codec`] value carrying the name its errors use, which
//! [`record!`](crate::record) turns into the codec of a struct (as
//! `counters!` turns the counter table into both directions of a snapshot).
//! The one list writes an image ([`Codec::put`] into a `Vec<u8>`), sizes it
//! (`put` into a `u64`, which only counts) and reads it ([`Codec::take`]).
//!
//! Integers are little-endian. [`Bytes`] are a `u32` length and the bytes;
//! a [`List`] is a `u32` count and the elements; an [`Opt`] is a flag byte,
//! 0 or 1, and the value if 1. An image is its magic, its fields and a
//! CRC32C trailer over every preceding byte ([`append_trailer`]), verified
//! before any field is read ([`Source::open`]).

#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::heap::PageKind;
use crate::hostheap::crc32c;
use std::{fmt, io};

/// Where a layout's bytes go.
pub trait Sink {
    fn put(&mut self, bytes: &[u8]);
}

impl Sink for Vec<u8> {
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

/// A byte count only counts: an image's exact size, no byte copied.
impl Sink for u64 {
    fn put(&mut self, bytes: &[u8]) {
        *self += bytes.len() as u64;
    }
}

/// The unread rest of an image, which `magic` names in every error.
pub struct Source<'a> {
    rest: &'a [u8],
    magic: &'a [u8],
}

impl<'a> Source<'a> {
    pub fn new(rest: &'a [u8], magic: &'a [u8]) -> Self {
        Source { rest, magic }
    }

    /// Verify `image`'s CRC32C trailer, so a flipped bit anywhere fails
    /// before any field is read, and read the bytes it covers.
    pub fn open(image: &'a [u8], magic: &'a [u8]) -> io::Result<Self> {
        let (body, trailer) = image.split_at(image.len().saturating_sub(4));
        let stored: u32 = U32("checksum trailer").take(&mut Source::new(trailer, magic))?;
        let computed = crc32c(body);
        if stored != computed {
            let name = magic.escape_ascii();
            return Err(invalid(format!(
                "{name} image failed checksum verification \
                 (stored 0x{stored:08x}, computed 0x{computed:08x})"
            )));
        }
        Ok(Source::new(body, magic))
    }

    /// The next `n` bytes; an image that ends first is refused, naming `what`.
    pub fn take(&mut self, n: usize, what: &str) -> io::Result<&'a [u8]> {
        let Some((head, rest)) = self.rest.split_at_checked(n) else {
            let name = self.magic.escape_ascii();
            return Err(invalid(format!(
                "truncated {name} image: unexpected end of input reading {what}"
            )));
        };
        self.rest = rest;
        Ok(head)
    }

    /// Read the magic, refusing an earlier format's image by both magics.
    pub fn magic(&mut self) -> io::Result<()> {
        let found = self.take(self.magic.len(), "magic")?;
        if found != self.magic {
            let (want, found) = (self.magic.escape_ascii(), found.escape_ascii());
            return Err(invalid(format!("not a {want} image (magic {found})")));
        }
        Ok(())
    }

    /// An error about this image: `"<magic> image: <e>"`.
    pub fn error(&self, e: impl fmt::Display) -> io::Error {
        invalid(format!("{} image: {e}", self.magic.escape_ascii()))
    }
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Seal an image: append the CRC32C of every byte so far.
pub fn append_trailer(image: &mut Vec<u8>) {
    let crc = crc32c(image);
    image.extend_from_slice(&crc.to_le_bytes());
}

/// How one field of a layout is written and read.
pub trait Codec<T> {
    fn put(&self, v: &T, out: &mut impl Sink);
    fn take(&self, src: &mut Source<'_>) -> io::Result<T>;
}

/// A one-byte field, named `.0`: a `u8`, a `bool` (nonzero is true) or a
/// [`PageKind`] tag.
pub struct U8(pub &'static str);
/// A four-byte field: a `u32`, or a `usize` that fits one.
pub struct U32(pub &'static str);
/// An eight-byte field: a `u64` or a `usize`.
pub struct U64(pub &'static str);

/// `$codec` writes a `$t` as the `$int` that `$to` makes of `$v: &$t`, and
/// reads it back through `$from` over `$w: $int`.
macro_rules! int_fields {
    ($($codec:ident($int:ty) { $($t:ty => |$v:ident| $to:expr, |$w:ident| $from:expr;)* })*) => {$($(
        impl Codec<$t> for $codec {
            fn put(&self, $v: &$t, out: &mut impl Sink) {
                out.put(&<$int>::to_le_bytes($to));
            }

            fn take(&self, src: &mut Source<'_>) -> io::Result<$t> {
                let mut $w = [0u8; size_of::<$int>()];
                $w.copy_from_slice(src.take(size_of::<$int>(), self.0)?);
                let $w = <$int>::from_le_bytes($w);
                $from
            }
        }
    )*)*};
}

int_fields! {
    U8(u8) {
        u8 => |v| *v, |w| Ok(w);
        bool => |v| u8::from(*v), |w| Ok(w != 0);
        PageKind => |v| v.tag(), |w| PageKind::from_tag(w);
    }
    U32(u32) {
        u32 => |v| *v, |w| Ok(w);
        usize => |v| *v as u32, |w| Ok(w as usize);
    }
    U64(u64) {
        u64 => |v| *v, |w| Ok(w);
        usize => |v| *v as u64, |w| Ok(w as usize);
    }
}

/// A byte string: its `u32` length, named `.0`, then its bytes, named `.1`.
pub struct Bytes(pub &'static str, pub &'static str);

impl<B: AsRef<[u8]> + for<'b> From<&'b [u8]>> Codec<B> for Bytes {
    fn put(&self, v: &B, out: &mut impl Sink) {
        U32(self.0).put(&v.as_ref().len(), out);
        out.put(v.as_ref());
    }

    fn take(&self, src: &mut Source<'_>) -> io::Result<B> {
        let len = U32(self.0).take(src)?;
        Ok(src.take(len, self.1)?.into())
    }
}

/// A list: its `u32` count, named `.0`, then each element as `.1` lays it.
pub struct List<C>(pub &'static str, pub C);

impl<T, C: Codec<T>> Codec<Vec<T>> for List<C> {
    fn put(&self, v: &Vec<T>, out: &mut impl Sink) {
        U32(self.0).put(&v.len(), out);
        v.iter().for_each(|x| self.1.put(x, out));
    }

    fn take(&self, src: &mut Source<'_>) -> io::Result<Vec<T>> {
        let n: usize = U32(self.0).take(src)?;
        (0..n).map(|_| self.1.take(src)).collect()
    }
}

/// An option: a flag byte (0 or 1), named `.0`, then a value as `.1` lays it.
pub struct Opt<C>(pub &'static str, pub C);

impl<T, C: Codec<T>> Codec<Option<T>> for Opt<C> {
    fn put(&self, v: &Option<T>, out: &mut impl Sink) {
        U8(self.0).put(&v.is_some(), out);
        v.iter().for_each(|x| self.1.put(x, out));
    }

    fn take(&self, src: &mut Source<'_>) -> io::Result<Option<T>> {
        match U8(self.0).take(src)? {
            0u8 => Ok(None),
            1 => Ok(Some(self.1.take(src)?)),
            other => Err(invalid(format!("bad {} {other}", self.0))),
        }
    }
}

/// `record! { Name: Type { field: codec, ... } }` declares the unit struct
/// `Name` as the [`Codec`] of struct `Type`: its fields in wire order, each
/// with the codec, and so the error names, it is written and read with.
/// Reading builds a struct literal, so a field of `Type` missing from the
/// list does not compile. A trailing `then check` refuses a read value for
/// which `check(&value)` fails, with that error.
#[macro_export]
macro_rules! record {
    (
        $(#[$attr:meta])*
        $vis:vis $codec:ident: $ty:ident { $($field:ident: $field_codec:expr,)* }
        $(then $check:expr)?
    ) => {
        $(#[$attr])*
        $vis struct $codec;

        impl $crate::codec::Codec<$ty> for $codec {
            fn put(&self, v: &$ty, out: &mut impl $crate::codec::Sink) {
                $($crate::codec::Codec::put(&$field_codec, &v.$field, out);)*
            }

            fn take(&self, src: &mut $crate::codec::Source<'_>) -> ::std::io::Result<$ty> {
                let v = $ty {
                    $($field: $crate::codec::Codec::take(&$field_codec, src)?,)*
                };
                $(($check)(&v).map_err(|e| src.error(e))?;)?
                Ok(v)
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    struct Sample {
        flag: bool,
        words: Vec<u64>,
        name: Vec<u8>,
        extra: Option<u32>,
    }

    crate::record! {
        SampleRecord: Sample {
            flag: U8("flag"),
            words: List("word count", U64("word")),
            name: Bytes("name length", "name"),
            extra: Opt("extra flag", U32("extra")),
        }
    }

    const SAMPLE: &[u8] = b"SAMPLE01";

    fn image(v: &Sample) -> Vec<u8> {
        let mut out = SAMPLE.to_vec();
        SampleRecord.put(v, &mut out);
        append_trailer(&mut out);
        out
    }

    fn read(image: &[u8]) -> io::Result<Sample> {
        let mut src = Source::open(image, SAMPLE)?;
        src.magic()?;
        SampleRecord.take(&mut src)
    }

    #[test]
    fn one_list_writes_sizes_and_reads_the_same_bytes() {
        let v = Sample {
            flag: true,
            words: vec![1, u64::MAX],
            name: b"abc".to_vec(),
            extra: Some(7),
        };
        let bytes = image(&v);
        let mut count = 0u64;
        SampleRecord.put(&v, &mut count);
        assert_eq!(count, bytes.len() as u64 - 8 - 4);
        // flag, count + 2 words, length + 3 bytes, flag + u32.
        assert_eq!(count, 1 + 4 + 16 + 4 + 3 + 1 + 4);
        assert_eq!(read(&bytes).unwrap(), v);
    }

    #[test]
    fn every_cut_names_the_field_it_ended_in() {
        let v = Sample {
            flag: false,
            words: vec![5],
            name: b"xy".to_vec(),
            extra: None,
        };
        let mut body = SAMPLE.to_vec();
        SampleRecord.put(&v, &mut body);
        let want = [
            (8, "flag"),
            (9, "word count"),
            (13, "word"),
            (21, "name length"),
            (25, "name"),
            (27, "extra flag"),
        ];
        for (len, what) in want {
            let mut cut = body[..len].to_vec();
            append_trailer(&mut cut);
            let err = read(&cut).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert_eq!(
                err.to_string(),
                format!("truncated SAMPLE01 image: unexpected end of input reading {what}")
            );
        }
        let mut bad = body.clone();
        *bad.last_mut().unwrap() = 2;
        append_trailer(&mut bad);
        assert_eq!(read(&bad).unwrap_err().to_string(), "bad extra flag 2");
        let mut other = image(&v);
        other[7] = b'2';
        other.truncate(other.len() - 4);
        append_trailer(&mut other);
        assert_eq!(
            read(&other).unwrap_err().to_string(),
            "not a SAMPLE01 image (magic SAMPLE02)"
        );
    }
}
