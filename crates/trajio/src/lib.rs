//! Shared persistence primitives for the trajpattern on-disk formats.
//!
//! Every text artifact in the workspace — checkpoint v1 (`trajpattern`),
//! checkpoint v3 (`trajstream`, which still reads v2), the
//! `trajmine-snapshot/v1` JSON (`trajserve`), and the `.events` log
//! (`trajdata`) — was originally written with its own copy of the same
//! four primitives: the 16-digit f64 bit-hex codec, a line cursor with
//! positional errors, a version-line sniff, and the atomic tmp+rename
//! writer. This crate is the single home for those primitives; the
//! formats themselves are frozen byte-for-byte (see the golden-file
//! tests at the workspace root), only the implementations live here.
//!
//! The crate is std-only and dependency-free so it can sit below every
//! other crate in the workspace, including `trajdata`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod crc;
pub mod durable;
pub mod tail;

pub use durable::{write_atomic, DurableError};

/// Former name of [`DurableError`], kept so existing `write_atomic`
/// callers keep compiling; the write itself is now fully fsynced.
pub type AtomicWriteError = DurableError;

use std::fmt;
// (Path-based helpers live in `durable`; the root keeps only the text
// codec primitives.)

/// A malformed token or section encountered by a codec primitive.
///
/// Deliberately position-free: primitives don't know line numbers, so
/// callers attach their cursor position when mapping into a
/// format-specific error (e.g. `CheckpointError::Format`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError {
    message: String,
}

impl CodecError {
    /// Creates an error from a message.
    pub fn new(message: impl Into<String>) -> CodecError {
        CodecError {
            message: message.into(),
        }
    }

    /// The human-readable description, suitable for embedding in a
    /// positional error.
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for CodecError {}

/// Width of every bit-hex token: one lowercase hex digit per nibble of a
/// `u64`. This is the only place the width lives.
const HEX_DIGITS: usize = 16;

/// Appends raw `u64` bits to `out` as exactly 16 lowercase hex digits —
/// the token format every text codec in the workspace uses for `f64`
/// values and fingerprint bit patterns. Allocates nothing beyond growing
/// `out`, so writers that emit thousands of tokens build one buffer.
pub fn push_bits_hex(out: &mut String, bits: u64) {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut buf = [0u8; HEX_DIGITS];
    for (i, b) in buf.iter_mut().enumerate() {
        *b = DIGITS[(bits >> (4 * (HEX_DIGITS - 1 - i)) & 0xf) as usize];
    }
    out.push_str(std::str::from_utf8(&buf).expect("hex digits are ASCII"));
}

/// Appends the bit-hex of an `f64`'s IEEE-754 representation to `out`
/// ([`push_bits_hex`] of its bits).
pub fn push_f64_hex(out: &mut String, v: f64) {
    push_bits_hex(out, v.to_bits());
}

/// [`push_bits_hex`] into a fresh `String`.
pub fn bits_hex(bits: u64) -> String {
    let mut s = String::with_capacity(HEX_DIGITS);
    push_bits_hex(&mut s, bits);
    s
}

/// Encodes an `f64` as the bit-hex of its IEEE-754 representation.
/// Round-trips bit-exactly through [`f64_from_hex`] for every value,
/// including NaN payloads, infinities, signed zeros, and subnormals.
pub fn f64_hex(v: f64) -> String {
    bits_hex(v.to_bits())
}

/// Decodes a 16-digit hex token back to raw `u64` bits.
pub fn u64_from_hex(s: &str) -> Result<u64, CodecError> {
    if s.len() != HEX_DIGITS {
        return Err(CodecError::new(format!(
            "expected {HEX_DIGITS} hex digits, got '{s}'"
        )));
    }
    u64::from_str_radix(s, 16).map_err(|_| CodecError::new(format!("bad f64 bit pattern '{s}'")))
}

/// Decodes a 16-digit hex token to the `f64` with those bits.
pub fn f64_from_hex(s: &str) -> Result<f64, CodecError> {
    u64_from_hex(s).map(f64::from_bits)
}

/// Parses an integer token, naming `what` in the error message.
pub fn parse_int<T: std::str::FromStr>(s: &str, what: &str) -> Result<T, CodecError> {
    s.parse()
        .map_err(|_| CodecError::new(format!("bad {what}: '{s}'")))
}

/// Splits a `tag n v1 … vn` section line, verifying the tag and that
/// exactly `n` values follow the count.
pub fn section<'a>(text: &'a str, tag: &str) -> Result<Vec<&'a str>, CodecError> {
    let mut fields = text.split_whitespace();
    match fields.next() {
        Some(t) if t == tag => {}
        other => {
            return Err(CodecError::new(format!(
                "expected '{tag}' section, found '{}'",
                other.unwrap_or("")
            )))
        }
    }
    let n: usize = parse_int(
        fields
            .next()
            .ok_or_else(|| CodecError::new("missing count"))?,
        "count",
    )?;
    let values: Vec<&str> = fields.collect();
    if values.len() != n {
        return Err(CodecError::new(format!(
            "'{tag}' declares {n} values but has {}",
            values.len()
        )));
    }
    Ok(values)
}

/// Line cursor over a text artifact, tracking 1-based positions for
/// error reporting. Two policies cover the workspace's formats:
///
/// * [`LineCursor::strict`] — yields every line verbatim; blank lines
///   are content (checkpoint v1).
/// * [`LineCursor::lenient`] — skips blank lines and yields trimmed
///   content (stream checkpoints, v2 and v3).
#[derive(Debug)]
pub struct LineCursor<'a> {
    lines: std::str::Lines<'a>,
    line: usize,
    skip_blank: bool,
}

impl<'a> LineCursor<'a> {
    /// Cursor that yields every line verbatim.
    pub fn strict(text: &'a str) -> LineCursor<'a> {
        LineCursor {
            lines: text.lines(),
            line: 0,
            skip_blank: false,
        }
    }

    /// Cursor that skips blank lines and trims the rest.
    pub fn lenient(text: &'a str) -> LineCursor<'a> {
        LineCursor {
            lines: text.lines(),
            line: 0,
            skip_blank: true,
        }
    }

    /// The 1-based number of the most recently yielded line (or of the
    /// position just past the end once [`LineCursor::next_line`] has
    /// returned `None`).
    pub fn line(&self) -> usize {
        self.line
    }

    /// Advances to the next line under the cursor's policy.
    pub fn next_line(&mut self) -> Option<&'a str> {
        loop {
            self.line += 1;
            match self.lines.next() {
                Some(l) if self.skip_blank && l.trim().is_empty() => continue,
                Some(l) => return Some(if self.skip_blank { l.trim() } else { l }),
                None => return None,
            }
        }
    }
}

/// Returns the first line carrying content — skipping blank lines, and
/// `#` comments when `skip_comments` is set — trimmed. `None` when the
/// input is effectively empty. This is the version-line sniff shared by
/// every reader that dispatches on a format's first line.
pub fn first_content_line(text: &str, skip_comments: bool) -> Option<&str> {
    text.lines()
        .map(str::trim)
        .find(|l| !(l.is_empty() || skip_comments && l.starts_with('#')))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_is_fixed_width_and_exact() {
        assert_eq!(bits_hex(0), "0000000000000000");
        assert_eq!(f64_hex(1.0), "3ff0000000000000");
        assert_eq!(f64_from_hex("3ff0000000000000").unwrap(), 1.0);
        for v in [
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            f64::MAX,
            5e-324,
        ] {
            let back = f64_from_hex(&f64_hex(v)).unwrap();
            assert_eq!(back.to_bits(), v.to_bits());
        }
        let nan = f64::from_bits(0x7ff8_0000_0000_1234);
        assert_eq!(
            f64_from_hex(&f64_hex(nan)).unwrap().to_bits(),
            nan.to_bits()
        );
    }

    #[test]
    fn hex_rejects_wrong_width_and_garbage() {
        assert!(u64_from_hex("abc").is_err());
        assert!(u64_from_hex("3ff00000000000000").is_err());
        assert!(u64_from_hex("3ff000000000000g").is_err());
        assert!(u64_from_hex("").is_err());
        let e = f64_from_hex("xyz").unwrap_err();
        assert!(e.to_string().contains("16 hex digits"), "{e}");
    }

    #[test]
    fn section_validates_tag_and_count() {
        assert_eq!(section("q 3 1 2 3", "q").unwrap(), vec!["1", "2", "3"]);
        assert_eq!(section("q 0", "q").unwrap(), Vec::<&str>::new());
        assert!(section("q 3 1 2", "q").is_err());
        assert!(section("r 1 5", "q").is_err());
        assert!(section("q", "q").is_err());
        assert!(section("q x 1", "q").is_err());
    }

    #[test]
    fn strict_cursor_yields_blanks_verbatim() {
        let mut c = LineCursor::strict("a\n\n  b \n");
        assert_eq!(c.next_line(), Some("a"));
        assert_eq!(c.next_line(), Some(""));
        assert_eq!(c.next_line(), Some("  b "));
        assert_eq!(c.line(), 3);
        assert_eq!(c.next_line(), None);
        assert_eq!(c.line(), 4);
    }

    #[test]
    fn lenient_cursor_skips_blanks_and_trims() {
        let mut c = LineCursor::lenient("a\n\n  b \n\t\n");
        assert_eq!(c.next_line(), Some("a"));
        assert_eq!(c.next_line(), Some("b"));
        assert_eq!(c.line(), 3);
        assert_eq!(c.next_line(), None);
    }

    #[test]
    fn sniff_finds_first_content() {
        assert_eq!(first_content_line("\n\n  v1 \nrest", false), Some("v1"));
        assert_eq!(first_content_line("# c\n\nv1", false), Some("# c"));
        assert_eq!(first_content_line("# c\n\nv1", true), Some("v1"));
        assert_eq!(first_content_line("\n \n", true), None);
        assert_eq!(first_content_line("", false), None);
    }
}
