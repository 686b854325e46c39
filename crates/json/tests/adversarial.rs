//! Adversarial-input tests for the hardened parser and framing layer.
//!
//! The `bss-serve` daemon feeds *network* bytes into this crate, so hostile
//! input must come back as typed errors — never a panic, deep recursion, or
//! an allocation proportional to a peer-declared (rather than received)
//! size.

use std::io::Cursor;

use bss_json::frame::{read_frame, write_frame, FrameError, HEADER_LEN};
use bss_json::{parse, parse_with_limits, JsonErrorKind, ParseLimits};

const NET: ParseLimits = ParseLimits {
    max_bytes: 4096,
    max_depth: 16,
};

#[test]
fn oversized_payload_is_rejected_before_parsing() {
    let big = format!("[{}1]", "1,".repeat(4096));
    let err = parse_with_limits(&big, &NET).unwrap_err();
    assert_eq!(err.kind(), JsonErrorKind::TooLarge);
    // The same document parses fine without the byte bound.
    assert!(parse(&big).is_ok());
}

#[test]
fn payload_at_exactly_the_limit_is_accepted() {
    let text = format!("\"{}\"", "x".repeat(NET.max_bytes - 2));
    assert_eq!(text.len(), NET.max_bytes);
    assert!(parse_with_limits(&text, &NET).is_ok());
}

#[test]
fn deep_array_nesting_is_typed_too_deep() {
    let deep = "[".repeat(64) + &"]".repeat(64);
    let err = parse_with_limits(&deep, &NET).unwrap_err();
    assert_eq!(err.kind(), JsonErrorKind::TooDeep);
}

#[test]
fn deep_object_nesting_is_typed_too_deep() {
    let deep = "{\"a\":".repeat(64) + "1" + &"}".repeat(64);
    let err = parse_with_limits(&deep, &NET).unwrap_err();
    assert_eq!(err.kind(), JsonErrorKind::TooDeep);
}

#[test]
fn nesting_at_exactly_the_depth_bound_is_accepted() {
    let depth = NET.max_depth;
    let ok = "[".repeat(depth) + &"]".repeat(depth);
    assert!(parse_with_limits(&ok, &NET).is_ok());
    let over = "[".repeat(depth + 1) + &"]".repeat(depth + 1);
    assert_eq!(
        parse_with_limits(&over, &NET).unwrap_err().kind(),
        JsonErrorKind::TooDeep
    );
}

#[test]
fn default_limits_keep_the_historical_depth_bound() {
    let deep = "[".repeat(500) + &"]".repeat(500);
    assert_eq!(parse(&deep).unwrap_err().kind(), JsonErrorKind::TooDeep);
    let ok = "[".repeat(128) + &"]".repeat(128);
    assert!(parse(&ok).is_ok());
}

#[test]
fn syntax_errors_are_typed_syntax() {
    for bad in ["{", "[1,", "\"unterminated", "nul", "1 2", "\u{1}"] {
        let err = parse_with_limits(bad, &NET).unwrap_err();
        assert_eq!(err.kind(), JsonErrorKind::Syntax, "input `{bad}`");
    }
}

#[test]
fn decode_errors_are_typed_decode() {
    let err = bss_json::decode_with(r#""no""#, &NET, |r| r.int::<u64>("field")).unwrap_err();
    assert_eq!(err.kind(), JsonErrorKind::Decode);
    assert_eq!(err.to_string(), "expected integer for field, found string");
}

#[test]
fn non_finite_numbers_are_syntax_errors_at_the_end_of_the_literal() {
    for (text, at) in [("1e999", 5), ("-1e999", 6), ("[0.5, 12e400]", 12)] {
        let err = parse(text).unwrap_err();
        assert_eq!(err.kind(), JsonErrorKind::Syntax, "input `{text}`");
        assert_eq!(err.to_string(), format!("number out of range at byte {at}"));
    }
    // Every tree the parser returns encodes back to text that parses to it.
    for text in ["1e308", "-1.7976931348623157e308", "1e-999", "[2.5e-3]"] {
        let v = parse(text).unwrap();
        assert_eq!(parse(&bss_json::encode(&v)).unwrap(), v, "input `{text}`");
    }
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

#[test]
fn frame_roundtrip() {
    let mut buf = Vec::new();
    write_frame(&mut buf, r#"{"id": 1}"#, 1024).unwrap();
    write_frame(&mut buf, "", 1024).unwrap();
    let mut r = Cursor::new(buf);
    assert_eq!(
        read_frame(&mut r, 1024).unwrap().as_deref(),
        Some(r#"{"id": 1}"#)
    );
    assert_eq!(read_frame(&mut r, 1024).unwrap().as_deref(), Some(""));
    assert!(read_frame(&mut r, 1024).unwrap().is_none(), "clean EOF");
}

#[test]
fn declared_huge_length_is_rejected_without_allocation() {
    // A 4 GiB declaration backed by no bytes at all: the reader must refuse
    // at the header, not try to allocate the declared buffer.
    let mut r = Cursor::new(0xFFFF_FF00u32.to_be_bytes().to_vec());
    match read_frame(&mut r, 1 << 20) {
        Err(FrameError::TooLarge { len, max }) => {
            assert_eq!(len, 0xFFFF_FF00);
            assert_eq!(max, 1 << 20);
        }
        other => panic!("expected TooLarge, got {other:?}"),
    }
}

#[test]
fn truncated_header_and_payload_are_typed() {
    // Two header bytes, then EOF.
    let mut r = Cursor::new(vec![0u8, 0]);
    assert!(matches!(
        read_frame(&mut r, 1024),
        Err(FrameError::Truncated)
    ));
    // Full header declaring 10 bytes, only 3 delivered.
    let mut buf = 10u32.to_be_bytes().to_vec();
    buf.extend_from_slice(b"abc");
    let mut r = Cursor::new(buf);
    assert!(matches!(
        read_frame(&mut r, 1024),
        Err(FrameError::Truncated)
    ));
}

#[test]
fn non_utf8_payload_is_typed() {
    let mut buf = 2u32.to_be_bytes().to_vec();
    buf.extend_from_slice(&[0xFF, 0xFE]);
    let mut r = Cursor::new(buf);
    assert!(matches!(read_frame(&mut r, 1024), Err(FrameError::Utf8)));
}

#[test]
fn write_frame_refuses_oversized_payload() {
    let mut buf = Vec::new();
    let payload = "x".repeat(100);
    assert!(matches!(
        write_frame(&mut buf, &payload, 99),
        Err(FrameError::TooLarge { len: 100, max: 99 })
    ));
    assert!(buf.is_empty(), "nothing written on refusal");
}

#[test]
fn header_len_matches_the_wire_prefix() {
    let mut buf = Vec::new();
    write_frame(&mut buf, "abc", 16).unwrap();
    assert_eq!(buf.len(), HEADER_LEN + 3);
    assert_eq!(&buf[..HEADER_LEN], &3u32.to_be_bytes());
}
