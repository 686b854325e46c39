//! Integers through the codec: the edges of the `u64` digit loops that print
//! and parse most integers, and of the exact `i128` paths beyond them.
//! `core::fmt` is the reference printer. CI also runs this suite in release,
//! where overflow checks are compiled out.

use bss_json::{encode, encode_pretty, parse, JsonErrorKind, Value};

const E18: i128 = 1_000_000_000_000_000_000;
const U64_MAX: i128 = u64::MAX as i128;

const EDGES: [i128; 22] = [
    0,
    1,
    -1,
    9,
    10,
    -10,
    99,
    100,
    E18 - 1,
    -(E18 - 1),
    E18,
    -E18,
    10 * E18,
    -10 * E18,
    U64_MAX,
    -U64_MAX,
    U64_MAX + 1,
    -(U64_MAX + 1),
    1 << 94,
    -(1 << 94),
    i128::MIN,
    i128::MAX,
];

#[test]
fn integer_edges_print_and_parse_exactly() {
    for v in EDGES {
        let text = v.to_string();
        assert_eq!(encode(&Value::Int(v)), text);
        assert_eq!(encode_pretty(&Value::Int(v)), text);
        assert_eq!(parse(&text).unwrap(), Value::Int(v), "{text}");
        let pair = Value::Array(vec![Value::Int(v), Value::Int(v)]);
        assert_eq!(encode(&pair), format!("[{text},{text}]"));
        assert_eq!(parse(&format!("[{text}, {text}]")).unwrap(), pair);
    }
}

#[test]
fn every_digit_count_prints_and_parses_exactly() {
    // 1..=38 digits of nines, and a one followed by 0..=38 zeros, both
    // signs: every length on both sides of the 18-digit parse bound and the
    // 20-digit `u64` print bound.
    for len in 1..=39 {
        let mut texts = vec!["1".to_string() + &"0".repeat(len - 1)];
        if len < 39 {
            texts.push("9".repeat(len));
        }
        for digits in texts {
            for text in [digits.clone(), format!("-{digits}")] {
                let v: i128 = text.parse().unwrap();
                assert_eq!(encode(&Value::Int(v)), text);
                assert_eq!(parse(&text).unwrap(), Value::Int(v), "{text}");
            }
        }
    }
}

#[test]
fn minus_zero_and_leading_zeros_parse_as_their_value() {
    for (text, v) in [
        ("-0", 0),
        ("00", 0),
        ("-00", 0),
        ("007", 7),
        ("-007", -7),
        ("000000000000000042", 42),
        ("0000000000000000042", 42),
        ("-000000000000000000000000000000000042", -42),
    ] {
        assert_eq!(parse(text).unwrap(), Value::Int(v), "{text}");
        assert_eq!(encode(&parse(text).unwrap()), v.to_string());
    }
}

#[test]
fn integers_outside_i128_are_syntax_errors_at_their_end() {
    let forty = "1234567890123456789012345678901234567890";
    for (text, at) in [
        (forty.to_string(), 40),
        (format!("-{forty}"), 41),
        (format!("[1, {forty}]"), 44),
        ((i128::MAX as u128 + 1).to_string(), 39),
        (format!("{}0", i128::MIN), 41),
    ] {
        let err = parse(&text).unwrap_err();
        assert_eq!(err.kind(), JsonErrorKind::Syntax, "{text}");
        assert_eq!(
            err.to_string(),
            format!("integer out of range at byte {at}"),
            "{text}"
        );
    }
}
