//! Round-trip property tests for the shared codec primitives: the f64
//! bit-hex codec and its appending writer over the full bit space (NaN
//! payloads, infinities, signed zeros, subnormals), section lines, cursors, and version
//! sniffing over torn or garbage prefixes. These are the primitive-level
//! tests that previously existed only implicitly inside each format's
//! own round-trip suite.

use proptest::prelude::*;
use trajio::{
    bits_hex, f64_from_hex, f64_hex, first_content_line, push_bits_hex, push_f64_hex, section,
    u64_from_hex, LineCursor,
};

/// Bit patterns covering every f64 class: mostly raw random bits, with a
/// selector forcing the special values uniform sampling would miss.
fn arb_bits() -> impl Strategy<Value = u64> {
    (0u64..u64::MAX, 0u8..12).prop_map(|(bits, class)| match class {
        0 => f64::NAN.to_bits(),
        1 => 0x7ff8_0000_dead_beef, // NaN with payload
        2 => 0xfff0_0000_0000_0001, // negative NaN, low payload bit
        3 => f64::INFINITY.to_bits(),
        4 => f64::NEG_INFINITY.to_bits(),
        5 => 0,                     // +0.0
        6 => 0x8000_0000_0000_0000, // -0.0
        7 => 1,                     // smallest subnormal
        8 => 0x000f_ffff_ffff_ffff, // largest subnormal
        9 => f64::MIN_POSITIVE.to_bits(),
        10 => f64::MAX.to_bits(),
        _ => bits,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn f64_hex_round_trips_every_bit_pattern(bits in arb_bits()) {
        let v = f64::from_bits(bits);
        let s = f64_hex(v);
        prop_assert_eq!(s.len(), 16);
        prop_assert!(s.bytes().all(|b| b.is_ascii_hexdigit()));
        prop_assert_eq!(f64_from_hex(&s).unwrap().to_bits(), bits);
        prop_assert_eq!(u64_from_hex(&bits_hex(bits)).unwrap(), bits);
    }

    #[test]
    fn push_hex_writer_is_byte_equal_to_f64_hex(bits in arb_bits(), prefix in 0usize..3) {
        // The writers append after whatever the buffer already holds.
        let v = f64::from_bits(bits);
        let mut out = "w 1".repeat(prefix);
        let start = out.len();
        push_f64_hex(&mut out, v);
        prop_assert_eq!(&out[start..], f64_hex(v).as_str());
        // Independent reference: std's own zero-padded formatter.
        prop_assert_eq!(&out[start..], format!("{bits:016x}").as_str());
        let mut raw = String::new();
        push_bits_hex(&mut raw, bits);
        prop_assert_eq!(raw, bits_hex(bits));
    }

    #[test]
    fn torn_hex_token_never_parses(bits in 0u64..u64::MAX, cut in 0usize..16) {
        let s = bits_hex(bits);
        prop_assert!(u64_from_hex(&s[..cut]).is_err());
        let mut longer = s;
        longer.push('0');
        prop_assert!(u64_from_hex(&longer).is_err());
    }

    #[test]
    fn non_hex_byte_never_parses(bits in 0u64..u64::MAX, junk in 0u8..20) {
        let mut s = bits_hex(bits);
        s.pop();
        s.push((b'g' + junk) as char); // 'g'..'z': right width, not hex
        prop_assert!(u64_from_hex(&s).is_err());
    }

    #[test]
    fn section_lines_round_trip_and_count_is_enforced(
        ids in prop::collection::vec(0u32..10_000, 0..20),
    ) {
        let body: String = ids.iter().map(|i| format!(" {i}")).collect();
        let line = format!("q {}{body}", ids.len());
        let vals = section(&line, "q").unwrap();
        let back: Vec<u32> = vals.iter().map(|v| v.parse().unwrap()).collect();
        prop_assert_eq!(back, ids.clone());
        let overdeclared = format!("q {}{body}", ids.len() + 1);
        prop_assert!(section(&overdeclared, "q").is_err());
        prop_assert!(section(&line, "high").is_err());
    }

    #[test]
    fn cursors_agree_on_content_lines(
        lines in prop::collection::vec((0u8..4, 0u32..1000), 0..12),
    ) {
        let mut text = String::new();
        let mut content = Vec::new();
        for (kind, v) in &lines {
            match kind {
                0 => text.push('\n'),
                1 => text.push_str("   \n"),
                2 => text.push_str("\t \t\n"),
                _ => {
                    text.push_str(&format!(" val {v} \n"));
                    content.push(format!("val {v}"));
                }
            }
        }
        let mut lenient = LineCursor::lenient(&text);
        let mut seen = Vec::new();
        while let Some(l) = lenient.next_line() {
            seen.push(l.to_string());
        }
        prop_assert_eq!(seen, content);
        let mut strict = LineCursor::strict(&text);
        let mut n = 0;
        while strict.next_line().is_some() {
            n += 1;
        }
        prop_assert_eq!(n, lines.len());
    }

    #[test]
    fn sniff_sees_through_blank_and_comment_prefixes(
        blanks in prop::collection::vec(0u8..3, 0..6),
        comment in 0u8..2,
    ) {
        let mut text = String::new();
        for b in &blanks {
            text.push_str(match b { 0 => "\n", 1 => "   \n", _ => "\t\n" });
        }
        if comment == 1 {
            text.push_str("# generated by a tool\n");
        }
        text.push_str("trajpattern-checkpoint v3\npayload\n");
        prop_assert_eq!(
            first_content_line(&text, true),
            Some("trajpattern-checkpoint v3")
        );
        let no_comments = first_content_line(&text, false);
        if comment == 1 {
            prop_assert_eq!(no_comments, Some("# generated by a tool"));
        } else {
            prop_assert_eq!(no_comments, Some("trajpattern-checkpoint v3"));
        }
    }

    #[test]
    fn torn_version_prefix_never_sniffs_as_the_version(cut in 1usize..25) {
        let torn = &"trajpattern-checkpoint v3"[..cut];
        let text = format!("{torn}\nmore garbage\n");
        prop_assert_ne!(
            first_content_line(&text, false),
            Some("trajpattern-checkpoint v3")
        );
    }

    #[test]
    fn garbage_prefix_sniffs_as_itself(noise in prop::collection::vec(33u8..94, 1..12)) {
        let garbage: String = noise.iter().map(|&b| b as char).collect();
        let text = format!("{garbage}\ntrajpattern-checkpoint v3\n");
        prop_assert_eq!(first_content_line(&text, false), Some(garbage.as_str()));
    }
}
