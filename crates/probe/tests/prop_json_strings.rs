//! Property checks for the JSON codec's string handling: strings that
//! mix ASCII, multi-byte UTF-8, every escape and control characters
//! survive `Json::parse(render(x)) == x`, every escape spelling the
//! grammar allows decodes to the same string, and a raw control
//! character inside a string literal is rejected.

use uecgra_probe::Json;
use uecgra_util::check::forall;
use uecgra_util::SplitMix64;

/// Characters drawn for generated strings: plain ASCII, one of each
/// UTF-8 length, everything with a short escape, and control bytes.
const POOL: &[char] = &[
    'a', 'Z', '0', ' ', '{', ':', ',', '\u{7f}', 'é', 'ß', '€', '中', '😀', '𝄞', '"', '\\', '/',
    '\u{8}', '\u{c}', '\n', '\r', '\t', '\u{0}', '\u{1}', '\u{1f}',
];

fn random_string(rng: &mut SplitMix64) -> String {
    let len = rng.range(24);
    (0..len).map(|_| *rng.pick(POOL)).collect()
}

/// Encode `s` as a JSON string literal, choosing at random among the
/// spellings the grammar allows for each character: the short escape,
/// `\uXXXX` (a surrogate pair above the BMP), or the raw character
/// where that is legal.
fn encode_any(s: &str, rng: &mut SplitMix64) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        let short = match c {
            '"' => Some("\\\""),
            '\\' => Some("\\\\"),
            '/' => Some("\\/"),
            '\u{8}' => Some("\\b"),
            '\u{c}' => Some("\\f"),
            '\n' => Some("\\n"),
            '\r' => Some("\\r"),
            '\t' => Some("\\t"),
            _ => None,
        };
        let raw_ok = !matches!(c, '"' | '\\') && c >= ' ';
        match rng.range(3) {
            0 if short.is_some() => out.push_str(short.unwrap()),
            1 if raw_ok => out.push(c),
            _ => {
                let mut units = [0u16; 2];
                for unit in c.encode_utf16(&mut units) {
                    if rng.bool() {
                        out.push_str(&format!("\\u{unit:04x}"));
                    } else {
                        out.push_str(&format!("\\u{unit:04X}"));
                    }
                }
            }
        }
    }
    out.push('"');
    out
}

#[test]
fn rendered_strings_round_trip() {
    forall(300, |rng| {
        let s = random_string(rng);
        let value = Json::Str(s.clone());
        assert_eq!(Json::parse(&value.render()).unwrap(), value, "{s:?}");
        // Object keys go through the same path.
        let object = Json::Object(vec![(s.clone(), Json::Uint(1))]);
        assert_eq!(Json::parse(&object.render()).unwrap(), object, "{s:?}");
    });
}

#[test]
fn every_escape_spelling_decodes_to_the_same_string() {
    forall(300, |rng| {
        let s = random_string(rng);
        let literal = encode_any(&s, rng);
        assert_eq!(
            Json::parse(&literal).unwrap(),
            Json::Str(s.clone()),
            "{literal}"
        );
    });
}

#[test]
fn raw_control_characters_are_rejected() {
    forall(200, |rng| {
        let s = random_string(rng);
        let literal = encode_any(&s, rng);
        // Splice one raw control character into the literal's body.
        let body: Vec<char> = literal[1..literal.len() - 1].chars().collect();
        let at = rng.range(body.len() + 1);
        let control = char::from(rng.range(0x20) as u8);
        let mut spliced = String::from("\"");
        spliced.extend(&body[..at]);
        spliced.push(control);
        spliced.extend(&body[at..]);
        spliced.push('"');
        // Splicing may split an escape (`\` then the control byte),
        // which must fail too; either way the literal is invalid.
        assert!(Json::parse(&spliced).is_err(), "{spliced:?}");
    });
}

#[test]
fn unicode_escapes_take_exactly_four_hex_digits() {
    assert_eq!(Json::parse("\"\\u0041\"").unwrap(), Json::Str("A".into()));
    for bad in [
        "\"\\u+041\"",
        "\"\\u-041\"",
        "\"\\u 041\"",
        "\"\\u004g\"",
        "\"\\u00é\"",
    ] {
        assert!(Json::parse(bad).is_err(), "{bad}");
    }
}
