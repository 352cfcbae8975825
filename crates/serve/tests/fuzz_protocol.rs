//! Fuzz-style robustness tests for the line protocol: random byte
//! lines, byte-mutated valid commands, over-long lines, invalid UTF-8
//! and id lists past [`MAX_SET_IDS`], fed through [`serve_lines`] as one
//! session, must never panic. Every line that is not blank and not
//! `QUIT` gets exactly one response line, every failure starts with
//! `ERR `, and the store ends up holding exactly what the accepted
//! writes put there: the `CARD` of every touched set matches a
//! `BTreeSet` oracle.

use fesia_core::MAX_ELEMENT;
use fesia_datagen::SplitMix64;
use fesia_serve::protocol::MAX_SET_IDS;
use fesia_serve::server::MAX_LINE_BYTES;
use fesia_serve::{serve_lines, ServeConfig, Server};
use std::collections::{BTreeMap, BTreeSet};
use std::io::{BufReader, Cursor};

/// Set ids the server accepts; the generator also draws a few past it.
const MAX_SETS: u32 = 16;

/// Elements the generator draws from, so deletes often hit.
const ELEMS: u64 = 64;

fn id(rng: &mut SplitMix64) -> u32 {
    // One id in 16 is out of range.
    rng.below(u64::from(MAX_SETS) + 1) as u32
}

fn ids(rng: &mut SplitMix64, n: usize) -> String {
    let v: Vec<String> = (0..n).map(|_| id(rng).to_string()).collect();
    v.join(" ")
}

/// One well-formed command (its ids or element may still be out of
/// range), including id lists up to a few past [`MAX_SET_IDS`].
fn valid_command(rng: &mut SplitMix64) -> String {
    let list_len = |rng: &mut SplitMix64| match rng.below(4) {
        0 => MAX_SET_IDS - 2 + rng.below(5) as usize,
        _ => 1 + rng.below(4) as usize,
    };
    match rng.below(7) {
        0 | 1 => {
            let verb = if rng.below(2) == 0 { "ADD" } else { "del" };
            let elem = match rng.below(32) {
                0 => u64::from(MAX_ELEMENT) + rng.below(3),
                _ => rng.below(ELEMS),
            };
            format!("{verb} {} {elem}", id(rng))
        }
        2 => format!("CARD {}", id(rng)),
        3 => format!("COUNT {} {}", id(rng), id(rng)),
        4 => {
            let n = list_len(rng);
            format!("AND {}", ids(rng, n))
        }
        5 => {
            let n = list_len(rng);
            format!("or {}", ids(rng, n))
        }
        _ => {
            let (m, s, n) = (list_len(rng), rng.below(3) as usize, rng.below(3) as usize);
            format!(
                "BOOL MUST {} SHOULD {} NOT {}",
                ids(rng, m),
                ids(rng, s),
                ids(rng, n)
            )
        }
    }
}

/// Flip, insert or delete a few bytes of `line`.
fn mutate(rng: &mut SplitMix64, mut line: Vec<u8>) -> Vec<u8> {
    for _ in 0..1 + rng.below(3) {
        let at = rng.below(line.len() as u64 + 1) as usize;
        let byte = match rng.below(4) {
            0 => b' ',
            1 => b'0' + rng.below(10) as u8,
            _ => rng.below(256) as u8,
        };
        match rng.below(3) {
            0 if at < line.len() => line[at] = byte,
            1 if at < line.len() => {
                line.remove(at);
            }
            _ => line.insert(at, byte),
        }
    }
    line
}

/// One request line, without its newline.
fn line(rng: &mut SplitMix64) -> Vec<u8> {
    let mut l = match rng.below(16) {
        0..=6 => valid_command(rng).into_bytes(),
        7..=11 => {
            let cmd = valid_command(rng).into_bytes();
            mutate(rng, cmd)
        }
        12..=13 => (0..rng.below(40)).map(|_| rng.below(256) as u8).collect(),
        14 => Vec::new(),
        _ => {
            // Within a few bytes of the line cap, either side.
            let mut cmd = valid_command(rng).into_bytes();
            cmd.resize(MAX_LINE_BYTES - 2 + rng.below(5) as usize, b' ');
            cmd
        }
    };
    // A newline inside would split the line in two.
    for b in &mut l {
        if *b == b'\n' {
            *b = b'\t';
        }
    }
    l
}

/// The write a line makes when the server accepts it, by the protocol's
/// grammar: `(add, set, elem)`.
fn as_write(line: &str) -> Option<(bool, u32, u32)> {
    let mut toks = line.split_whitespace();
    let verb = toks.next()?;
    let add = if verb.eq_ignore_ascii_case("ADD") {
        true
    } else if verb.eq_ignore_ascii_case("DEL") {
        false
    } else {
        return None;
    };
    let set: u32 = toks.next()?.parse().ok()?;
    let elem: u32 = toks.next()?.parse().ok()?;
    (toks.next().is_none() && set < MAX_SETS && elem <= MAX_ELEMENT).then_some((add, set, elem))
}

/// Whether a response is a success: `OK`, or a (possibly empty) list of
/// numbers.
fn is_success(r: &str) -> bool {
    r == "OK" || r.bytes().all(|b| b.is_ascii_digit() || b == b' ')
}

#[test]
fn random_and_mutated_lines_get_one_answer_each_and_never_corrupt_the_store() {
    // The failures the generator is built to reach, seen over all seeds.
    let reach = [
        "ERR line too long",
        "ERR line is not valid UTF-8",
        "ERR too many set ids",
        "ERR set id",
        "ERR element",
        "ERR unknown command",
    ];
    let mut reached: BTreeSet<&str> = BTreeSet::new();
    for seed in 0..12u64 {
        let mut rng = SplitMix64::new(0xF022 ^ (seed << 16));
        let server = Server::new(ServeConfig::from_env().with_shards(2)).with_max_sets(MAX_SETS);
        let lines: Vec<Vec<u8>> = (0..300).map(|_| line(&mut rng)).collect();
        let mut script = Vec::new();
        for l in &lines {
            script.extend_from_slice(l);
            script.push(b'\n');
        }
        script.extend_from_slice(b"  QUIT \nADD 0 1\n");
        let mut out = Vec::new();
        // Small read buffers make lines span refills.
        let capacity = [7, 64, 8 << 10][seed as usize % 3];
        serve_lines(
            &server,
            BufReader::with_capacity(capacity, Cursor::new(script)),
            &mut out,
        )
        .unwrap();
        let out = String::from_utf8(out).expect("responses are UTF-8");
        let mut responses = out.lines();

        let mut oracle: BTreeMap<u32, BTreeSet<u32>> = BTreeMap::new();
        for (i, l) in lines.iter().enumerate() {
            let text = std::str::from_utf8(l).ok().map(str::trim);
            if l.len() <= MAX_LINE_BYTES && text == Some("") {
                continue; // blank: no response
            }
            assert!(
                !text.is_some_and(|t| t.eq_ignore_ascii_case("QUIT")),
                "seed={seed} line {i}: the generator drew a QUIT"
            );
            let r = responses
                .next()
                .unwrap_or_else(|| panic!("seed={seed} line {i}: no response"));
            let how = format!(
                "seed={seed} line {i} {:?} -> {r:?}",
                String::from_utf8_lossy(l)
            );
            assert!(is_success(r) || r.starts_with("ERR "), "{how}");
            reached.extend(reach.iter().filter(|e| r.starts_with(**e)));
            if l.len() > MAX_LINE_BYTES {
                assert_eq!(r, "ERR line too long", "{how}");
                continue;
            }
            let Some(text) = text else {
                assert_eq!(r, "ERR line is not valid UTF-8", "{how}");
                continue;
            };
            match as_write(text) {
                Some((add, set, elem)) => {
                    assert_eq!(r, "OK", "{how}");
                    let s = oracle.entry(set).or_default();
                    if add {
                        s.insert(elem);
                    } else {
                        s.remove(&elem);
                    }
                }
                None => assert_ne!(r, "OK", "{how}: only writes answer OK"),
            }
        }
        // The session ends at QUIT: nothing after it is answered.
        assert_eq!(responses.next(), None, "seed={seed}: extra responses");
        assert!(!oracle.is_empty(), "seed={seed}: no write was accepted");
        for (set, want) in &oracle {
            assert_eq!(
                server.handle_line(&format!("CARD {set}")),
                want.len().to_string(),
                "seed={seed} set {set}"
            );
        }
    }
    assert_eq!(reached.len(), reach.len(), "reached only {reached:?}");
}
