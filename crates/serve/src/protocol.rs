//! The serving line protocol: one command per line, one response line
//! per command.
//!
//! | Command                                    | Response            |
//! |--------------------------------------------|---------------------|
//! | `ADD <set> <elem>`                         | `OK`                |
//! | `DEL <set> <elem>`                         | `OK`                |
//! | `CARD <set>`                               | cardinality         |
//! | `COUNT <a> <b>`                            | `\|A ∩ B\|`         |
//! | `AND <id> <id> ...`                        | elements, space-sep |
//! | `OR <id> <id> ...`                         | elements, space-sep |
//! | `BOOL [MUST id...] [SHOULD id...] [NOT id...]` | elements        |
//! | anything else                              | `ERR <reason>`      |
//!
//! Verbs and section keywords are case-insensitive; ids and elements
//! are decimal `u32`. An `AND`, `OR` or `BOOL` line names at most
//! [`MAX_SET_IDS`] set ids. `QUIT` (handled by the I/O loop, see
//! [`crate::serve_lines`]) closes the connection.

use fesia_core::{KernelTable, MAX_ELEMENT};

use crate::store::{ServeConfig, ServeStore, WriteOp};

/// Highest accepted set id plus one — a protocol-boundary guard so one
/// bad line cannot force a catalog slot allocation of arbitrary size.
pub const DEFAULT_MAX_SETS: u32 = 1 << 20;

/// Most set ids one `AND`, `OR` or `BOOL` line may name (all `BOOL`
/// sections together). A read runs one merge or probe pass per id while
/// it holds its snapshot pin, so the cap bounds the work and the pin time
/// one line can ask for; a longer line gets `ERR`.
pub const MAX_SET_IDS: usize = 64;

/// The three id buckets of a `BOOL` command: must / should / not.
type BoolSections = (Vec<u32>, Vec<u32>, Vec<u32>);

/// A [`ServeStore`] behind the line protocol.
pub struct Server {
    store: ServeStore,
    table: KernelTable,
    max_sets: u32,
}

impl Server {
    /// A server over a fresh store.
    pub fn new(config: ServeConfig) -> Server {
        Server {
            store: ServeStore::new(config),
            table: KernelTable::auto(),
            max_sets: DEFAULT_MAX_SETS,
        }
    }

    /// Override the accepted set-id range (`id < max_sets`).
    pub fn with_max_sets(mut self, max_sets: u32) -> Server {
        self.max_sets = max_sets;
        self
    }

    /// The underlying store (benches seed and quiesce through this).
    pub fn store(&self) -> &ServeStore {
        &self.store
    }

    /// Execute one protocol line; never panics on malformed input.
    pub fn handle_line(&self, line: &str) -> String {
        match self.dispatch(line) {
            Ok(response) => response,
            Err(reason) => format!("ERR {reason}"),
        }
    }

    fn dispatch(&self, line: &str) -> Result<String, String> {
        let mut toks = line.split_whitespace();
        let verb = toks.next().ok_or("empty command")?;
        if verb.eq_ignore_ascii_case("ADD") || verb.eq_ignore_ascii_case("DEL") {
            let set = self.set_id(toks.next(), "set id")?;
            let elem = parse_u32(toks.next(), "element")?;
            if elem > MAX_ELEMENT {
                return Err(format!("element {elem} exceeds max {MAX_ELEMENT}"));
            }
            self.no_trailing(toks)?;
            let op = if verb.eq_ignore_ascii_case("ADD") {
                WriteOp::Add { set, elem }
            } else {
                WriteOp::Del { set, elem }
            };
            self.store.apply(op);
            Ok("OK".to_string())
        } else if verb.eq_ignore_ascii_case("CARD") {
            let id = self.set_id(toks.next(), "set id")?;
            self.no_trailing(toks)?;
            Ok(self.store.read(|v| v.card(id)).to_string())
        } else if verb.eq_ignore_ascii_case("COUNT") {
            let a = self.set_id(toks.next(), "first set id")?;
            let b = self.set_id(toks.next(), "second set id")?;
            self.no_trailing(toks)?;
            Ok(self.store.read(|v| v.count(a, b, &self.table)).to_string())
        } else if verb.eq_ignore_ascii_case("AND") || verb.eq_ignore_ascii_case("OR") {
            let ids = self.id_list(toks)?;
            if ids.is_empty() {
                return Err(format!(
                    "{} needs at least one set id",
                    verb.to_ascii_uppercase()
                ));
            }
            let out = if verb.eq_ignore_ascii_case("AND") {
                self.store.read(|v| v.kway_intersect(&ids, &self.table))
            } else {
                self.store.read(|v| v.kway_union(&ids))
            };
            Ok(join(&out))
        } else if verb.eq_ignore_ascii_case("BOOL") {
            let (must, should, not) = self.bool_sections(toks)?;
            check_id_count(must.len() + should.len() + not.len())?;
            if must.is_empty() && should.is_empty() {
                return Err("BOOL needs a MUST or SHOULD section".to_string());
            }
            let out = self
                .store
                .read(|v| v.boolean(&must, &should, &not, &self.table));
            Ok(join(&out))
        } else {
            Err(format!("unknown command `{verb}`"))
        }
    }

    fn set_id(&self, tok: Option<&str>, what: &str) -> Result<u32, String> {
        let id = parse_u32(tok, what)?;
        if id >= self.max_sets {
            return Err(format!(
                "set id {id} out of range (max {})",
                self.max_sets - 1
            ));
        }
        Ok(id)
    }

    fn id_list<'a>(&self, toks: impl Iterator<Item = &'a str>) -> Result<Vec<u32>, String> {
        let ids = toks
            .map(|t| self.set_id(Some(t), "set id"))
            .collect::<Result<Vec<u32>, String>>()?;
        check_id_count(ids.len())?;
        Ok(ids)
    }

    fn bool_sections<'a>(
        &self,
        toks: impl Iterator<Item = &'a str>,
    ) -> Result<BoolSections, String> {
        let (mut must, mut should, mut not) = (Vec::new(), Vec::new(), Vec::new());
        let mut bucket: Option<&mut Vec<u32>> = None;
        for tok in toks {
            if tok.eq_ignore_ascii_case("MUST") {
                bucket = Some(&mut must);
            } else if tok.eq_ignore_ascii_case("SHOULD") {
                bucket = Some(&mut should);
            } else if tok.eq_ignore_ascii_case("NOT") {
                bucket = Some(&mut not);
            } else {
                let id = self.set_id(Some(tok), "set id")?;
                match bucket.as_deref_mut() {
                    Some(b) => b.push(id),
                    None => return Err(format!("`{tok}` before any MUST/SHOULD/NOT keyword")),
                }
            }
        }
        Ok((must, should, not))
    }

    fn no_trailing<'a>(&self, mut toks: impl Iterator<Item = &'a str>) -> Result<(), String> {
        match toks.next() {
            Some(extra) => Err(format!("unexpected trailing token `{extra}`")),
            None => Ok(()),
        }
    }
}

fn check_id_count(n: usize) -> Result<(), String> {
    if n > MAX_SET_IDS {
        return Err(format!("too many set ids ({n}, max {MAX_SET_IDS})"));
    }
    Ok(())
}

fn parse_u32(tok: Option<&str>, what: &str) -> Result<u32, String> {
    let tok = tok.ok_or_else(|| format!("missing {what}"))?;
    tok.parse::<u32>()
        .map_err(|_| format!("bad {what} `{tok}` (want a u32)"))
}

fn join(xs: &[u32]) -> String {
    let mut out = String::with_capacity(xs.len() * 4);
    for (i, x) in xs.iter().enumerate() {
        if i > 0 {
            out.push(' ');
        }
        out.push_str(&x.to_string());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn server() -> Server {
        Server::new(ServeConfig::from_env().with_shards(3))
    }

    #[test]
    fn the_protocol_round_trips_adds_counts_and_booleans() {
        let s = server();
        for cmd in ["ADD 0 5", "ADD 0 9", "ADD 1 9", "ADD 1 11", "add 2 9"] {
            assert_eq!(s.handle_line(cmd), "OK");
        }
        assert_eq!(s.handle_line("CARD 0"), "2");
        assert_eq!(s.handle_line("COUNT 0 1"), "1");
        assert_eq!(s.handle_line("AND 0 1 2"), "9");
        assert_eq!(s.handle_line("OR 0 1"), "5 9 11");
        assert_eq!(s.handle_line("DEL 0 9"), "OK");
        assert_eq!(s.handle_line("COUNT 0 1"), "0");
        assert_eq!(s.handle_line("BOOL MUST 1 SHOULD 2 NOT 0"), "9");
        assert_eq!(s.handle_line("bool must 1 not 1"), "");
    }

    #[test]
    fn malformed_lines_get_err_not_panics() {
        let s = server();
        for bad in [
            "",
            "FROB 1 2",
            "ADD",
            "ADD 1",
            "ADD x 2",
            "ADD 1 2 3",
            "COUNT 1",
            "AND",
            "BOOL",
            "BOOL 3 MUST 1",
            "BOOL MUST x",
        ] {
            let got = s.handle_line(bad);
            assert!(got.starts_with("ERR "), "`{bad}` -> `{got}`");
        }
    }

    #[test]
    fn out_of_range_ids_and_elements_are_rejected() {
        let s = Server::new(ServeConfig::from_env().with_shards(2)).with_max_sets(10);
        assert!(s
            .handle_line("ADD 10 1")
            .starts_with("ERR set id 10 out of range"));
        assert_eq!(s.handle_line("ADD 9 1"), "OK");
        let too_big = (MAX_ELEMENT as u64 + 1).to_string();
        assert!(s
            .handle_line(&format!("ADD 0 {too_big}"))
            .starts_with("ERR element"));
        assert!(s.handle_line("COUNT 0 10").starts_with("ERR "));
    }

    #[test]
    fn empty_results_are_blank_lines() {
        let s = server();
        s.handle_line("ADD 0 1");
        s.handle_line("ADD 1 2");
        assert_eq!(s.handle_line("AND 0 1"), "");
    }
}
