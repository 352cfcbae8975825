//! I/O loops for the line protocol: any `BufRead`/`Write` pair (stdin
//! in the CLI), or a thread-per-connection TCP listener.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpListener;
use std::sync::Arc;
use std::time::Duration;

use crate::protocol::Server;

/// Longest request line accepted, in bytes, newline excluded. A longer
/// line is answered `ERR line too long` and skipped through its
/// newline, so a client cannot make the server buffer unbounded input.
/// 64 KiB holds any `AND`/`OR`/`BOOL` within
/// [`crate::protocol::MAX_SET_IDS`].
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// Pause after a failed `accept` before listening again, so a
/// persistent failure (out of file descriptors) logs at a bounded rate
/// instead of spinning.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);

/// What [`read_line_capped`] found.
enum LineRead {
    /// A line, newline stripped, is in the buffer.
    Line,
    /// The line exceeded [`MAX_LINE_BYTES`]; it was consumed through
    /// its newline and the buffer is empty.
    TooLong,
    /// End of input.
    Eof,
}

/// Read one line into `buf`, keeping at most [`MAX_LINE_BYTES`] of it.
/// A final line without a newline still counts as a line.
fn read_line_capped<R: BufRead>(input: &mut R, buf: &mut Vec<u8>) -> std::io::Result<LineRead> {
    buf.clear();
    // One byte past the cap tells an over-long line from a full one.
    let cap = MAX_LINE_BYTES as u64 + 1;
    if input.by_ref().take(cap).read_until(b'\n', buf)? == 0 {
        return Ok(LineRead::Eof);
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
    } else if buf.len() > MAX_LINE_BYTES {
        input.skip_until(b'\n')?;
        buf.clear();
        return Ok(LineRead::TooLong);
    }
    Ok(LineRead::Line)
}

/// Serve the line protocol until EOF or a `QUIT` line. Blank lines are
/// ignored; every command gets exactly one response line, flushed
/// immediately (interactive clients see answers without buffering
/// delays). A line over [`MAX_LINE_BYTES`] or not valid UTF-8 gets an
/// `ERR` response, and serving resumes at the next line.
pub fn serve_lines<R: BufRead, W: Write>(
    server: &Server,
    mut input: R,
    mut out: W,
) -> std::io::Result<()> {
    let mut buf = Vec::new();
    loop {
        let response = match read_line_capped(&mut input, &mut buf)? {
            LineRead::Eof => break,
            LineRead::TooLong => "ERR line too long".to_string(),
            LineRead::Line => match std::str::from_utf8(&buf).map(str::trim) {
                Err(_) => "ERR line is not valid UTF-8".to_string(),
                Ok("") => continue,
                Ok(line) if line.eq_ignore_ascii_case("QUIT") => break,
                Ok(line) => server.handle_line(line),
            },
        };
        writeln!(out, "{response}")?;
        out.flush()?;
    }
    Ok(())
}

/// Bind `addr` and serve every connection on its own thread, all over
/// one shared store. Returns only on bind errors: a failed accept is
/// logged and listening continues. Pass port 0 to let the OS pick (the
/// chosen address is printed to stderr).
pub fn serve_tcp(server: Arc<Server>, addr: &str) -> std::io::Result<()> {
    let listener = TcpListener::bind(addr)?;
    eprintln!("fesia-serve: listening on {}", listener.local_addr()?);
    for conn in listener.incoming() {
        let stream = match conn {
            Ok(stream) => stream,
            Err(e) => {
                eprintln!("fesia-serve: warning: accept failed: {e}");
                std::thread::sleep(ACCEPT_BACKOFF);
                continue;
            }
        };
        let server = Arc::clone(&server);
        std::thread::spawn(move || {
            let reader = BufReader::new(match stream.try_clone() {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("fesia-serve: warning: dropping connection: {e}");
                    return;
                }
            });
            // Client disconnects surface as I/O errors; just drop them.
            let _ = serve_lines(&server, reader, stream);
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::ServeConfig;
    use std::io::Cursor;

    #[test]
    fn a_scripted_session_produces_one_response_per_command() {
        let server = Server::new(ServeConfig::from_env().with_shards(2));
        let script = "ADD 0 3\nADD 1 3\n\n  \nCOUNT 0 1\nquit\nADD 0 4\n";
        let mut out = Vec::new();
        serve_lines(&server, Cursor::new(script), &mut out).unwrap();
        assert_eq!(String::from_utf8(out).unwrap(), "OK\nOK\n1\n");
    }

    #[test]
    fn an_oversized_line_gets_err_and_the_next_command_its_answer() {
        let server = Server::new(ServeConfig::from_env().with_shards(1));
        let mut script = b"ADD 5 7\n".to_vec();
        script.extend(std::iter::repeat_n(b'1', 2 << 20));
        script.extend_from_slice(b"\nCARD 5\n");
        let mut out = Vec::new();
        serve_lines(&server, Cursor::new(script), &mut out).unwrap();
        assert_eq!(
            String::from_utf8(out).unwrap(),
            "OK\nERR line too long\n1\n"
        );
    }

    #[test]
    fn the_line_cap_is_exact_across_buffer_refills() {
        let server = Server::new(ServeConfig::from_env().with_shards(1));
        let padded = |len: usize| {
            let mut line = b"CARD 5".to_vec();
            line.resize(len, b' ');
            line
        };
        let mut script = padded(MAX_LINE_BYTES);
        script.push(b'\n');
        script.extend(padded(MAX_LINE_BYTES + 1));
        script.push(b'\n');
        script.extend_from_slice(b"\xff\xfe\nCARD 5"); // no final newline
        let mut out = Vec::new();
        // A tiny read buffer makes every line span many refills.
        let input = BufReader::with_capacity(7, Cursor::new(script));
        serve_lines(&server, input, &mut out).unwrap();
        assert_eq!(
            String::from_utf8(out).unwrap(),
            "0\nERR line too long\nERR line is not valid UTF-8\n0\n"
        );
    }

    #[test]
    fn id_lists_at_the_cap_are_served_and_one_past_it_gets_err() {
        use crate::protocol::MAX_SET_IDS;
        let server = Server::new(ServeConfig::from_env().with_shards(2));
        let ids = |n: usize| (0..n).map(|i| i.to_string()).collect::<Vec<_>>().join(" ");
        let bool_line = |n: usize| format!("BOOL MUST 0 SHOULD {} NOT {}", ids(n - 2), n);
        let mut script = String::from("ADD 0 7\n");
        for verb in ["AND", "OR"] {
            script += &format!(
                "{verb} {}\n{verb} {}\n",
                ids(MAX_SET_IDS),
                ids(MAX_SET_IDS + 1)
            );
        }
        script += &format!(
            "{}\n{}\nCARD 0\n",
            bool_line(MAX_SET_IDS),
            bool_line(MAX_SET_IDS + 1)
        );
        let mut out = Vec::new();
        serve_lines(&server, Cursor::new(script), &mut out).unwrap();
        let too_many = |n: usize| format!("ERR too many set ids ({n}, max {MAX_SET_IDS})");
        let want = [
            "OK".to_string(),
            String::new(),
            too_many(MAX_SET_IDS + 1),
            "7".to_string(),
            too_many(MAX_SET_IDS + 1),
            "7".to_string(),
            too_many(MAX_SET_IDS + 1),
            "1".to_string(),
        ];
        assert_eq!(String::from_utf8(out).unwrap(), want.join("\n") + "\n");
    }

    #[test]
    fn tcp_clients_share_one_store() {
        use std::io::Write as _;
        use std::net::TcpStream;

        let server = Arc::new(Server::new(ServeConfig::from_env().with_shards(2)));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let accept_server = Arc::clone(&server);
        let accept = std::thread::spawn(move || {
            // One connection is enough for the test; real serving uses
            // serve_tcp's unbounded loop.
            let (stream, _) = listener.accept().unwrap();
            let reader = BufReader::new(stream.try_clone().unwrap());
            serve_lines(&accept_server, reader, stream).unwrap();
        });

        let mut conn = TcpStream::connect(addr).unwrap();
        conn.write_all(b"ADD 5 77\nCARD 5\nQUIT\n").unwrap();
        let mut replies = BufReader::new(&conn).lines();
        assert_eq!(replies.next().unwrap().unwrap(), "OK");
        assert_eq!(replies.next().unwrap().unwrap(), "1");
        accept.join().unwrap();

        // The write landed in the shared store.
        assert_eq!(server.store().read(|v| v.card(5)), 1);
    }
}
