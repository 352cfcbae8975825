//! I/O loops for the line protocol: any `BufRead`/`Write` pair (stdin
//! in the CLI), or a TCP listener with one thread per connection, up to
//! [`MAX_CONNECTIONS`] at once.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
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

/// Most TCP connections served at once. Each holds a thread; one more
/// is answered `ERR too many connections` and closed, so clients cannot
/// make the server start unbounded threads.
pub const MAX_CONNECTIONS: usize = 64;

/// How long a TCP connection may send nothing, or leave a response
/// unread, before it is closed, freeing its slot for another client.
pub const IDLE_TIMEOUT: Duration = Duration::from_secs(300);

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
/// one shared store: at most [`MAX_CONNECTIONS`] at once, each closed
/// after [`IDLE_TIMEOUT`] without input or with a response write
/// blocked because the client stopped reading. Returns only on bind
/// errors: a
/// failed accept is logged and listening continues. Pass port 0 to let
/// the OS pick (the chosen address is printed to stderr).
pub fn serve_tcp(server: Arc<Server>, addr: &str) -> std::io::Result<()> {
    let listener = TcpListener::bind(addr)?;
    eprintln!("fesia-serve: listening on {}", listener.local_addr()?);
    serve_connections(server, listener.incoming(), MAX_CONNECTIONS, IDLE_TIMEOUT);
    Ok(())
}

/// One served connection's claim on the connection cap, released on
/// drop.
struct Slot(Arc<AtomicUsize>);

impl Drop for Slot {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

/// [`serve_tcp`]'s accept loop over `incoming`, with the connection cap
/// and the idle timeout (for reads and writes alike) as parameters.
fn serve_connections(
    server: Arc<Server>,
    incoming: impl Iterator<Item = std::io::Result<TcpStream>>,
    max_connections: usize,
    idle: Duration,
) {
    // Only this loop takes slots, so checking then taking cannot race.
    let live = Arc::new(AtomicUsize::new(0));
    for conn in incoming {
        let mut stream = match conn {
            Ok(stream) => stream,
            Err(e) => {
                eprintln!("fesia-serve: warning: accept failed: {e}");
                std::thread::sleep(ACCEPT_BACKOFF);
                continue;
            }
        };
        if live.load(Ordering::Acquire) >= max_connections {
            // Dropping the stream closes the connection.
            let _ = stream.write_all(b"ERR too many connections\n");
            continue;
        }
        live.fetch_add(1, Ordering::AcqRel);
        let slot = Slot(Arc::clone(&live));
        let server = Arc::clone(&server);
        let spawned = std::thread::Builder::new().spawn(move || {
            let reader = match stream
                .set_read_timeout(Some(idle))
                .and_then(|()| stream.set_write_timeout(Some(idle)))
                .and_then(|()| stream.try_clone())
            {
                Ok(s) => BufReader::new(s),
                Err(e) => {
                    eprintln!("fesia-serve: warning: dropping connection: {e}");
                    return;
                }
            };
            // Client disconnects and idle or blocked-write timeouts
            // surface as I/O errors; just drop them.
            let _ = serve_lines(&server, reader, &stream);
            // Free the slot before the client sees the connection close.
            drop(slot);
        });
        if let Err(e) = spawned {
            eprintln!("fesia-serve: warning: dropping connection: {e}");
        }
    }
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

    /// Connect to `addr` with a client-side read timeout, so a broken
    /// server fails the test instead of hanging it.
    fn client(addr: std::net::SocketAddr) -> (TcpStream, std::io::Lines<BufReader<TcpStream>>) {
        let conn = TcpStream::connect(addr).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(20)))
            .unwrap();
        let lines = BufReader::new(conn.try_clone().unwrap()).lines();
        (conn, lines)
    }

    /// Accept `accepts` connections on a fresh listener through
    /// [`serve_connections`] with `cap` and `idle`, on a thread.
    fn capped_listener(
        accepts: usize,
        cap: usize,
        idle: Duration,
    ) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
        let server = Arc::new(Server::new(ServeConfig::from_env().with_shards(1)));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let accept = std::thread::spawn(move || {
            serve_connections(server, listener.incoming().take(accepts), cap, idle);
        });
        (addr, accept)
    }

    #[test]
    fn connections_past_the_cap_get_err_until_a_slot_frees() {
        let (addr, accept) = capped_listener(4, 2, Duration::from_secs(60));
        let (mut a, mut a_lines) = client(addr);
        let (mut b, mut b_lines) = client(addr);
        // Both are served: each gets an answer.
        for (conn, lines) in [(&mut a, &mut a_lines), (&mut b, &mut b_lines)] {
            conn.write_all(b"CARD 1\n").unwrap();
            assert_eq!(lines.next().unwrap().unwrap(), "0");
        }
        let (_, mut c_lines) = client(addr);
        assert_eq!(c_lines.next().unwrap().unwrap(), "ERR too many connections");
        assert!(c_lines.next().is_none(), "a refused connection is closed");
        // Quitting one frees its slot before the close is visible.
        a.write_all(b"QUIT\n").unwrap();
        assert!(a_lines.next().is_none());
        let (mut d, mut d_lines) = client(addr);
        d.write_all(b"ADD 1 9\nCARD 1\nQUIT\n").unwrap();
        assert_eq!(d_lines.next().unwrap().unwrap(), "OK");
        assert_eq!(d_lines.next().unwrap().unwrap(), "1");
        b.write_all(b"QUIT\n").unwrap();
        accept.join().unwrap();
    }

    #[test]
    fn an_idle_connection_is_closed_and_frees_its_slot() {
        let (addr, accept) = capped_listener(2, 1, Duration::from_millis(100));
        let (_idle, mut idle_lines) = client(addr);
        // The server closes the silent connection after the timeout.
        assert!(idle_lines.next().is_none());
        let (mut next, mut next_lines) = client(addr);
        next.write_all(b"CARD 3\nQUIT\n").unwrap();
        assert_eq!(next_lines.next().unwrap().unwrap(), "0");
        accept.join().unwrap();
    }

    /// A client that floods commands and never reads the answers fills
    /// the socket buffers until the server's response write blocks; the
    /// write timeout then closes the connection and frees its slot.
    #[test]
    fn a_client_that_never_reads_is_dropped_and_frees_its_slot() {
        let (addr, accept) = capped_listener(2, 1, Duration::from_millis(200));
        let flood = TcpStream::connect(addr).unwrap();
        // A bound on the flood's own blocked writes, so a server that
        // never drops it fails the test below instead of hanging it.
        flood
            .set_write_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        // Each line draws a longer `ERR` answer, so the unread answers
        // outgrow the requests.
        let chunk = "COUNT 4000000000 0\n".repeat(4096);
        let flooder = std::thread::spawn(move || {
            let mut flood = flood;
            // Ends when the server closes the connection under it.
            loop {
                if let Err(e) = flood.write_all(chunk.as_bytes()) {
                    // Still open: only the server can have freed the slot.
                    return (flood, e);
                }
            }
        });
        let (_flood, err) = flooder.join().unwrap();
        assert!(
            !matches!(
                err.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ),
            "the server never dropped the flooding client: {err}"
        );
        let (mut next, mut next_lines) = client(addr);
        next.write_all(b"CARD 3\nQUIT\n").unwrap();
        assert_eq!(next_lines.next().unwrap().unwrap(), "0");
        accept.join().unwrap();
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
            // serve_tcp's endless accept loop.
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
