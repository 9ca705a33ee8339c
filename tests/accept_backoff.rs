//! The HTTP frontend keeps accepting after `accept()` fails.
//!
//! Lowers `RLIMIT_NOFILE` and fills the fd table so the frontend's
//! `accept()` fails with `EMFILE` while a client connection waits in the
//! listen backlog, then frees the fds. That queued connection must still
//! get its HTTP response. The reactor is edge-triggered, so it raises no
//! new readiness edge for it: the accept loop has to retry on its own.
//!
//! This file intentionally holds a single test: the fd limit and the fd
//! table are process-wide, and integration-test binaries run as their own
//! process.

#![cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]

use clipper::core::{Clipper, HttpFrontend};
use std::fs::File;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

const RLIMIT_NOFILE: i32 = 7;
const EMFILE: i32 = 24;

#[repr(C)]
#[derive(Clone, Copy)]
struct RLimit {
    cur: u64,
    max: u64,
}

extern "C" {
    fn getrlimit(resource: i32, rlim: *mut RLimit) -> i32;
    fn setrlimit(resource: i32, rlim: *const RLimit) -> i32;
}

fn nofile_limit() -> RLimit {
    let mut lim = RLimit { cur: 0, max: 0 };
    // SAFETY: `lim` is a valid, writable `struct rlimit`.
    assert_eq!(unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) }, 0);
    lim
}

fn set_nofile_limit(lim: RLimit) {
    // SAFETY: `lim` is a valid `struct rlimit`; lowering or restoring the
    // soft limit up to the hard limit needs no privilege.
    assert_eq!(unsafe { setrlimit(RLIMIT_NOFILE, &lim) }, 0);
}

/// Send `GET /health` over `conn` and read the whole reply (the request
/// asks the server to close). Blocking, so run it off the runtime.
fn health(mut conn: TcpStream) -> std::io::Result<String> {
    conn.set_read_timeout(Some(Duration::from_secs(5)))?;
    conn.write_all(b"GET /health HTTP/1.1\r\nhost: x\r\nconnection: close\r\n\r\n")?;
    let mut reply = String::new();
    conn.read_to_string(&mut reply)?;
    Ok(reply)
}

#[tokio::test]
async fn frontend_serves_a_connection_queued_while_accept_failed() {
    let frontend = HttpFrontend::bind("127.0.0.1:0", Clipper::builder().build())
        .await
        .unwrap();
    let addr = frontend.local_addr();
    let warm = TcpStream::connect(addr).unwrap();
    let reply = tokio::task::spawn_blocking(move || health(warm))
        .await
        .unwrap()
        .unwrap();
    assert!(reply.starts_with("HTTP/1.1 200"), "{reply}");

    // Leave exactly one free fd below a lowered limit, and spend it on
    // the client: the frontend's accept for it then fails with EMFILE.
    let saved = nofile_limit();
    let highest_fd = std::fs::read_dir("/proc/self/fd")
        .unwrap()
        .filter_map(|e| e.ok()?.file_name().to_str()?.parse::<u64>().ok())
        .max()
        .unwrap();
    set_nofile_limit(RLimit {
        cur: (highest_fd + 32).min(saved.cur),
        ..saved
    });
    let mut filler = Vec::new();
    loop {
        match File::open("/dev/null") {
            Ok(f) => filler.push(f),
            Err(e) if e.raw_os_error() == Some(EMFILE) => break,
            Err(e) => panic!("filling the fd table: {e}"),
        }
    }
    filler.pop();
    let conn = TcpStream::connect(addr).unwrap();
    // Give the accept loop time to hit EMFILE (and retry) several times.
    tokio::time::sleep(Duration::from_millis(100)).await;
    drop(filler);
    set_nofile_limit(saved);

    let reply = tokio::task::spawn_blocking(move || health(conn))
        .await
        .unwrap();
    match reply {
        Ok(reply) => assert!(reply.starts_with("HTTP/1.1 200"), "{reply}"),
        Err(e) => panic!("the connection queued during EMFILE got no reply: {e}"),
    }
}
