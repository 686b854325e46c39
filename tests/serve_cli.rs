//! `bss serve` as a user drives it: the stop hint it prints on startup is a
//! request the running server accepts.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use batch_setup_scheduling::serve::Response;

/// Kills the server if the test fails before it exits on its own.
struct KillOnDrop(Child);

impl Drop for KillOnDrop {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
fn printed_stop_hint_shuts_the_server_down() {
    let child = Command::new(env!("CARGO_BIN_EXE_bss"))
        .args(["serve", "--addr", "127.0.0.1:0"])
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn bss serve");
    let mut server = KillOnDrop(child);
    let mut lines = BufReader::new(server.0.stdout.take().expect("piped stdout")).lines();
    let mut line = || lines.next().expect("a line").expect("utf-8 stdout");
    let listening = line();
    let addr = listening
        .strip_prefix("bss-serve listening on ")
        .unwrap_or_else(|| panic!("unexpected first line: {listening}"))
        .to_string();
    let hint = line();
    let (start, end) = (hint.find('{'), hint.rfind('}'));
    let (Some(start), Some(end)) = (start, end) else {
        panic!("no JSON request in the hint: {hint}");
    };
    let request = &hint[start..=end];

    // One frame: a 4-byte big-endian length, then the printed JSON as is.
    let mut conn = TcpStream::connect(&addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let len = u32::try_from(request.len()).expect("short request");
    conn.write_all(&len.to_be_bytes()).expect("write length");
    conn.write_all(request.as_bytes()).expect("write payload");
    let mut head = [0u8; 4];
    conn.read_exact(&mut head).expect("reply length");
    let mut body = vec![0u8; u32::from_be_bytes(head) as usize];
    conn.read_exact(&mut body).expect("reply payload");
    let reply = String::from_utf8(body).expect("utf-8 reply");
    let decoded: Response = bss_json::decode(&reply).expect("a protocol reply");
    assert!(
        matches!(decoded, Response::Bye { id: 0 }),
        "hint {request} got {reply}"
    );

    let deadline = Instant::now() + Duration::from_secs(10);
    let status = loop {
        if let Some(status) = server.0.try_wait().expect("poll the server") {
            break status;
        }
        assert!(
            Instant::now() < deadline,
            "server still running 10 s after bye"
        );
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(status.success(), "server exited with {status}");
}
